"""Checks the benchmark's op_b optimality certificate against scipy.

Run from the repository root:

    python3 -m pytest -q bench/test_certificate.py
"""

import os
import sys

import numpy as np
import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

optimize = pytest.importorskip("scipy.optimize")

import checks  # noqa: E402
import generate  # noqa: E402
from secalloc.model import prelec_weight  # noqa: E402
from secalloc.scenario_io import build_case_study_scenario  # noqa: E402


def _instances():
    rng = np.random.default_rng(7)
    yield build_case_study_scenario()
    for n_t, n_s in [(3, 2), (4, 3), (5, 3)]:
        yield generate.bounded_network(rng, n_t, n_s)


def _constraints(cert):
    n = len(cert.tau_c)
    rows, lo, hi = [], [], []
    for spec, idx, low, high in (
        [(s, i, s.supply_lower, s.supply_upper) for s, i in cert.sources]
        + [(t, i, t.demand_lower, t.demand_upper) for t, i in cert.targets]
    ):
        row = np.zeros(n)
        row[idx] = 1.0
        rows.append(row)
        lo.append(low)
        hi.append(high)
    return optimize.LinearConstraint(np.array(rows), lo, hi), optimize.Bounds(0.0, np.inf)


def _objective(cert, x):
    gamma = cert.scenario.behavior.gamma
    value = -float(cert.tau_c @ x)
    for t, idx in cert.targets:
        p = t.prob_model.probability(max(float(x[idx].sum()), 0.0))
        value += t.loss_value * prelec_weight(p, gamma)
    return value


@pytest.mark.parametrize("scenario", list(_instances()))
def test_projection_matches_scipy(scenario):
    cert = checks.OpBCertificate(scenario)
    point = np.random.default_rng(3).normal(1.0, 2.0, len(cert.tau_c))
    linear, bounds = _constraints(cert)
    ref = optimize.minimize(
        lambda y: 0.5 * float((y - point) @ (y - point)),
        np.maximum(point, 0.0),
        jac=lambda y: y - point,
        method="trust-constr",
        constraints=[linear],
        bounds=bounds,
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
    )
    ours = cert.project(point)
    assert cert.violation(ours) < 1e-9
    assert np.linalg.norm(ours - ref.x) < 1e-5


@pytest.mark.parametrize("scenario", list(_instances()))
def test_certificate_accepts_scipy_optimum_and_rejects_a_perturbed_plan(scenario):
    cert = checks.OpBCertificate(scenario)
    linear, bounds = _constraints(cert)
    start = cert.project(np.ones(len(cert.tau_c)))
    ref = optimize.minimize(
        lambda x: _objective(cert, x),
        start,
        jac=cert.gradient,
        method="trust-constr",
        constraints=[linear],
        bounds=bounds,
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
    )
    optimum = cert.project(ref.x)
    assert cert.residual(optimum) < checks.CERT_TOL / 10
    # moving mass between two edges of one source keeps feasibility but
    # leaves the optimum, which the certificate must see
    idx = cert.sources[0][1]
    shifted = optimum.copy()
    amount = min(0.2, float(shifted[idx[0]]))
    if len(idx) > 1 and amount > 1e-3:
        shifted[idx[0]] -= amount
        shifted[idx[1]] += amount
        if cert.violation(shifted) < 1e-9:
            assert cert.residual(shifted) > checks.CERT_TOL
