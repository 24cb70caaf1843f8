"""ADMM at its defaults on four networks of the binding-cap family.

Each network has two or three sources whose floors are half their
supplies and one cap shared by every target (``bench/generate.py``'s
``bounded_network`` at (targets, sources, seed) = (4, 3, 98), (5, 3, 157),
(3, 3, 126) and (5, 2, 105)). On them the primal residual vanishes while the
consensus keeps sliding along a face of the op_b polytope, and it settles
only at a small enough penalty: residual balancing has to run long enough
to find one. The reference optimum comes from scipy's SLSQP on the op_b
objective under the node bounds written out as linear constraints.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, minimize

from secalloc.admm import run_admm
from secalloc.centralized import _make_objective, feasibility_violation
from secalloc.scenario_io import parse_scenario

NETWORKS = {
    "4x3": """
behavior: {gamma: 0.751}
targets:
  - {id: t1, loss_value: 14.474, prob_model: {family: exponential, baseline: 0.9607}, demand_upper: 2.905951}
  - {id: t2, loss_value: 6.5666, prob_model: {family: reciprocal, baseline: 2.9162}, demand_upper: 2.905951}
  - {id: t3, loss_value: 3.9789, prob_model: {family: exponential, baseline: 0.6993}, demand_upper: 2.905951}
  - {id: t4, loss_value: 3.849, prob_model: {family: exponential, baseline: 1.9191}, demand_upper: 2.905951}
sources:
  - {id: s1, supply_upper: 2.1619, supply_lower: 1.08095, weight_tau: 0.4492,
     utility_coeffs: {t1: 0.9223, t2: 0.7848, t3: 1.3872, t4: 0.8313}}
  - {id: s2, supply_upper: 2.5766, supply_lower: 1.2883, weight_tau: 0.4582,
     utility_coeffs: {t1: 0.5341, t2: 1.038, t3: 0.9899, t4: 0.6455}}
  - {id: s3, supply_upper: 1.6196, supply_lower: 0.8098, weight_tau: 0.117,
     utility_coeffs: {t1: 0.8286, t2: 0.5846, t3: 0.6268, t4: 1.4537}}
edges: complete
""",
    "5x3": """
behavior: {gamma: 0.9172}
targets:
  - {id: t1, loss_value: 0.7252, prob_model: {family: reciprocal, baseline: 3.6456}, demand_upper: 3.26062}
  - {id: t2, loss_value: 6.7204, prob_model: {family: exponential, baseline: 1.863}, demand_upper: 3.26062}
  - {id: t3, loss_value: 1.8824, prob_model: {family: reciprocal, baseline: 2.7904}, demand_upper: 3.26062}
  - {id: t4, loss_value: 3.968, prob_model: {family: exponential, baseline: 0.8347}, demand_upper: 3.26062}
  - {id: t5, loss_value: 1.8302, prob_model: {family: reciprocal, baseline: 2.2453}, demand_upper: 3.26062}
sources:
  - {id: s1, supply_upper: 1.827, supply_lower: 0.9135, weight_tau: 0.1913,
     utility_coeffs: {t1: 1.2845, t2: 1.1725, t3: 1.4512, t4: 1.0939, t5: 1.1111}}
  - {id: s2, supply_upper: 1.264, supply_lower: 0.632, weight_tau: 0.2603,
     utility_coeffs: {t1: 1.1899, t2: 1.098, t3: 0.5144, t4: 0.8122, t5: 0.9193}}
  - {id: s3, supply_upper: 2.6336, supply_lower: 1.3168, weight_tau: 0.1814,
     utility_coeffs: {t1: 1.3159, t2: 1.1849, t3: 0.5039, t4: 0.9121, t5: 0.5725}}
edges: complete
""",
    "3x3": """
behavior: {gamma: 0.6191}
targets:
  - {id: t1, loss_value: 6.3012, prob_model: {family: exponential, baseline: 0.3872}, demand_upper: 7.90079}
  - {id: t2, loss_value: 7.6069, prob_model: {family: exponential, baseline: 0.7232}, demand_upper: 7.90079}
  - {id: t3, loss_value: 1.3157, prob_model: {family: reciprocal, baseline: 2.6871}, demand_upper: 7.90079}
sources:
  - {id: s1, supply_upper: 4.2683, supply_lower: 2.13415, weight_tau: 0.3834,
     utility_coeffs: {t1: 0.8328, t2: 1.4616, t3: 1.4036}}
  - {id: s2, supply_upper: 4.7613, supply_lower: 2.38065, weight_tau: 0.4707,
     utility_coeffs: {t1: 0.7919, t2: 0.9876, t3: 0.941}}
  - {id: s3, supply_upper: 3.1222, supply_lower: 1.5611, weight_tau: 0.4604,
     utility_coeffs: {t1: 1.2887, t2: 0.726, t3: 1.2941}}
edges: complete
""",
    "5x2": """
behavior: {gamma: 0.7799}
targets:
  - {id: t1, loss_value: 16.1372, prob_model: {family: exponential, baseline: 1.2009}, demand_upper: 3.113418}
  - {id: t2, loss_value: 0.6946, prob_model: {family: exponential, baseline: 0.6766}, demand_upper: 3.113418}
  - {id: t3, loss_value: 2.1211, prob_model: {family: reciprocal, baseline: 2.6397}, demand_upper: 3.113418}
  - {id: t4, loss_value: 1.7571, prob_model: {family: reciprocal, baseline: 3.4665}, demand_upper: 3.113418}
  - {id: t5, loss_value: 1.5047, prob_model: {family: reciprocal, baseline: 3.505}, demand_upper: 3.113418}
sources:
  - {id: s1, supply_upper: 1.8241, supply_lower: 0.91205, weight_tau: 0.252,
     utility_coeffs: {t1: 0.8516, t2: 0.7195, t3: 1.2239, t4: 0.877, t5: 0.8769}}
  - {id: s2, supply_upper: 4.5335, supply_lower: 2.26675, weight_tau: 0.3556,
     utility_coeffs: {t1: 0.8484, t2: 1.1777, t3: 1.1123, t4: 1.0069, t5: 1.1413}}
edges: complete
""",
}


def reference_optimum(network, behavior):
    objective, gradient = _make_objective(network, behavior, "op_b")
    edges = network.edge_index.edges
    rows, lower, upper = [], [], []
    for node, side, low, high in [
        *((s.id, 1, s.supply_lower, s.supply_upper) for s in network.sources),
        *((t.id, 0, t.demand_lower, t.demand_upper) for t in network.targets),
    ]:
        rows.append([1.0 if e[side] == node else 0.0 for e in edges])
        lower.append(low)
        upper.append(high)
    result = minimize(
        objective,
        np.zeros(len(edges)),
        jac=gradient,
        method="SLSQP",
        bounds=Bounds(0.0, np.inf),
        constraints=[LinearConstraint(np.array(rows), lower, upper)],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success
    return result.fun, dict(zip(edges, result.x))


@pytest.mark.parametrize("name", list(NETWORKS))
def test_converges_at_the_defaults(name):
    scenario = parse_scenario(NETWORKS[name])
    network, behavior = scenario.network, scenario.behavior
    report = run_admm(network, behavior)
    best, plan = reference_optimum(network, behavior)
    assert report.perceived_loss - report.source_utility == pytest.approx(best, rel=1e-5)
    for edge, amount in plan.items():
        assert report.plan.amounts[edge] == pytest.approx(amount, abs=1e-3)
    assert feasibility_violation(network, report.plan, "op_b") <= 1e-12
