"""Output checks for every CLI verb the benchmark times.

Each check reads the files a call wrote and returns a list of problems;
an empty list means the output passed. The tolerances below are the ones
the benchmark states in its report.

The op_b plans (``solve --mode op_b`` and ``admm``) are checked with an
independent optimality certificate instead of ``kkt_residual``: the
library's op_b projector stops at the first feasible Dykstra iterate,
which is not the Euclidean projection, so a residual built on it can
call a suboptimal plan stationary. The certificate runs Dykstra over the
public ``project_box_sum`` until its iterates stop moving.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Tuple

import numpy as np

from secalloc import centralized
from secalloc.model import AllocationPlan, marginal_perceived_cost
from secalloc.scenario_io import ScenarioFile

# stated tolerances (absolute unless noted)
FEAS_TOL = 1e-6  # constraint violation of any plan
# kkt_residual(..., "op_a") of the printed plan; op_a may stop on its
# objective-stall exit, which leaves ~1e-4 on ~2,000 edges
OP_A_KKT_TOL = 1e-3
CERT_TOL = 1e-4  # op_b projected-gradient residual of the printed plan
ADMM_GAP_TOL = 1e-4  # printed relative_gap (acceptance criterion 7)
WATERFILL_AGG_TOL = 1e-5  # waterfill aggregates against op_a's
SUM_RTOL = 1e-7  # sums against supplies, relative to max(1, supply)
GAMMA1_RTOL = 1e-8  # perceived vs true loss at gamma = 1, relative

# op_a reference for water-filling: the gradient criterion, not the
# objective stall, decides when it stops
_TIGHT = centralized.SolverConfig(objective_tolerance=1e-18)
_DYKSTRA_STILL = 1e-13  # iterates "stopped moving": max change per cycle
_DYKSTRA_MAX_CYCLES = 200000


# --------------------------------------------------------------------------
# reading the program's outputs


def read_report(path: str) -> Tuple[Dict[str, str], Dict[str, List[List[str]]]]:
    """Split a CLI report into ``key: value`` header lines and sections."""
    header: Dict[str, str] = {}
    sections: Dict[str, List[List[str]]] = {}
    current = None
    with open(path) as handle:
        for line in handle.read().splitlines():
            if line.startswith("  ") and current is not None:
                sections[current].append(line.split())
                continue
            key, _, value = line.partition(":")
            if value.strip():
                header[key] = value.strip()
                current = None
            else:
                current = key
                sections[current] = []
    return header, sections


def plan_vector(scenario: ScenarioFile, rows: List[List[str]]) -> np.ndarray:
    """Edge amounts from ``plan:`` rows, in the network's edge order."""
    amounts = {(x, y): float(v) for x, y, v in rows}
    edges = scenario.network.edges
    if set(amounts) != set(edges):
        raise ValueError("plan edges differ from the network's edges")
    return np.array([amounts[e] for e in edges])


def read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# --------------------------------------------------------------------------
# the op_b optimality certificate


class OpBCertificate:
    """Projected-gradient residual of an op_b plan with an exact projection."""

    def __init__(self, scenario: ScenarioFile):
        network = scenario.network
        self.scenario = scenario
        pos = {e: k for k, e in enumerate(network.edges)}
        self.targets = [
            (t, np.array([pos[e] for e in network.edges_of_target(t.id)]))
            for t in network.targets
        ]
        self.sources = [
            (s, np.array([pos[e] for e in network.edges_of_source(s.id)]))
            for s in network.sources
        ]
        self.tau_c = np.array(
            [
                network.source_by_id(y).weight_tau
                * network.source_by_id(y).utility_slope(x)
                for (x, y) in network.edges
            ]
        )

    def _project_sources(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for s, idx in self.sources:
            out[idx] = centralized.project_box_sum(x[idx], s.supply_lower, s.supply_upper)
        return out

    def _project_targets(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for t, idx in self.targets:
            out[idx] = centralized.project_box_sum(x[idx], t.demand_lower, t.demand_upper)
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the op_b set: Dykstra until still."""
        y = np.asarray(x, dtype=float).copy()
        p = np.zeros_like(y)
        q = np.zeros_like(y)
        u_prev = y
        for _ in range(_DYKSTRA_MAX_CYCLES):
            u = self._project_sources(y + p)
            p = y + p - u
            y_next = self._project_targets(u + q)
            q = u + q - y_next
            moved = max(
                float(np.abs(y_next - y).max(initial=0.0)),
                float(np.abs(u - u_prev).max(initial=0.0)),
            )
            y, u_prev = y_next, u
            if moved <= _DYKSTRA_STILL:
                return y
        raise RuntimeError("certificate projection did not settle")

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = -self.tau_c.copy()
        behavior = self.scenario.behavior
        for t, idx in self.targets:
            total = max(float(x[idx].sum()), 0.0)
            g[idx] += marginal_perceived_cost(t, behavior, total)
        return g

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x - self.project(x - self.gradient(x))))

    def violation(self, x: np.ndarray) -> float:
        worst = float(np.maximum(-x, 0.0).max(initial=0.0))
        for s, idx in self.sources:
            tot = float(x[idx].sum())
            worst = max(worst, s.supply_lower - tot, tot - s.supply_upper)
        for t, idx in self.targets:
            tot = float(x[idx].sum())
            worst = max(worst, t.demand_lower - tot, tot - t.demand_upper)
        return worst


# --------------------------------------------------------------------------
# per-verb checks


def _certify_op_b(scenario: ScenarioFile, x: np.ndarray) -> List[str]:
    cert = OpBCertificate(scenario)
    problems = []
    violation = cert.violation(x)
    if violation > FEAS_TOL:
        problems.append(f"op_b plan infeasible by {violation:.3e}")
    residual = cert.residual(x)
    if residual > CERT_TOL:
        problems.append(f"op_b certificate residual {residual:.3e} > {CERT_TOL:g}")
    return problems


def check_solve(scenario: ScenarioFile, output: str, mode: str) -> List[str]:
    header, sections = read_report(output)
    x = plan_vector(scenario, sections["plan"])
    if header.get("mode") != mode:
        return [f"report mode {header.get('mode')!r}, expected {mode!r}"]
    if mode == "op_b":
        return _certify_op_b(scenario, x)
    network = scenario.network
    problems = []
    violation = centralized.feasibility_violation(network, _plan(network, x), "op_a")
    if violation > FEAS_TOL:
        problems.append(f"op_a plan infeasible by {violation:.3e}")
    kkt = centralized.kkt_residual(network, scenario.behavior, _plan(network, x), "op_a")
    if kkt > OP_A_KKT_TOL:
        problems.append(f"op_a kkt residual {kkt:.3e} > {OP_A_KKT_TOL:g}")
    return problems


def check_admm(scenario: ScenarioFile, output: str) -> List[str]:
    header, sections = read_report(output)
    problems = _certify_op_b(scenario, plan_vector(scenario, sections["plan"]))
    gap = float(header["relative_gap"])
    if not gap <= ADMM_GAP_TOL:
        problems.append(f"admm relative_gap {gap:.3e} > {ADMM_GAP_TOL:g}")
    return problems


def check_waterfill(scenario: ScenarioFile, output: str) -> List[str]:
    network = scenario.network
    _, sections = read_report(output)
    reference = centralized.solve_op_a(network, scenario.behavior, _TIGHT).plan
    problems = []
    for tid, value in sections["aggregates"]:
        diff = abs(float(value) - reference.aggregate_at_target(tid))
        if diff > WATERFILL_AGG_TOL:
            problems.append(f"waterfill aggregate {tid} off op_a by {diff:.3e}")
    plan = _plan(network, plan_vector(scenario, sections["plan"]))
    for s in network.sources:
        shipped = plan.aggregate_at_source(s.id)
        if abs(shipped - s.supply_upper) > SUM_RTOL * max(1.0, s.supply_upper):
            problems.append(f"waterfill row {s.id} sums to {shipped!r}, supply {s.supply_upper!r}")
    return problems


def check_sweep(
    scenario: ScenarioFile, output: str, axis: str, grid: np.ndarray
) -> List[str]:
    header, rows = read_csv(output)
    network = scenario.network
    expected = ["param"] + [f"target_{t.id}" for t in network.targets] + [
        "true_loss", "perceived_loss", "active_targets",
    ]
    if header != expected:
        return [f"sweep header {header}"]
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows for {len(grid)} grid points"]
    problems = []
    supply = network.total_supply()
    n = len(network.targets)
    for row, value in zip(rows, grid):
        param = float(row[0])
        if abs(param - value) > 1e-8 * max(1.0, abs(value)):
            problems.append(f"sweep row param {row[0]} != grid {value!r}")
        total = sum(float(v) for v in row[1 : 1 + n])
        if abs(total - supply) > SUM_RTOL * max(1.0, supply):
            problems.append(f"{axis}={row[0]}: aggregates sum {total!r}, supply {supply!r}")
        gamma = param if axis == "gamma" else scenario.behavior.gamma
        true, perceived = float(row[1 + n]), float(row[2 + n])
        if gamma == 1.0 and abs(true - perceived) > GAMMA1_RTOL * max(1.0, abs(true)):
            problems.append(f"{axis}={row[0]}: perceived {perceived!r} != true {true!r} at gamma 1")
    return problems


def _plan(network, x: np.ndarray) -> AllocationPlan:
    return AllocationPlan({e: float(v) for e, v in zip(network.edges, x)})
