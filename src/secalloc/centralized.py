"""Centralized solvers for the two planning problems.

Both problems minimize the perceived loss over a polyhedral feasible set;
the second additionally rewards source utility:

* plain mode ("op_a"): min sum_x U_x w(p_x(.))  s.t. per-source budget
  caps and nonnegativity;
* weighted mode ("op_b"): min sum_x U_x w(p_x(.)) - sum tau_y c_xy pi_xy
  s.t. per-source supply bounds and per-target received-amount bounds.

The solver is projected gradient descent with Armijo backtracking. The
objective is smooth and convex on the feasible region, and projections
onto the per-node sets are exact (sort-based capped-simplex projection);
the coupled constraint set of the weighted mode is handled by Dykstra's
alternating projections.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import ConvergenceError, InfeasibleError
from .model import (
    AllocationPlan,
    BehavioralModel,
    SolveReport,
    TraceRecord,
    TransportNetwork,
    check_fields,
    loss_at_totals,
    marginal_perceived_cost,
    perceived_loss,
    prelec_weight,  # noqa: F401  kept importable: bench/tracing.py wraps it here
    true_loss,
)

__all__ = [
    "SolverConfig",
    "solve_op_a",
    "solve_op_b",
    "project_feasible",
    "kkt_residual",
    "project_capped_sum",
    "project_box_sum",
    "feasibility_violation",
]

_ARMIJO = 1e-4
_MIN_STEP = 1e-20
_STALL_ITERATIONS = 10
_DYKSTRA_TOL = 1e-9
_DYKSTRA_STALL_TOL = 1e-6
_DYKSTRA_MAX_CYCLES = 10000


@dataclass(frozen=True)
class SolverConfig:
    step_size: float = 1.0
    max_iterations: int = 200000
    gradient_tolerance: float = 1e-7
    objective_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        check_fields("SolverConfig", asdict(self))


def project_capped_sum(values: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto the capped simplex {v >= 0, sum v = total}.

    Sort-based exact algorithm, O(n log n). The shift may be negative, so
    this also serves as projection onto {v >= 0, sum v = total} from below.
    """
    v = np.asarray(values, dtype=float)
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    thetas = (np.cumsum(u) - total) / np.arange(1, v.size + 1)
    k = np.nonzero(u - thetas > 0)[0][-1]
    return np.maximum(v - thetas[k], 0.0)


def project_box_sum(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Euclidean projection onto {v >= 0, lower <= sum v <= upper}."""
    v = np.asarray(values, dtype=float)
    clipped = np.maximum(v, 0.0)
    s = float(clipped.sum())
    if s > upper:
        return project_capped_sum(v, upper)
    if s < lower:
        return project_capped_sum(v, lower)
    return clipped


def _make_objective(
    network: TransportNetwork, behavior: BehavioralModel, mode: str
) -> Tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    index = network.edge_index
    include_utility = mode == "op_b"

    def objective(x: np.ndarray) -> float:
        value = loss_at_totals(network, index.target_totals(x), behavior.gamma)
        if include_utility:
            value -= float(index.tau_c @ x)
        return value

    def gradient(x: np.ndarray) -> np.ndarray:
        totals = index.target_totals(x)
        g = np.empty(len(index.edges))
        for t, tot, sl in zip(network.targets, totals, index.target_slices):
            g[sl] = marginal_perceived_cost(t, behavior, tot)
        if include_utility:
            g -= index.tau_c
        return g

    return objective, gradient


def _violation(network: TransportNetwork, x: np.ndarray, mode: str) -> float:
    """Worst constraint violation of the vector x under the mode's bounds."""
    index = network.edge_index
    worst = float(np.maximum(-x, 0.0).max(initial=0.0))
    for s, idx in zip(network.sources, index.source_indices):
        tot = float(x[idx].sum())
        lo = 0.0 if mode == "op_a" else s.supply_lower
        worst = max(worst, lo - tot, tot - s.supply_upper)
    if mode == "op_b":
        for t, sl in zip(network.targets, index.target_slices):
            tot = float(x[sl].sum())
            worst = max(worst, t.demand_lower - tot, tot - t.demand_upper)
    return worst


def _make_projector(
    network: TransportNetwork, mode: str
) -> Callable[[np.ndarray], np.ndarray]:
    index = network.edge_index
    if mode == "op_a":
        # per-source groups are disjoint, so the projection is exact in one pass
        def project(x: np.ndarray) -> np.ndarray:
            out = np.maximum(x, 0.0)
            for s, idx in zip(network.sources, index.source_indices):
                out[idx] = project_box_sum(x[idx], 0.0, s.supply_upper)
            return out

        return project

    if mode != "op_b":
        raise ValueError(f"unknown mode {mode!r}")

    def project_sources(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for s, idx in zip(network.sources, index.source_indices):
            out[idx] = project_box_sum(x[idx], s.supply_lower, s.supply_upper)
        return out

    def project_targets(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for t, sl in zip(network.targets, index.target_slices):
            out[sl] = project_box_sum(x[sl], t.demand_lower, t.demand_upper)
        return out

    def project(x: np.ndarray) -> np.ndarray:
        # Dykstra's alternating projections onto the source and target sets
        y = x.copy()
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        worst = math.inf
        for _ in range(_DYKSTRA_MAX_CYCLES):
            u = project_sources(y + p)
            p = y + p - u
            y = project_targets(u + q)
            q = u + q - y
            worst = _violation(network, y, "op_b")
            if worst < _DYKSTRA_TOL:
                return y
        if worst > _DYKSTRA_STALL_TOL:
            raise InfeasibleError(
                f"alternating projection stalled at violation {worst:.3e}"
            )
        return y

    return project


def _pgd(
    x0: np.ndarray,
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    config: SolverConfig,
) -> Tuple[np.ndarray, int, List[TraceRecord], bool]:
    """Projected gradient descent with Armijo backtracking (halving).

    Converged when the unit-step projected-gradient norm falls below
    ``gradient_tolerance``, or when the objective changes by at most
    ``objective_tolerance`` for 10 consecutive iterations.
    """
    x = project(np.asarray(x0, dtype=float))
    fx = objective(x)
    trace: List[TraceRecord] = []
    stall = 0
    for iteration in range(1, config.max_iterations + 1):
        g = gradient(x)
        residual = float(np.linalg.norm(x - project(x - g)))
        trace.append(TraceRecord(iteration, residual, fx))
        if residual <= config.gradient_tolerance:
            return x, iteration, trace, True
        step = config.step_size
        x_new, f_new = x, fx
        while step >= _MIN_STEP:
            candidate = project(x - step * g)
            f_candidate = objective(candidate)
            if f_candidate <= fx + _ARMIJO * float(g @ (candidate - x)):
                x_new, f_new = candidate, f_candidate
                break
            step *= 0.5
        if abs(fx - f_new) <= config.objective_tolerance:
            stall += 1
            if stall >= _STALL_ITERATIONS:
                return x_new, iteration, trace, True
        else:
            stall = 0
        x, fx = x_new, f_new
    return x, config.max_iterations, trace, False


def _uniform_start(network: TransportNetwork) -> np.ndarray:
    x = np.zeros(len(network.edges))
    for s, idx in zip(network.sources, network.edge_index.source_indices):
        x[idx] = s.supply_upper / len(idx)
    return x


def _check_op_b_feasible(network: TransportNetwork) -> None:
    total_demand_lower = sum(t.demand_lower for t in network.targets)
    total_supply_lower = sum(s.supply_lower for s in network.sources)
    if total_demand_lower > network.total_supply():
        raise InfeasibleError(
            "total demand lower bound exceeds total supply upper bound"
        )
    if total_supply_lower > sum(t.demand_upper for t in network.targets):
        raise InfeasibleError(
            "total supply lower bound exceeds total demand upper bound"
        )


def _solve(
    network: TransportNetwork,
    behavior: BehavioralModel,
    config: SolverConfig,
    mode: str,
) -> SolveReport:
    objective, gradient = _make_objective(network, behavior, mode)
    project = _make_projector(network, mode)
    x0 = _uniform_start(network)
    x, iterations, trace, converged = _pgd(x0, objective, gradient, project, config)
    if not converged:
        raise ConvergenceError(
            f"{mode} solve did not converge in {config.max_iterations} iterations",
            trace=trace,
        )
    index = network.edge_index
    plan = index.to_plan(x)
    return SolveReport(
        plan=plan,
        true_loss=true_loss(network, plan),
        perceived_loss=perceived_loss(network, plan, behavior),
        source_utility=float(index.tau_c @ x),
        iterations=iterations,
        residual_trace=tuple(trace),
        converged=True,
    )


def solve_op_a(
    network: TransportNetwork,
    behavior: BehavioralModel,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Minimize perceived loss under source budget caps only."""
    return _solve(network, behavior, config, "op_a")


def solve_op_b(
    network: TransportNetwork,
    behavior: BehavioralModel,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Minimize perceived loss net of weighted source utility, under both
    source supply bounds and target received-amount bounds."""
    _check_op_b_feasible(network)
    return _solve(network, behavior, config, "op_b")


def project_feasible(
    raw: AllocationPlan, network: TransportNetwork, mode: str
) -> AllocationPlan:
    """Euclidean projection of a raw plan onto the mode's feasible set."""
    index = network.edge_index
    project = _make_projector(network, mode)
    return index.to_plan(project(index.to_vector(raw)))


def kkt_residual(
    network: TransportNetwork,
    behavior: BehavioralModel,
    plan: AllocationPlan,
    mode: str,
) -> float:
    """Stationarity measure: norm of the unit-step projected gradient.

    Zero exactly at an optimal plan of the given mode.
    """
    _, gradient = _make_objective(network, behavior, mode)
    project = _make_projector(network, mode)
    x = network.edge_index.to_vector(plan)
    return float(np.linalg.norm(x - project(x - gradient(x))))


def feasibility_violation(
    network: TransportNetwork, plan: AllocationPlan, mode: str
) -> float:
    """Worst constraint violation of a plan under the mode's bounds."""
    return _violation(network, network.edge_index.to_vector(plan), mode)
