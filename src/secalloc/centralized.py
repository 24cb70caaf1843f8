"""Centralized solvers for the two planning problems.

Both problems minimize the perceived loss over a polyhedral feasible set;
the second additionally rewards source utility:

* plain mode ("op_a"): min sum_x U_x w(p_x(.))  s.t. per-source budget
  caps and nonnegativity;
* weighted mode ("op_b"): min sum_x U_x w(p_x(.)) - sum tau_y c_xy pi_xy
  s.t. per-source supply bounds and per-target received-amount bounds.

The solver is spectral projected gradient with Armijo backtracking. The
objective is smooth and convex on the feasible region. The projection onto
the feasible set keeps one multiplier per node and shifts each node's
edges by a sort-based capped-simplex threshold; in the weighted mode the
source and target multipliers are updated in turn until they settle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleError
from .model import (
    AllocationPlan,
    BehavioralModel,
    SolveReport,
    TraceRecord,
    TransportNetwork,
    _checked_totals,
    check_fields,
    # kept importable: bench/tracing.py wraps these names here
    marginal_perceived_cost,  # noqa: F401
    perceived_loss,  # noqa: F401
    prelec_weight,  # noqa: F401
    true_loss,  # noqa: F401
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
_MIN_ALPHA, _MAX_ALPHA = 1e-10, 1e2  # clamp on the spectral step; the upper one times max(1, budget)
_MAX_SCALED_GRADIENT = 1e3  # cap on the largest scaled gradient entry at the start
_FEASIBLE_RTOL = 1e-9  # largest violation of a returned plan, relative to the supply
_BB_KAPPA = 0.7  # take BB1 where BB2 / BB1 = cos^2(s, y) falls below this
_STALL_ITERATIONS = 10
_STALL_RESIDUAL = 1e-3  # largest scaled residual at which a stalled objective counts as converged
_SETTLE_TOL = 1e-13  # largest multiplier move, relative to z, lam and mu
_MAX_CYCLES = 10000
# margin of an unbindable target cap over its sources' caps: their projected
# amounts can sum above a cap by n ulps of the largest of n entries, n 2e-11
# of it on a point 1e5 times the supply out (alpha 1e2 max(1, budget) on a
# scaled gradient of 1e3 min(1, budget))
_UNBINDABLE_RTOL = 1e-6
_counts = functools.cache(lambda n: np.arange(1.0, n + 1))  # _row_thresholds' 1..n; never written


@dataclass(frozen=True)
class SolverConfig:
    step_size: float = 1.0
    max_iterations: int = 200000
    gradient_tolerance: float = 1e-7
    objective_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        check_fields("SolverConfig", self)


def _finite(v: np.ndarray) -> np.ndarray:
    """v, unless an entry is inf or nan: such a vector has no projection."""
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise DomainError("cannot project a vector with an infinite or nan entry")
    return v


def project_capped_sum(values: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto the capped simplex {v >= 0, sum v = total}:
    project_box_sum with both bounds at total, one row of ``_shifts``."""
    return project_box_sum(values, total, total)


def project_box_sum(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Euclidean projection onto {v >= 0, lower <= sum v <= upper}: v as one
    node's row of the projector's shift rule, ``_shifts``."""
    if not (math.isfinite(lower) and lower <= upper):
        raise DomainError(f"bounds [{lower}, {upper}] allow no finite total")
    v = _finite(np.asarray(values, dtype=float))
    if not (v.size or lower <= 0.0 <= upper):  # an empty vector's only total is 0
        raise DomainError(f"bounds [{lower}, {upper}] allow no total of an empty vector")
    if upper < 0.0:  # a sum of clipped entries is never negative
        raise ValueError("total must be >= 0")
    ((_, shift),) = _shifts(v, [(np.arange(v.size)[None, :], np.array([lower]), np.array([upper]))])
    return np.maximum(v - shift, 0.0)


def _make_objective(
    network: TransportNetwork, behavior: BehavioralModel, mode: str
) -> Tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """The mode's objective and gradient, for all targets at once (EdgeIndex).
    The gradient at the array the objective last took (unchanged since)
    reuses its L: _pgd makes a new array for each point."""
    index, gamma, op_b = network.edge_index, behavior.gamma, mode == "op_b"
    last: list = [None, None]  # the objective's last point and its L

    def objective(x: np.ndarray) -> float:
        last[:] = x, index.neg_log_p(index.totals(x))
        perceived = float(index.loss_at_l(last[1], gamma))
        return perceived - float(index.tau_c @ x) if op_b else perceived

    def gradient(x: np.ndarray) -> np.ndarray:
        big_l = last[1] if x is last[0] else index.neg_log_p(index.totals(x))
        g = index.marginals_at_l(big_l, gamma)[index.edge_targets]
        return g - index.tau_c if op_b else g

    return objective, gradient


def _bounds(network: TransportNetwork, mode: str) -> Tuple[list, list]:
    """The mode's node bounds, one (edge positions, lowers, uppers) per degree
    group of each side. op_a has zero source floors and no target bounds."""
    if mode not in ("op_a", "op_b"):
        raise ValueError(f"unknown mode {mode!r}")
    index, op_b = network.edge_index, mode == "op_b"
    floor = index.supply_lower if op_b else np.zeros(len(network.sources))
    sources = [(p, floor[n], index.supply_upper[n]) for n, p in index.source_groups]
    targets = [(p, index.demand_lower[n], index.demand_upper[n])
               for n, p in index.target_groups if op_b]
    return sources, targets


def _row_thresholds(rows: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Each row's theta at its total, sort-based (Held, Wolfe & Crowder 1974;
    Duchi et al. 2008): max(row - theta, 0) is its projection onto
    {x >= 0, sum x = total}. With u the row sorted down, theta is the largest
    theta_k = (u_1 + ... + u_k - total) / k, which rises while u_(k+1) >
    theta_k and falls after. It is at least u_1 - total: a zero total, or one
    below the rounding of u_1, clears the row exactly, and an infinite one gives -inf."""
    # ufunc methods on hot paths: np.sort/cumsum and ndarray.sum/max/any/all add Python frames
    u = rows.copy()
    u.sort(axis=1)
    thetas = (np.add.accumulate(u[:, ::-1], axis=1) - totals[:, None]) / _counts(rows.shape[1])
    return np.maximum.reduce(thetas, axis=1)


def _shifts(v: np.ndarray, groups: list):
    """Every node's shift on one side, a degree group at a time: max(r - shift, 0)
    projects a node's entries r onto {r >= 0, lower <= sum r <= upper}, with
    shift 0 where the clipped sum fits, else the threshold onto the nearer
    bound. Every projection takes its shift here; yields positions and shifts."""
    for positions, lower, upper in groups:
        rows = v[positions]
        s = np.add.reduce(np.maximum(rows, 0.0), axis=1)
        off = (s < lower) | (above := s > upper)
        any_off = np.logical_or.reduce(off)
        theta = _row_thresholds(rows, np.where(above, upper, lower)) if any_off else 0.0
        yield positions, np.where(off, theta, 0.0)


def _make_projector(
    network: TransportNetwork, mode: str
) -> Callable[[np.ndarray], np.ndarray]:
    """Euclidean projection onto the mode's feasible set.

    The projection of z is max(z - lam - mu, 0), where each edge carries
    the multiplier of its source (lam) and of its target (mu). Given mu,
    each source's lam is one shift, and given lam so is each target's mu;
    alternating the two is coordinate ascent on the dual (Dykstra's method).
    Each side's shifts are computed a degree group at a time, over the
    targets that can bind (_bindable): with none, as in op_a, one source
    pass is exact and the projection ends after it. mu is kept across
    calls: each PGD step starts from the last step's multipliers. An op_b
    network whose totals cannot meet is rejected here, before any
    projection spins on it."""
    sources, targets = _bounds(network, mode)
    if mode == "op_b":
        _check_op_b_feasible(network)
        targets = _bindable(network, sources, targets)
    lam = np.zeros(len(network.edges))
    mu = np.zeros(len(network.edges))

    def project(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        for _ in range(_MAX_CYCLES):
            # with no target that can bind, mu stays 0 and one source pass is exact
            for positions, theta in _shifts(z - mu if targets else z, sources):
                lam[positions] = theta[:, None]
            if not targets:
                return np.maximum(z - lam, 0.0)
            v = z - lam
            moved = 0.0
            for positions, theta in _shifts(v, targets):
                moved = max(moved, float(np.maximum.reduce(np.abs(theta - mu[positions[:, 0]]))))
                mu[positions] = theta[:, None]
            if moved == 0.0 or moved <= _SETTLE_TOL * max(
                np.maximum.reduce(np.abs(a)) for a in (z, lam, mu)
            ):
                return np.maximum(v - mu, 0.0)
        raise InfeasibleError(f"projection did not settle in {_MAX_CYCLES} cycles")

    return project


def _bindable(network: TransportNetwork, sources: list, targets: list) -> list:
    """The targets that can bind, by group: after a source pass an edge
    carries at most its source's total, so one with no floor and a cap over
    its sources' caps keeps mu 0, and the projection is the same without it."""
    cap = np.empty(len(network.edges))
    for positions, _, upper in sources:
        cap[positions] = upper[:, None]
    kept = []
    for positions, lower, upper in targets:
        keep = (lower > 0.0) | (upper <= (1.0 + _UNBINDABLE_RTOL) * cap[positions].sum(axis=1))
        if keep.any():
            kept.append((positions[keep], lower[keep], upper[keep]))
    return kept


def _pgd(
    x0: np.ndarray,
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    config: SolverConfig,
    budget: float = 1.0,
) -> Tuple[np.ndarray, int, List[TraceRecord], Optional[str]]:
    """Spectral projected gradient (Barzilai & Borwein 1988; Birgin,
    Martinez & Raydan 2000) with monotone Armijo backtracking.

    Each iteration projects once, p = P(x - alpha g), and halves along the
    feasible direction d = p - x. alpha starts at ``step_size``; then, with
    s and y the last moves of x and g, it is the adaptive BB step (Zhou, Gao
    & Dai 2006): BB1 = s's / s'y where BB2 = s'y / y'y is below
    ``_BB_KAPPA`` (0.7) times BB1, that is where cos^2(s, y) < 0.7 and the
    last move ran mostly along directions where the gradient barely changed,
    else BB2. op_b's perceived loss depends only on target totals, so moving
    a target's total between its sources is such a direction, and BB2 alone
    crossed these flat faces in short steps until the stall test stopped it
    short of stationarity. BB1 alone, and a threshold of 0.9, stopped the
    case study's op_b at tau 0.25 more than 1e-8 above op_a's true loss,
    which it equals there; a threshold of 0.5 tripled op_b's iterations on a
    seeded 5x3 network (``tests/test_adaptive_step.py``).
    The step is clamped to [1e-10, 1e2 max(1, budget)] in units of amount
    (below). The scaled gradient starts at most 1e3 amount, so a step moves
    at most about 1e5 times the budget; clamped at 1e2 alone, op_a on U 12/9
    (reciprocal r 2) ran out of iterations from a budget of 1e7 up. Where x
    moved and the scaled gradient did not (y'y is 0: a utility slope of
    1e200 sets a cost scale under which the loss gradients underflow), alpha
    doubles up to the clamp; where x did not move, where s'y <= 0 and
    y'y > 0, or where s'y or y'y overflows (a marginal of 3e209 at a zero
    total, on U 1e17 at baseline 1e-300), it is ``step_size`` again.
    Doubling, or the clamp, there too made that run at 1e10 exit 5: Armijo
    failed, x stayed, and a longer step failed again
    (``tests/test_budget_units.py``).
    Converged when ||d|| / min(alpha, 1), an upper bound on the unit-step
    projected-gradient norm, falls below ``gradient_tolerance`` in units of
    amount (below), or when the objective changes by at most
    ``objective_tolerance`` in units of cost for 10 consecutive iterations
    at a residual of at most ``_STALL_RESIDUAL`` (1e-3). A stall at a larger
    or non-finite residual stopped short of stationarity: on targets U 12/6
    and 1e-9 (baseline 1e-20, one source of 1, gamma 0.01) at 0.75/0.25
    against water-filling's 0.667/0.333, at a residual of 0.23; every stall
    of the benchmark workloads ends below 1e-5. Returns the last point, its
    iteration, the trace, and None where converged, else why not.

    The loop runs in units of amount = min(1, budget) and cost = min(1,
    amount max|g|) at the projected start (Nocedal & Wright, Numerical
    Optimization, section 2.2), so the tolerances and the step clamp hold
    at large budgets, where every marginal is tiny, and at small ones; cost
    is 1 where every marginal underflows to 0, and at least amount max|g| /
    1e3 at large loss values, where x - alpha g otherwise lies so far out
    that its projection loses the budgets to rounding (U = 1e17). g is the
    gradient over scale = cost / amount^2; objective values stay unscaled
    for the trace, so the Armijo and stall tests scale their terms back.
    """
    x = project(np.asarray(x0, dtype=float))
    fx, g = objective(x), gradient(x)
    amount = min(budget, 1.0)
    g_max = amount * float(np.abs(g).max())
    cost = max(min(1.0, g_max), g_max / _MAX_SCALED_GRADIENT) or 1.0
    scale = cost / amount / amount  # not amount**2, which underflows below about 1e-162
    g = g / scale
    alpha, max_alpha = config.step_size, _MAX_ALPHA * max(budget, 1.0)
    trace: List[TraceRecord] = []
    stall = 0
    for iteration in range(1, config.max_iterations + 1):
        p = project(x - alpha * g)
        d = p - x
        # np.linalg.norm of a 1-D float array, without its dispatch
        residual = math.sqrt(float(d @ d)) / min(alpha, 1.0) / amount
        trace.append(TraceRecord(iteration, residual, fx))
        if residual <= config.gradient_tolerance:
            return x, iteration, trace, None
        if residual != residual:  # nan: the gradient is not finite, and no step mends it
            return x, iteration, trace, f"stalled at residual nan, not within {_STALL_RESIDUAL:g}"
        slope, lam = scale * float(g @ d), 1.0
        x_new, f_new = x, fx
        while lam >= _MIN_STEP:
            # x + lam d lies between x and p, so it is feasible by convexity
            candidate = p if lam == 1.0 else x + lam * d
            f_candidate = objective(candidate)
            if f_candidate <= fx + _ARMIJO * lam * slope:
                x_new, f_new = candidate, f_candidate
                break
            lam *= 0.5
        if abs(fx - f_new) <= config.objective_tolerance * cost:
            stall += 1
            if stall >= _STALL_ITERATIONS:
                failure = f"stalled at residual {residual:g}, not within {_STALL_RESIDUAL:g}"
                return x_new, iteration, trace, None if residual <= _STALL_RESIDUAL else failure
        else:
            stall = 0
        g_new = gradient(x_new) / scale
        s, y = x_new - x, g_new - g
        # np.vdot is the same BLAS dot as @ on these 1-D float arrays, but warns
        # nothing where the sum overflows to inf; np.errstate around @ cost
        # about 3% of an iteration
        sy, yy = float(np.vdot(s, y)), float(np.vdot(y, y))
        if 0 < sy < math.inf and 0 < yy < math.inf:
            bb1, bb2 = float(np.vdot(s, s)) / sy, sy / yy
            alpha = min(max(bb1 if bb2 < _BB_KAPPA * bb1 else bb2, _MIN_ALPHA), max_alpha)
        elif yy == 0 and float(np.vdot(s, s)) > 0:  # x moved and the gradient did not
            alpha = min(2.0 * alpha, max_alpha)
        else:
            alpha = config.step_size
        x, fx, g = x_new, f_new, g_new
    return x, config.max_iterations, trace, f"did not converge in {config.max_iterations} iterations"


def _uniform_start(network: TransportNetwork) -> np.ndarray:
    x = np.zeros(len(network.edges))
    for positions, _, upper in _bounds(network, "op_a")[0]:
        x[positions] = (upper / positions.shape[1])[:, None]
    return x


def _check_op_b_feasible(network: TransportNetwork) -> None:
    if sum(t.demand_lower for t in network.targets) > network.total_supply():
        raise InfeasibleError("total demand lower bound exceeds total supply upper bound")
    if sum(s.supply_lower for s in network.sources) > sum(t.demand_upper for t in network.targets):
        raise InfeasibleError("total supply lower bound exceeds total demand upper bound")


def _solve(
    network: TransportNetwork,
    behavior: BehavioralModel,
    config: SolverConfig,
    mode: str,
    start: Optional[AllocationPlan] = None,
) -> SolveReport:
    objective, gradient = _make_objective(network, behavior, mode)
    project = _make_projector(network, mode)
    x0 = _uniform_start(network) if start is None else network.edge_index.to_vector(start)
    budget = network.total_supply()
    x, iterations, trace, failure = _pgd(x0, objective, gradient, project, config, budget)
    if failure:
        raise ConvergenceError(f"{mode} solve {failure}", trace=trace)
    # every iterate is feasible up to rounding; a plan that rounding moved out is not returned
    violation = _violation(network, x, mode)
    if violation > _FEASIBLE_RTOL * budget:
        raise ConvergenceError(f"{mode} solve left the feasible set by {violation:g}", trace=trace)
    return _report(network, behavior, x, iterations, trace)


def _report(
    network: TransportNetwork,
    behavior: BehavioralModel,
    x: np.ndarray,
    iterations: int,
    trace: List[TraceRecord],
) -> SolveReport:
    """The report of a converged solve that ended at the edge vector x, scored
    on x itself: the plan's amounts are x's floats, so true_loss and
    perceived_loss on the plan give the same bits."""
    index, totals = network.edge_index, _checked_totals(network, x)
    true, perceived = index.loss_at(totals, 1.0), index.loss_at(totals, behavior.gamma)
    utility = float(index.tau_c @ x)
    return SolveReport(index.to_plan(x), true, perceived, utility, iterations, tuple(trace), True)


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
    start: Optional[AllocationPlan] = None,
) -> SolveReport:
    """Minimize perceived loss net of weighted source utility, under both
    source supply bounds and target received-amount bounds. The solve
    begins at ``start`` where one is given, projected onto the feasible set
    first (PlanMismatchError unless it has the network's edges), and at
    the uniform split of each source's supply otherwise."""
    return _solve(network, behavior, config, "op_b", start)


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
    _checked_totals(network, x)
    return float(np.linalg.norm(x - project(x - gradient(x))))


def feasibility_violation(
    network: TransportNetwork, plan: AllocationPlan, mode: str
) -> float:
    """Worst constraint violation of a plan under the mode's bounds."""
    return _violation(network, network.edge_index.to_vector(plan), mode)


def _violation(network: TransportNetwork, x: np.ndarray, mode: str) -> float:
    sources, targets = _bounds(network, mode)
    worst = float(np.maximum(-x, 0.0).max(initial=0.0))
    for positions, lower, upper in sources + targets:
        tot = x[positions].sum(axis=1)
        worst = max(worst, float((lower - tot).max()), float((tot - upper).max()))
    return worst
