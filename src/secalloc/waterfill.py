"""Analytical allocation machinery for complete networks.

With a complete network, identical probability models, and strictly
ordered loss values, the optimum has a sequential water-filling shape:
the highest-valued target is funded alone until its marginal cost drops
to the next target's zero-allocation marginal, then both are funded at a
common marginal "water level", and so on. The budget level at which
target j starts receiving resources is the sum of pairwise thresholds
pi_i^{j*} over all higher-valued targets i.

All of it inverts one function of L = -log p, the kernel's
psi(L) = log(-marginal / U) (see model), which is strictly decreasing and
convex. So Newton's method started at L(0), below the root, climbs to it
monotonically (every tangent lies under psi) and needs no bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import PreconditionError
from .model import (
    _MAX_ROOT_STEPS,
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    TargetSpec,
    TransportNetwork,
    _increasing_root,
    marginal_perceived_cost,
    psi,
    psi_slope,
)

__all__ = [
    "ThresholdTable",
    "WaterfillTrace",
    "threshold",
    "build_threshold_table",
    "waterfill_allocate",
    "active_target_count",
    "gamma_sensitivity",
]


def _amounts_at_level(
    model: AttackProbabilityModel, gamma: float, level: np.ndarray
) -> np.ndarray:
    """Amounts t with psi(L(t)) = level, elementwise, by Newton from L(0)
    until no element moves up; exactly 0.0 where psi(L(0)) <= level."""
    start, k = model.neg_log_probability(0.0), model.log_rate_slope
    big_l = np.full(np.shape(level), start)
    for _ in range(_MAX_ROOT_STEPS):
        step = big_l - (psi(big_l, gamma, k) - level) / psi_slope(big_l, gamma, k)
        moved = step > big_l
        if not moved.any():
            break
        big_l = np.where(moved, step, big_l)
    return np.where(big_l > start, np.maximum(model.amount_at(big_l), 0.0), 0.0)


def _threshold_matrix(
    rows: Sequence[TargetSpec], cols: Sequence[TargetSpec], gamma: float
) -> np.ndarray:
    """theta[a, b]: the amount at which rows[a]'s marginal falls to cols[b]'s
    at zero, 0.0 where it already sits at or above it. The rows share one
    probability model, and every model is of one family."""
    l_zero = np.array([t.prob_model.neg_log_probability(0.0) for t in cols])
    col_psi = psi(l_zero, gamma, cols[0].prob_model.log_rate_slope)
    col_level = np.log([t.loss_value for t in cols]) + col_psi
    row_log_u = np.log([t.loss_value for t in rows])
    return _amounts_at_level(rows[0].prob_model, gamma, col_level - row_log_u[:, None])


def threshold(i: TargetSpec, j: TargetSpec, behavior: BehavioralModel) -> float:
    """Resource level at target i whose marginal matches target j's at zero.

    Solves  U_i dw(p_i)/dpi |_{pi=t}  =  U_j dw(p_j)/dpi |_{pi=0}  for t.
    Requires U_i > U_j and probability models of the same family, which
    guarantee a unique nonnegative root.
    """
    if i.loss_value <= j.loss_value:
        raise PreconditionError(
            f"threshold requires loss_value({i.id}) > loss_value({j.id})"
        )
    if i.prob_model.family != j.prob_model.family:
        raise PreconditionError(
            "threshold requires probability models of the same family"
        )
    rhs = marginal_perceived_cost(j, behavior, 0.0)
    if marginal_perceived_cost(i, behavior, 0.0) >= rhs:
        raise PreconditionError(
            "marginal ordering violated at zero allocation; "
            "are the probability models identical?"
        )
    return float(_threshold_matrix([i], [j], behavior.gamma)[0, 0])


@dataclass(frozen=True)
class ThresholdTable:
    """Thresholds pi_i^{j*} for each ordered pair (i, j), i higher-valued."""

    entries: Mapping[Tuple[str, str], float]


@dataclass(frozen=True)
class WaterfillTrace:
    """Full record of a sequential water-filling run.

    ``activation_order`` lists target ids in funding order (descending
    loss value); ``breakpoints`` gives the cumulative budget at which each
    of them activates; ``final_aggregates`` the per-target totals; and
    ``per_source_plan`` an edge-level plan realizing those totals with
    sources spending in their listed order; ``thresholds`` the pairwise
    thresholds the breakpoints sum.
    """

    activation_order: Tuple[str, ...]
    breakpoints: Tuple[float, ...]
    final_aggregates: Mapping[str, float]
    per_source_plan: AllocationPlan
    thresholds: ThresholdTable


def _require_analytical(network: TransportNetwork) -> List[TargetSpec]:
    if len(network.edges) != len(network.targets) * len(network.sources):
        raise PreconditionError("analytical water-filling requires a complete network")
    ordered = sorted(network.targets, key=lambda t: -t.loss_value)
    for a, b in zip(ordered, ordered[1:]):
        if not a.loss_value > b.loss_value:
            raise PreconditionError(
                f"loss values must be strictly ordered; targets {a.id} and "
                f"{b.id} tie at {a.loss_value}"
            )
    if any(t.prob_model != ordered[0].prob_model for t in ordered[1:]):
        raise PreconditionError(
            "analytical water-filling requires identical probability models"
        )
    return ordered


def _aggregates_at_budget(
    targets: Sequence[TargetSpec], gamma: float, budget: float
) -> List[float]:
    """Common-water-level aggregates exhausting the given budget.

    The top target's amount t1 in [0, budget] sets the level,
    psi(L(t1)) + log U_1; every other target takes the amount where its
    own marginal meets that level. The spend grows with t1, so t1 is the
    root of spend - budget.
    """
    model = targets[0].prob_model
    log_u = np.log([t.loss_value for t in targets])
    offsets = log_u[0] - log_u[1:]

    def others(top: float) -> np.ndarray:
        level = psi(model.neg_log_probability(top), gamma, model.log_rate_slope)
        return _amounts_at_level(model, gamma, level + offsets)

    top = _increasing_root(lambda t1: t1 + float(others(t1).sum()) - budget, -budget, budget)
    return [top, *others(top).tolist()]


def build_threshold_table(
    network: TransportNetwork, behavior: BehavioralModel
) -> ThresholdTable:
    ordered = _require_analytical(network)
    theta = _threshold_matrix(ordered, ordered, behavior.gamma)
    return ThresholdTable(
        {
            (ordered[a].id, ordered[b].id): float(theta[a, b])
            for a in range(len(ordered))
            for b in range(a + 1, len(ordered))
        }
    )


def _breakpoints(ordered: Sequence[TargetSpec], table: ThresholdTable) -> List[float]:
    # target j's thresholds against the targets valued above it, in order
    ids = [t.id for t in ordered]
    return [sum((table.entries[(i, j)] for i in ids[:b]), 0.0) for b, j in enumerate(ids)]


def waterfill_allocate(
    network: TransportNetwork, behavior: BehavioralModel
) -> WaterfillTrace:
    """Sequential water-filling over a complete network.

    Aggregates treat all sources as one super source of capacity
    sum q_y; the edge-level plan is then recovered by letting each source
    fill the running water profile in listed order until its own budget
    is spent.
    """
    ordered = _require_analytical(network)
    budget = network.total_supply()
    table = build_threshold_table(network, behavior)

    amounts: Dict[Tuple[str, str], float] = {}
    previous = [0.0] * len(ordered)
    spent = 0.0
    for source in network.sources:
        spent = min(spent + source.supply_upper, budget)
        current = _aggregates_at_budget(ordered, behavior.gamma, spent)
        for t, before, after in zip(ordered, previous, current):
            amounts[(t.id, source.id)] = max(after - before, 0.0)
        previous = current

    # the running spend ends bit-equal to the budget (the same additions
    # in the same order), so the last profile is the full-budget one
    return WaterfillTrace(
        activation_order=tuple(t.id for t in ordered),
        breakpoints=tuple(_breakpoints(ordered, table)),
        final_aggregates={t.id: agg for t, agg in zip(ordered, previous)},
        per_source_plan=AllocationPlan(amounts),
        thresholds=table,
    )


def active_target_count(
    network: TransportNetwork, behavior: BehavioralModel
) -> int:
    """Number of targets funded at the optimum: those whose activation
    breakpoint lies strictly below the total budget."""
    ordered = _require_analytical(network)
    budget = network.total_supply()
    table = build_threshold_table(network, behavior)
    return sum(1 for b in _breakpoints(ordered, table) if budget > b)


def gamma_sensitivity(
    i: TargetSpec, j: TargetSpec, behavior: BehavioralModel
) -> float:
    """Analytical derivative of the pairwise threshold with respect to
    the misperception parameter, by implicit differentiation of the
    defining marginal equality in log form.

    Requires p(0) < 1/e at both targets; the derivative is then strictly
    negative, so a more behavioral planner activates lower-valued targets
    later.
    """
    for t in (i, j):
        if not t.prob_model.neg_log_probability(0.0) > 1.0:
            raise PreconditionError(
                f"gamma sensitivity requires p(0) < 1/e at target {t.id}"
            )
    pi_star = threshold(i, j, behavior)  # also validates U_i > U_j
    gamma = behavior.gamma

    big_l = i.prob_model.neg_log_probability(pi_star)
    l_j0 = j.prob_model.neg_log_probability(0.0)
    numerator = (big_l**gamma - 1.0) * math.log(big_l) - (l_j0**gamma - 1.0) * math.log(l_j0)
    # d/dpi of log(-marginal_i) at the threshold: psi'(L) dL/dt, dL/dt = exp(k L)
    dl_dt = math.exp(i.prob_model.log_rate_slope * big_l)
    return float(numerator / (psi_slope(big_l, gamma, i.prob_model.log_rate_slope) * dl_dt))
