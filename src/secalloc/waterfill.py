"""Analytical allocation machinery for complete networks.

With a complete network, identical probability models, and strictly
ordered loss values, the optimum has a sequential water-filling shape:
the highest-valued target is funded alone until its marginal cost drops
to the next target's zero-allocation marginal, then both are funded at a
common marginal "water level", and so on. The budget level at which
target j starts receiving resources is the sum of pairwise thresholds
pi_i^{j*} over all higher-valued targets i.

Everything here relies only on the strict monotonicity of the marginal
cost (it rises continuously to 0), so plain bisection is globally safe:
no derivatives, no line searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .errors import PreconditionError
from .model import (
    AllocationPlan,
    BehavioralModel,
    TargetSpec,
    TransportNetwork,
    marginal_perceived_cost,
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

_XTOL = 1e-13
_MAX_BISECT = 200


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of an increasing f with f(lo) <= 0 <= f(hi), to width _XTOL."""
    for _ in range(_MAX_BISECT):
        if hi - lo <= _XTOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    return _invert_marginal(i, behavior, rhs)


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
    sources spending in their listed order.
    """

    activation_order: Tuple[str, ...]
    breakpoints: Tuple[float, ...]
    final_aggregates: Mapping[str, float]
    per_source_plan: AllocationPlan


def _ordered_targets(network: TransportNetwork) -> List[TargetSpec]:
    ordered = sorted(network.targets, key=lambda t: -t.loss_value)
    for a, b in zip(ordered, ordered[1:]):
        if not a.loss_value > b.loss_value:
            raise PreconditionError(
                f"loss values must be strictly ordered; targets {a.id} and "
                f"{b.id} tie at {a.loss_value}"
            )
    return ordered


def _require_analytical(network: TransportNetwork) -> List[TargetSpec]:
    if len(network.edges) != len(network.targets) * len(network.sources):
        raise PreconditionError("analytical water-filling requires a complete network")
    ordered = _ordered_targets(network)
    model = ordered[0].prob_model
    for t in ordered[1:]:
        if t.prob_model != model:
            raise PreconditionError(
                "analytical water-filling requires identical probability models"
            )
    return ordered


def _invert_marginal(
    target: TargetSpec, behavior: BehavioralModel, level: float
) -> float:
    """Amount t with marginal(t) = level, or 0 if the marginal at zero
    already sits above the level. level must be negative."""
    if marginal_perceived_cost(target, behavior, 0.0) >= level:
        return 0.0

    def f(t: float) -> float:
        return marginal_perceived_cost(target, behavior, t) - level

    hi = 1.0
    for _ in range(_MAX_BISECT):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise PreconditionError("failed to bracket the marginal level")
    return _bisect(f, 0.0, hi)


def _aggregates_at_budget(
    targets: Sequence[TargetSpec], behavior: BehavioralModel, budget: float
) -> List[float]:
    """Common-water-level aggregates exhausting the given budget.

    The water level lambda < 0 is found by bisection on u with
    lambda = -exp(u); total allocation is monotone decreasing in u.
    """
    if budget <= 0.0:
        return [0.0] * len(targets)

    def surplus(u: float) -> float:
        level = -math.exp(u)
        return budget - sum(_invert_marginal(t, behavior, level) for t in targets)

    lo, hi, step = -1.0, 1.0, 1.0
    while surplus(lo) > 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while hi < 700.0 and surplus(hi) < 0.0:
        hi += step
        step *= 2.0
    level = -math.exp(_bisect(surplus, lo, hi))
    return [_invert_marginal(t, behavior, level) for t in targets]


def build_threshold_table(
    network: TransportNetwork, behavior: BehavioralModel
) -> ThresholdTable:
    ordered = _require_analytical(network)
    entries: Dict[Tuple[str, str], float] = {}
    for a in range(len(ordered)):
        for b in range(a + 1, len(ordered)):
            entries[(ordered[a].id, ordered[b].id)] = threshold(
                ordered[a], ordered[b], behavior
            )
    return ThresholdTable(entries)


def _breakpoints(
    ordered: Sequence[TargetSpec], behavior: BehavioralModel
) -> List[float]:
    points = [0.0]
    for j in range(1, len(ordered)):
        points.append(
            sum(threshold(ordered[i], ordered[j], behavior) for i in range(j))
        )
    return points


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
    points = _breakpoints(ordered, behavior)

    amounts: Dict[Tuple[str, str], float] = {}
    previous = [0.0] * len(ordered)
    spent = 0.0
    for source in network.sources:
        spent = min(spent + source.supply_upper, budget)
        current = _aggregates_at_budget(ordered, behavior, spent)
        for t, before, after in zip(ordered, previous, current):
            amounts[(t.id, source.id)] = max(after - before, 0.0)
        previous = current

    # the running spend ends bit-equal to the budget (the same additions
    # in the same order), so the last profile is the full-budget one
    return WaterfillTrace(
        activation_order=tuple(t.id for t in ordered),
        breakpoints=tuple(points),
        final_aggregates={t.id: agg for t, agg in zip(ordered, previous)},
        per_source_plan=AllocationPlan(amounts),
    )


def active_target_count(
    network: TransportNetwork, behavior: BehavioralModel
) -> int:
    """Number of targets funded at the optimum: those whose activation
    breakpoint lies strictly below the total budget."""
    ordered = _require_analytical(network)
    budget = network.total_supply()
    return sum(1 for b in _breakpoints(ordered, behavior) if budget > b)


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
    one_over_e = math.exp(-1.0)
    for t in (i, j):
        if not t.prob_model.probability(0.0) < one_over_e:
            raise PreconditionError(
                f"gamma sensitivity requires p(0) < 1/e at target {t.id}"
            )
    pi_star = threshold(i, j, behavior)  # also validates U_i > U_j
    gamma = behavior.gamma

    p_i = i.prob_model.probability(pi_star)
    big_l = -math.log(p_i)
    l_j0 = -math.log(j.prob_model.probability(0.0))
    numerator = (big_l**gamma - 1.0) * math.log(big_l) - (
        l_j0**gamma - 1.0
    ) * math.log(l_j0)

    # d/dpi of log(-marginal_i), evaluated at the threshold
    ld = i.prob_model.log_derivative(pi_star)  # p'/p
    dp = i.prob_model.derivative(pi_star)
    d2p = i.prob_model.second_derivative(pi_star)
    denominator = (gamma - 1.0 - gamma * big_l**gamma) * (-ld) / big_l + (
        d2p / dp - ld
    )
    return numerator / denominator
