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
import sys
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .errors import PreconditionError
from .model import (
    _MAX_ROOT_STEPS,
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    TargetSpec,
    TransportNetwork,
    marginal_perceived_cost,  # noqa: F401
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


def _level_inverse(
    model: AttackProbabilityModel, gamma: float, level: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """L with psi(L) = level, elementwise, by Newton from L(0), or from the
    smallest normal float where L(0) is subnormal (psi's slope, about -1/L,
    overflows there), until no element moves up; and the amounts t with
    L(t) = L: exactly the start and 0.0 where psi(start) <= level, and inf
    for both where psi at the largest float amount, or at the largest float
    L, is still above level (the root lies past the float range, where
    Newton's step overflows)."""
    start, k = max(model.neg_log_probability(0.0), np.finfo(float).tiny), model.log_rate_slope
    top = min(model.neg_log_probability(sys.float_info.max), sys.float_info.max)
    beyond = psi(top, gamma, k) > level
    level = np.where(beyond, np.inf, level)  # psi(start) <= inf: held at the start
    big_l = np.full(np.shape(level), start)
    for _ in range(_MAX_ROOT_STEPS):
        step = big_l - (psi(big_l, gamma, k) - level) / psi_slope(big_l, gamma, k)
        moved = step > big_l
        if not np.logical_or.reduce(moved, axis=None):
            break
        big_l = np.where(moved, step, big_l)
    amounts = np.where(big_l > start, np.maximum(model.amount_at(big_l), 0.0), 0.0)
    return np.where(beyond, np.inf, big_l), np.where(beyond, np.inf, amounts)


def _zero_levels(targets: Sequence[TargetSpec], gamma: float) -> np.ndarray:
    """log U + psi(L(0)) of each target: log(-marginal) at zero, finite where
    the marginal itself overflows. Every model is of one family."""
    l_zero = np.array([t.prob_model.neg_log_probability(0.0) for t in targets])
    log_u = np.log([t.loss_value for t in targets])
    return log_u + psi(l_zero, gamma, targets[0].prob_model.log_rate_slope)


def _threshold_matrix(
    rows: Sequence[TargetSpec], cols: Sequence[TargetSpec], gamma: float
) -> np.ndarray:
    """theta[a, b]: the amount at which rows[a]'s marginal falls to cols[b]'s
    at zero, 0.0 where it already sits at or above it. The rows share one
    probability model, and every model is of one family."""
    level = _zero_levels(cols, gamma) - np.log([t.loss_value for t in rows])[:, None]
    return _level_inverse(rows[0].prob_model, gamma, level)[1]


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
    level_i, level_j = _zero_levels([i, j], behavior.gamma)
    if level_i <= level_j:  # on one model U_i > U_j orders the exact levels: they tied in floats
        raise PreconditionError(
            f"the zero-allocation levels of {i.id} and {j.id} tie at baseline {i.prob_model.baseline:g}: "
            "the threshold is below what L resolves" if i.prob_model == j.prob_model
            else "marginal ordering violated at zero allocation"
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


def _water_profiles(
    targets: Sequence[TargetSpec], gamma: float, budgets: np.ndarray
) -> np.ndarray:
    """The (targets, budgets) amounts at the common water level that spends
    each budget.

    At level lam every target takes the amount with psi(L) + log U = lam.
    The spend is convex and decreasing in lam (each amount is a convex,
    nondecreasing function of a convex, decreasing psi^-1, clipped at 0),
    so Newton's method from the level where the top target alone takes the
    budget, where the spend is at least the budget, rises to the root
    without passing it, and a column stops once its spend no longer falls.
    The top target then takes what rounding left over.
    """
    model, k = targets[0].prob_model, targets[0].prob_model.log_rate_slope
    log_u = np.log([t.loss_value for t in targets])[:, None]
    level = psi(model.neg_log_probability(budgets), gamma, k) + log_u[0]
    last_excess = np.inf
    for _ in range(_MAX_ROOT_STEPS):
        big_l, amounts = _level_inverse(model, gamma, level - log_u)
        excess = np.add.reduce(amounts, axis=0) - budgets
        # d spend / d lam: dt/dL = exp(-k L) over dpsi/dL, on the funded targets
        slope = np.where(amounts > 0.0, np.exp(-k * big_l) / psi_slope(big_l, gamma, k), 0.0)
        slope = np.add.reduce(slope, axis=0)  # 0 where no target is funded: no step
        step = level - excess / np.where(slope == 0.0, np.inf, slope)
        # a level finer than the amounts resolve leaves the spend unchanged
        moved = (step > level) & (excess < last_excess)
        if not np.logical_or.reduce(moved):
            break
        level, last_excess = np.where(moved, step, level), excess
    amounts[0] = budgets - amounts[1:].sum(axis=0)
    return amounts


def _waterfill(
    network: TransportNetwork, behavior: BehavioralModel
) -> Tuple[List[TargetSpec], ThresholdTable, np.ndarray]:
    """The targets in funding order, their thresholds, and each target's
    breakpoint: its thresholds against the targets above it, summed."""
    ordered = _require_analytical(network)
    theta = _threshold_matrix(ordered, ordered, behavior.gamma)
    table = ThresholdTable(
        {
            (ordered[a].id, ordered[b].id): float(theta[a, b])
            for a in range(len(ordered))
            for b in range(a + 1, len(ordered))
        }
    )
    return ordered, table, np.triu(theta, 1).sum(axis=0)


def build_threshold_table(
    network: TransportNetwork, behavior: BehavioralModel
) -> ThresholdTable:
    return _waterfill(network, behavior)[1]


def waterfill_allocate(
    network: TransportNetwork, behavior: BehavioralModel
) -> WaterfillTrace:
    """Sequential water-filling over a complete network.

    Aggregates treat all sources as one super source of capacity
    sum q_y; the edge-level plan is then recovered by letting each source
    fill the running water profile in listed order until its own budget
    is spent.
    """
    ordered, table, breakpoints = _waterfill(network, behavior)
    budgets = np.cumsum([s.supply_upper for s in network.sources])
    profiles = _water_profiles(ordered, behavior.gamma, budgets)
    columns = np.maximum(np.diff(profiles, axis=1, prepend=0.0), 0.0).T.tolist()
    # cumsum adds in total_supply()'s order, so the last budget is bit-equal
    # to it and the last profile is the full-budget one
    return WaterfillTrace(
        activation_order=tuple(t.id for t in ordered),
        breakpoints=tuple(breakpoints.tolist()),
        final_aggregates={t.id: agg for t, agg in zip(ordered, profiles[:, -1].tolist())},
        per_source_plan=AllocationPlan(
            {
                (t.id, s.id): amount
                for s, column in zip(network.sources, columns)
                for t, amount in zip(ordered, column)
            }
        ),
        thresholds=table,
    )


def active_target_count(
    network: TransportNetwork, behavior: BehavioralModel
) -> int:
    """Number of targets funded at the optimum: those whose activation
    breakpoint lies strictly below the total budget."""
    return int((_waterfill(network, behavior)[2] < network.total_supply()).sum())


def gamma_sensitivity(
    i: TargetSpec, j: TargetSpec, behavior: BehavioralModel
) -> float:
    """Analytical derivative of the pairwise threshold with respect to
    the misperception parameter, by implicit differentiation of the
    defining marginal equality in log form.

    Requires p(0) < 1/e at both targets and a threshold within the float
    range; the derivative is then strictly negative, so a more behavioral
    planner activates lower-valued targets later.
    """
    for t in (i, j):
        if not t.prob_model.neg_log_probability(0.0) > 1.0:
            raise PreconditionError(
                f"gamma sensitivity requires p(0) < 1/e at target {t.id}"
            )
    pi_star = threshold(i, j, behavior)  # also validates U_i > U_j
    if pi_star == math.inf:
        raise PreconditionError(
            f"gamma sensitivity requires a finite threshold of {i.id} against {j.id}"
        )
    gamma = behavior.gamma

    big_l = i.prob_model.neg_log_probability(pi_star)
    l_j0 = j.prob_model.neg_log_probability(0.0)
    numerator = (big_l**gamma - 1.0) * math.log(big_l) - (l_j0**gamma - 1.0) * math.log(l_j0)
    # d/dpi of log(-marginal_i) at the threshold: psi'(L) dL/dt, dL/dt = exp(k L)
    dl_dt = math.exp(i.prob_model.log_rate_slope * big_l)
    return float(numerator / (psi_slope(big_l, gamma, i.prob_model.log_rate_slope) * dl_dt))
