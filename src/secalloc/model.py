"""Domain types and the mathematical kernel.

The planner distributes security resources over a bipartite network of
sources (resource owners) and targets (assets). Each target x carries a
loss value U_x and an attack-success probability p_x that decays with the
total resources it receives. A behavioral planner evaluates probabilities
through a weighting function w, so the objective it actually minimizes is
the *perceived* loss  sum_x U_x * w(p_x(.))  rather than the expected loss
sum_x U_x * p_x(.).

Every type is immutable after construction and every operation is a pure
function of its inputs, so concurrent evaluation needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from .errors import DomainError, PlanMismatchError

__all__ = [
    "AttackProbabilityModel",
    "BehavioralModel",
    "TargetSpec",
    "SourceSpec",
    "TransportNetwork",
    "AllocationPlan",
    "TraceRecord",
    "SolveReport",
    "prelec_weight",
    "attack_probability",
    "true_loss",
    "perceived_loss",
    "marginal_perceived_cost",
]


def prelec_weight(p: float, gamma: float) -> float:
    """Probability weighting  w(p) = exp(-(-log p)^gamma).

    gamma in (0, 1] controls the distortion: gamma = 1 is the identity,
    smaller gamma overweights small probabilities and underweights large
    ones. The fixed point is p = 1/e. Extended by continuity at the
    endpoints: w(0) = 0, w(1) = 1.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if gamma == 1.0:
        return p
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return math.exp(-((-math.log(p)) ** gamma))


@dataclass(frozen=True)
class AttackProbabilityModel:
    """Attack-success probability as a function of total received resources.

    Two families are shipped, both strictly decreasing and log-convex:

    * ``exponential``: p(t) = exp(-t - r), baseline r > 0
    * ``reciprocal``:  p(t) = 1 / (t + r), baseline r > 1

    The baseline r plays the role of security investment already in place
    before any transport happens.
    """

    family: str
    baseline: float

    def __post_init__(self) -> None:
        if self.family == "exponential":
            if not self.baseline > 0:
                raise DomainError(
                    f"exponential baseline must be > 0, got {self.baseline}"
                )
        elif self.family == "reciprocal":
            if not self.baseline > 1:
                raise DomainError(
                    f"reciprocal baseline must be > 1, got {self.baseline}"
                )
        else:
            raise DomainError(f"unknown probability family {self.family!r}")

    @classmethod
    def exponential(cls, baseline: float) -> "AttackProbabilityModel":
        return cls("exponential", baseline)

    @classmethod
    def reciprocal(cls, baseline: float) -> "AttackProbabilityModel":
        return cls("reciprocal", baseline)

    def probability(self, total_received: float) -> float:
        if total_received < 0:
            raise DomainError(f"total_received must be >= 0, got {total_received}")
        if self.family == "exponential":
            return math.exp(-total_received - self.baseline)
        return 1.0 / (total_received + self.baseline)

    def derivative(self, total_received: float) -> float:
        """dp/dt, always negative."""
        if total_received < 0:
            raise DomainError(f"total_received must be >= 0, got {total_received}")
        if self.family == "exponential":
            return -math.exp(-total_received - self.baseline)
        return -1.0 / (total_received + self.baseline) ** 2

    def second_derivative(self, total_received: float) -> float:
        """d2p/dt2, always positive (both families are convex in t)."""
        if total_received < 0:
            raise DomainError(f"total_received must be >= 0, got {total_received}")
        if self.family == "exponential":
            return math.exp(-total_received - self.baseline)
        return 2.0 / (total_received + self.baseline) ** 3

    def log_derivative(self, total_received: float) -> float:
        """(dp/dt) / p, computed in family-exact form to avoid cancellation."""
        if total_received < 0:
            raise DomainError(f"total_received must be >= 0, got {total_received}")
        if self.family == "exponential":
            return -1.0
        return -1.0 / (total_received + self.baseline)


def attack_probability(model: AttackProbabilityModel, total_received: float) -> float:
    """Evaluate p(total_received) for the given model; value in (0, 1)."""
    return model.probability(total_received)


@dataclass(frozen=True)
class BehavioralModel:
    """Degree of probability misperception; gamma = 1 means none."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class TargetSpec:
    """A target node: loss value, probability model, received-amount bounds."""

    id: str
    loss_value: float
    prob_model: AttackProbabilityModel
    demand_lower: float = 0.0
    demand_upper: float = math.inf

    def __post_init__(self) -> None:
        if not self.loss_value > 0:
            raise DomainError(f"target {self.id}: loss_value must be > 0")
        if not 0.0 <= self.demand_lower <= self.demand_upper:
            raise DomainError(
                f"target {self.id}: need 0 <= demand_lower <= demand_upper"
            )


@dataclass(frozen=True)
class SourceSpec:
    """A source node: supply bounds, utility weight, per-edge utility slopes.

    The source's utility for shipping an amount pi over edge (x, y) is
    linear, c_xy * pi; slopes default to 1.0 for edges absent from
    ``utility_coeffs``.
    """

    id: str
    supply_upper: float
    supply_lower: float = 0.0
    weight_tau: float = 0.0
    utility_coeffs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.supply_upper > 0:
            raise DomainError(f"source {self.id}: supply_upper must be > 0")
        if not math.isfinite(self.supply_upper):
            raise DomainError(f"source {self.id}: supply_upper must be finite")
        if not 0.0 <= self.supply_lower <= self.supply_upper:
            raise DomainError(
                f"source {self.id}: need 0 <= supply_lower <= supply_upper"
            )
        if self.weight_tau < 0:
            raise DomainError(f"source {self.id}: weight_tau must be >= 0")

    def utility_slope(self, target_id: str) -> float:
        return self.utility_coeffs.get(target_id, 1.0)


@dataclass(frozen=True)
class TransportNetwork:
    """Bipartite transport network: targets, sources, and feasible edges.

    Edges are (target_id, source_id) pairs, stored in canonical order
    (the targets' listed order, then the sources' listed order). Every
    node must be incident to at least one edge.
    """

    targets: Tuple[TargetSpec, ...]
    sources: Tuple[SourceSpec, ...]
    edges: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        target_ids = [t.id for t in self.targets]
        source_ids = [s.id for s in self.sources]
        if len(set(target_ids)) != len(target_ids):
            raise DomainError("duplicate target ids")
        if len(set(source_ids)) != len(source_ids):
            raise DomainError("duplicate source ids")
        tset, sset = set(target_ids), set(source_ids)
        seen = set()
        for edge in self.edges:
            x, y = edge
            if x not in tset:
                raise DomainError(f"edge {edge} references unknown target {x!r}")
            if y not in sset:
                raise DomainError(f"edge {edge} references unknown source {y!r}")
            if edge in seen:
                raise DomainError(f"duplicate edge {edge}")
            seen.add(edge)
        for x in target_ids:
            if not any(e[0] == x for e in self.edges):
                raise DomainError(f"target {x!r} has no incident edge")
        for y in source_ids:
            if not any(e[1] == y for e in self.edges):
                raise DomainError(f"source {y!r} has no incident edge")
        # re-store edges in canonical (target-major) order
        tpos = {x: i for i, x in enumerate(target_ids)}
        spos = {y: i for i, y in enumerate(source_ids)}
        ordered = tuple(sorted(self.edges, key=lambda e: (tpos[e[0]], spos[e[1]])))
        object.__setattr__(self, "edges", ordered)

    @classmethod
    def complete(
        cls, targets: Tuple[TargetSpec, ...], sources: Tuple[SourceSpec, ...]
    ) -> "TransportNetwork":
        edges = tuple((t.id, s.id) for t in targets for s in sources)
        return cls(tuple(targets), tuple(sources), edges)

    def target_by_id(self, target_id: str) -> TargetSpec:
        for t in self.targets:
            if t.id == target_id:
                return t
        raise KeyError(target_id)

    def source_by_id(self, source_id: str) -> SourceSpec:
        for s in self.sources:
            if s.id == source_id:
                return s
        raise KeyError(source_id)

    def edges_of_target(self, target_id: str) -> Tuple[Tuple[str, str], ...]:
        return tuple(e for e in self.edges if e[0] == target_id)

    def edges_of_source(self, source_id: str) -> Tuple[Tuple[str, str], ...]:
        return tuple(e for e in self.edges if e[1] == source_id)

    def total_supply(self) -> float:
        return sum(s.supply_upper for s in self.sources)


@dataclass(frozen=True)
class AllocationPlan:
    """Edge-indexed transport amounts pi_xy.

    Feasible plans are nonnegative; raw pre-projection iterates may carry
    negative entries, so nonnegativity is enforced by the solvers rather
    than here.
    """

    amounts: Mapping[Tuple[str, str], float]

    def __post_init__(self) -> None:
        for edge, value in self.amounts.items():
            if not math.isfinite(value):
                raise DomainError(f"amount on edge {edge} is not finite")

    def aggregate_at_target(self, target_id: str) -> float:
        return sum(v for (x, _), v in self.amounts.items() if x == target_id)

    def aggregate_at_source(self, source_id: str) -> float:
        return sum(v for (_, y), v in self.amounts.items() if y == source_id)

    @classmethod
    def zero(cls, network: TransportNetwork) -> "AllocationPlan":
        return cls({e: 0.0 for e in network.edges})


@dataclass(frozen=True)
class TraceRecord:
    """One per-iteration solver record."""

    iteration: int
    primal_residual: float
    objective: float
    perceived_loss: Optional[float] = None


@dataclass(frozen=True)
class SolveReport:
    """Result of a solve: the plan plus objective values and the trace."""

    plan: AllocationPlan
    true_loss: float
    perceived_loss: float
    source_utility: float
    iterations: int
    residual_trace: Tuple[TraceRecord, ...]
    converged: bool


def _check_plan(network: TransportNetwork, plan: AllocationPlan) -> None:
    if set(plan.amounts) != set(network.edges):
        raise PlanMismatchError("plan edges differ from network edges")


def true_loss(network: TransportNetwork, plan: AllocationPlan) -> float:
    """Expected aggregated loss  sum_x U_x * p_x(total at x)."""
    _check_plan(network, plan)
    return sum(
        t.loss_value * t.prob_model.probability(plan.aggregate_at_target(t.id))
        for t in network.targets
    )


def perceived_loss(
    network: TransportNetwork, plan: AllocationPlan, behavior: BehavioralModel
) -> float:
    """Perceived aggregated loss  sum_x U_x * w(p_x(total at x)).

    Coincides with :func:`true_loss` when gamma = 1.
    """
    _check_plan(network, plan)
    return sum(
        t.loss_value
        * prelec_weight(
            t.prob_model.probability(plan.aggregate_at_target(t.id)), behavior.gamma
        )
        for t in network.targets
    )


def marginal_perceived_cost(
    target: TargetSpec, behavior: BehavioralModel, total_received: float
) -> float:
    """Derivative of U * w(p(t)) with respect to the total received t.

    Closed form  U * gamma * (-log p)^(gamma-1) * (p'/p) * w(p).  Always
    negative, strictly increasing in t, and tending to 0 as t grows:
    additional resources always help, but less and less.

    Raises DomainError when p(t) lands exactly on 0 or 1, where the
    (-log p)^(gamma-1) factor is undefined; the shipped probability
    families stay strictly inside (0, 1) for all finite t.
    """
    gamma = behavior.gamma
    p = target.prob_model.probability(total_received)
    if p <= 0.0 or p >= 1.0:
        raise DomainError(
            f"marginal undefined at p={p} (total_received={total_received})"
        )
    neg_log_p = -math.log(p)
    weight = prelec_weight(p, gamma)
    return (
        target.loss_value
        * gamma
        * neg_log_p ** (gamma - 1.0)
        * target.prob_model.log_derivative(total_received)
        * weight
    )
