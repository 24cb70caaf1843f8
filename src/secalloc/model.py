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
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, PlanMismatchError

__all__ = [
    "AttackProbabilityModel",
    "BehavioralModel",
    "TargetSpec",
    "SourceSpec",
    "TransportNetwork",
    "EdgeIndex",
    "AllocationPlan",
    "TraceRecord",
    "SolveReport",
    "prelec_weight",
    "attack_probability",
    "true_loss",
    "perceived_loss",
    "loss_at_totals",
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
        if not math.isfinite(self.weight_tau):
            raise DomainError(f"source {self.id}: weight_tau must be finite")
        for target_id, slope in self.utility_coeffs.items():
            if not math.isfinite(slope):
                raise DomainError(
                    f"source {self.id}: utility_coeffs.{target_id} must be finite"
                )

    def utility_slope(self, target_id: str) -> float:
        return self.utility_coeffs.get(target_id, 1.0)


@dataclass(frozen=True)
class TransportNetwork:
    """Bipartite transport network: targets, sources, and feasible edges.

    Edges are (target_id, source_id) pairs, stored in canonical order
    (the targets' listed order, then the sources' listed order). Every
    node must be incident to at least one edge. ``edge_index``, the array
    view of the edges that every solver shares, is built once, here.
    """

    targets: Tuple[TargetSpec, ...]
    sources: Tuple[SourceSpec, ...]
    edges: Tuple[Tuple[str, str], ...]
    edge_index: "EdgeIndex" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tpos = {t.id: i for i, t in enumerate(self.targets)}
        spos = {s.id: i for i, s in enumerate(self.sources)}
        if len(tpos) != len(self.targets):
            raise DomainError("duplicate target ids")
        if len(spos) != len(self.sources):
            raise DomainError("duplicate source ids")
        seen = set()
        for edge in self.edges:
            x, y = edge
            if x not in tpos:
                raise DomainError(f"edge {edge} references unknown target {x!r}")
            if y not in spos:
                raise DomainError(f"edge {edge} references unknown source {y!r}")
            if edge in seen:
                raise DomainError(f"duplicate edge {edge}")
            seen.add(edge)
        # re-store edges in canonical (target-major) order
        ordered = tuple(sorted(self.edges, key=lambda e: (tpos[e[0]], spos[e[1]])))
        object.__setattr__(self, "edges", ordered)
        index = EdgeIndex(self, tpos, spos)
        for t, sl in zip(self.targets, index.target_slices):
            if sl.start == sl.stop:
                raise DomainError(f"target {t.id!r} has no incident edge")
        for s, idx in zip(self.sources, index.source_indices):
            if idx.size == 0:
                raise DomainError(f"source {s.id!r} has no incident edge")
        object.__setattr__(self, "edge_index", index)

    @classmethod
    def complete(
        cls, targets: Tuple[TargetSpec, ...], sources: Tuple[SourceSpec, ...]
    ) -> "TransportNetwork":
        edges = tuple((t.id, s.id) for t in targets for s in sources)
        return cls(tuple(targets), tuple(sources), edges)

    def target_by_id(self, target_id: str) -> TargetSpec:
        return self.targets[self.edge_index.target_pos[target_id]]

    def source_by_id(self, source_id: str) -> SourceSpec:
        return self.sources[self.edge_index.source_pos[source_id]]

    def edges_of_target(self, target_id: str) -> Tuple[Tuple[str, str], ...]:
        index = self.edge_index
        return self.edges[index.target_slices[index.target_pos[target_id]]]

    def edges_of_source(self, source_id: str) -> Tuple[Tuple[str, str], ...]:
        index = self.edge_index
        return tuple(
            self.edges[k] for k in index.source_indices[index.source_pos[source_id]]
        )

    def total_supply(self) -> float:
        return sum(s.supply_upper for s in self.sources)


class EdgeIndex:
    """Array view of a network's canonical edge order.

    Each target's incident edges are one contiguous slice of the
    target-major order; each source gets the array of its edge positions.
    ``tau_c`` holds the per-edge utility weight  tau_y * c_xy.  Built by
    :class:`TransportNetwork`; the arrays are read-only.
    """

    def __init__(
        self,
        network: TransportNetwork,
        target_pos: Dict[str, int],
        source_pos: Dict[str, int],
    ):
        self.edges = network.edges
        self.target_pos = target_pos
        self.source_pos = source_pos
        sizes = [0] * len(network.targets)
        members: List[List[int]] = [[] for _ in network.sources]
        tau_c = np.empty(len(self.edges))
        for k, (x, y) in enumerate(self.edges):
            sizes[target_pos[x]] += 1
            members[source_pos[y]].append(k)
            source = network.sources[source_pos[y]]
            tau_c[k] = source.weight_tau * source.utility_slope(x)
        ends = accumulate(sizes)
        self.target_slices = [slice(end - size, end) for size, end in zip(sizes, ends)]
        self.source_indices = [np.array(m, dtype=int) for m in members]
        for array in (*self.source_indices, tau_c):
            array.flags.writeable = False
        self.tau_c = tau_c

    def target_totals(self, x: np.ndarray) -> List[float]:
        return [float(x[sl].sum()) for sl in self.target_slices]

    def to_plan(self, x: np.ndarray) -> "AllocationPlan":
        return AllocationPlan({e: float(v) for e, v in zip(self.edges, x)})

    def to_vector(self, plan: "AllocationPlan") -> np.ndarray:
        return np.array([plan.amounts[e] for e in self.edges], dtype=float)


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


def _plan_totals(network: TransportNetwork, plan: AllocationPlan) -> List[float]:
    if set(plan.amounts) != set(network.edges):
        raise PlanMismatchError("plan edges differ from network edges")
    index = network.edge_index
    return index.target_totals(index.to_vector(plan))


def loss_at_totals(
    network: TransportNetwork, totals: Sequence[float], gamma: float
) -> float:
    """Weighted loss  sum_x U_x * w(p_x(totals[x]))  over the network's
    targets in listed order; w is the identity at gamma = 1."""
    return sum(
        t.loss_value * prelec_weight(t.prob_model.probability(tot), gamma)
        for t, tot in zip(network.targets, totals)
    )


def true_loss(network: TransportNetwork, plan: AllocationPlan) -> float:
    """Expected aggregated loss  sum_x U_x * p_x(total at x)."""
    return loss_at_totals(network, _plan_totals(network, plan), 1.0)


def perceived_loss(
    network: TransportNetwork, plan: AllocationPlan, behavior: BehavioralModel
) -> float:
    """Perceived aggregated loss  sum_x U_x * w(p_x(total at x)).

    Coincides with :func:`true_loss` when gamma = 1.
    """
    return loss_at_totals(network, _plan_totals(network, plan), behavior.gamma)


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
