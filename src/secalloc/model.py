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

import functools
import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields
from itertools import accumulate
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, get_origin, get_type_hints,
)

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
    "weight_at",
    "psi",
    "psi_slope",
    "attack_probability",
    "true_loss",
    "perceived_loss",
    "marginal_perceived_cost",
    "FIELD_RULES",
    "field_problem",
    "bound_problems",
    "check_fields",
]

# cap on the steps of every Newton solve (waterfill, the ADMM target solve)
_MAX_ROOT_STEPS = 200


_FINITE = (lambda v: not -math.inf < v < math.inf, "must be finite")
_POSITIVE = ((lambda v: not v > 0, "must be > 0"), _FINITE)
_NONNEGATIVE = ((lambda v: v < 0, "must be >= 0"), _FINITE)
_COUNT = ((lambda v: not v >= 1, "must be >= 1"), _FINITE)

# Which values each number from outside the program may take: for every
# field, its reject tests in order, each with the phrase its message prints
# after the field's name. Every number must be finite, except demand_upper,
# which may be +inf. The model's types and the solver configs apply this
# table on construction; scenario files and CLI flags apply it as they read.
FIELD_RULES: Dict[str, Tuple[Tuple[Callable[[object], bool], str], ...]] = {
    "gamma": ((lambda v: not 0.0 < v <= 1.0, "must be in (0, 1]"),),
    "family": (
        (lambda v: v not in ("exponential", "reciprocal"), "must be exponential or reciprocal"),
    ),
    # a baseline's floor depends on its family: see field_problem
    "exponential baseline": ((lambda v: not v > 0, "must be > 0 for exponential"), _FINITE),
    "reciprocal baseline": ((lambda v: not v > 1, "must be > 1 for reciprocal"), _FINITE),
    "loss_value": _POSITIVE,
    "demand_lower": _NONNEGATIVE,
    "demand_upper": ((math.isnan, "must not be nan"),),
    "supply_upper": _POSITIVE,
    "supply_lower": _NONNEGATIVE,
    "weight_tau": _NONNEGATIVE,
    "utility_coeffs": (_FINITE,),
    "mode": ((lambda v: v not in ("op_a", "op_b"), "must be op_a or op_b"),),
    "step_size": _POSITIVE,
    "max_iterations": _COUNT,
    "gradient_tolerance": _POSITIVE,
    "objective_tolerance": _POSITIVE,
    "eta": _POSITIVE,
    "primal_tolerance": _POSITIVE,
    "dual_tolerance": _POSITIVE,
}

# (lower, upper, phrase): bounds of one record that must not cross
_BOUND_PAIRS = (
    ("demand_lower", "demand_upper", "demand_upper must be >= demand_lower"),
    ("supply_lower", "supply_upper", "supply_lower must be <= supply_upper"),
)


def field_problem(name: str, value, family: Optional[str] = None) -> Optional[str]:
    """The phrase of the first rule of ``FIELD_RULES[name]`` that rejects
    ``value``, or None. A ``baseline`` takes the rules of its ``family``,
    and none when the family is unknown (the family's own rule rejects it).
    """
    rules = FIELD_RULES.get(f"{family} baseline", ()) if name == "baseline" else FIELD_RULES[name]
    for rejects, phrase in rules:
        if rejects(value):
            return phrase
    return None


def bound_problems(values: Mapping[str, object]) -> List[str]:
    """The phrase of each pair of bounds in ``values`` that crosses; an
    absent lower bound is 0 and an absent upper bound is unbounded."""
    return [
        phrase
        for lower, upper, phrase in _BOUND_PAIRS
        if values.get(lower, 0.0) > values.get(upper, math.inf)
    ]


@functools.cache
def _schema(cls) -> Tuple[Dict[str, object], Tuple[str, ...], Tuple[Tuple[str, bool], ...]]:
    """The fields of the dataclass ``cls``: each with its annotated type, in
    declaration order; those with no default, which a record requires; and
    (name, is a mapping) of each that FIELD_RULES checks."""
    types = get_type_hints(cls)
    required = tuple(f.name for f in fields(cls) if f.default is f.default_factory is MISSING)
    ruled = [name for name in types if name in FIELD_RULES or name == "baseline"]
    return types, required, tuple((name, get_origin(types[name]) is abc.Mapping) for name in ruled)


def check_fields(owner: str, record) -> None:
    """Raise DomainError, naming ``owner``, at the first field of the
    dataclass ``record`` that ``FIELD_RULES`` rejects, else at the first
    pair of crossed bounds. A mapping field's entries are checked one at a
    time, each named ``field.key``.
    """
    ruled = _schema(type(record))[2]
    values = {name: getattr(record, name) for name, _ in ruled}
    family = values.get("family")
    for name, is_mapping in ruled:
        entries = values[name].items() if is_mapping else ((None, values[name]),)
        for key, value in entries:
            problem = field_problem(name, value, family)
            if problem:
                label = f"{name}.{key}" if is_mapping else name
                raise DomainError(f"{owner}: {label} {problem}, got {value!r}")
    for phrase in bound_problems(values):
        raise DomainError(f"{owner}: {phrase}")


def prelec_weight(p: float, gamma: float) -> float:
    """Probability weighting  w(p) = exp(-(-log p)^gamma), weight_at(-log p).

    gamma in (0, 1] controls the distortion: gamma = 1 is the identity,
    smaller gamma overweights small probabilities and underweights large
    ones. The fixed point is p = 1/e. Extended by continuity at the
    endpoints: w(0) = 0, w(1) = 1.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must be in (0, 1], got {gamma}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    return float(weight_at(-math.log(p), gamma)) if p > 0.0 else 0.0


# The kernel works in L = -log p and never forms p, which underflows at
# large totals; k is the family's log_rate_slope, log(dL/dt) = k L. It takes
# floats or arrays; w and exp(psi) underflow to 0.0 rather than raise.


def weight_at(big_l, gamma: float):
    """Prelec's weight w at L: exp(-L^gamma). A target's perceived loss is U w."""
    return np.exp(-(big_l**gamma))


def psi(big_l, gamma: float, k):
    """log(-marginal / U) = log gamma + (gamma - 1) log L - L^gamma + k L,
    strictly decreasing and convex for L > 0."""
    # math.log is several times faster than np.log on one float
    log_l = math.log(big_l) if isinstance(big_l, float) else np.log(big_l)
    return _psi_at(big_l, log_l, gamma, k)


def _psi_at(big_l, log_l, gamma: float, k):
    """psi at L, given log L."""
    return math.log(gamma) + (gamma - 1.0) * log_l - big_l**gamma + k * big_l


def psi_slope(big_l, gamma: float, k):
    """d psi / dL."""
    return (gamma - 1.0 - gamma * big_l**gamma) / big_l + k


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
        check_fields("prob_model", self)

    @classmethod
    def exponential(cls, baseline: float) -> "AttackProbabilityModel":
        return cls("exponential", baseline)

    @classmethod
    def reciprocal(cls, baseline: float) -> "AttackProbabilityModel":
        return cls("reciprocal", baseline)

    # log space, L = -log p, for callers that must not form p (it underflows
    # at large totals); elementwise on arrays, the sign of t is not checked
    def neg_log_probability(self, total_received):
        """L(t) = -log p(t):  t + r  or  log(t + r)."""
        if self.family == "exponential":
            return total_received + self.baseline
        s = total_received + self.baseline
        return math.log(s) if isinstance(s, float) else np.log(s)

    def amount_at(self, neg_log_p):
        """Inverse of :meth:`neg_log_probability`: the total t with L(t) = L."""
        if self.family == "exponential":
            return neg_log_p - self.baseline
        return np.exp(neg_log_p) - self.baseline

    @property
    def log_rate_slope(self) -> float:
        """k with  log(dL/dt) = k * L:  0 (dL/dt = 1) or -1 (dL/dt = 1/(t + r))."""
        return 0.0 if self.family == "exponential" else -1.0

    # p and its derivatives at one total t >= 0, all from L and k
    def _checked_neg_log(self, total_received: float) -> float:
        if not total_received >= 0:  # nan too
            raise DomainError(f"total_received must be >= 0, got {total_received}")
        return self.neg_log_probability(total_received)

    def probability(self, total_received: float) -> float:
        """p = e^{-L}."""
        return math.exp(-self._checked_neg_log(total_received))

    def derivative(self, total_received: float) -> float:
        """dp/dt = -e^{(k-1)L}, always negative."""
        return -math.exp((self.log_rate_slope - 1.0) * self._checked_neg_log(total_received))

    def second_derivative(self, total_received: float) -> float:
        """d2p/dt2 = (1-k) e^{(2k-1)L}, always positive (p is convex in t)."""
        k = self.log_rate_slope
        return (1.0 - k) * math.exp((2.0 * k - 1.0) * self._checked_neg_log(total_received))

    def log_derivative(self, total_received: float) -> float:
        """(dp/dt) / p = -e^{kL}, with no cancellation."""
        return -math.exp(self.log_rate_slope * self._checked_neg_log(total_received))


def attack_probability(model: AttackProbabilityModel, total_received: float) -> float:
    """Evaluate p(total_received) for the given model; value in (0, 1)."""
    return model.probability(total_received)


@dataclass(frozen=True)
class BehavioralModel:
    """Degree of probability misperception; gamma = 1 means none."""

    gamma: float

    def __post_init__(self) -> None:
        check_fields("behavior", self)


@dataclass(frozen=True)
class TargetSpec:
    """A target node: loss value, probability model, received-amount bounds."""

    id: str
    loss_value: float
    prob_model: AttackProbabilityModel = AttackProbabilityModel.exponential(1.0)
    demand_lower: float = 0.0
    demand_upper: float = math.inf

    def __post_init__(self) -> None:
        check_fields(f"target {self.id}", self)


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
        check_fields(f"source {self.id}", self)

    def utility_slope(self, target_id: str) -> float:
        return self.utility_coeffs.get(target_id, 1.0)


@dataclass(frozen=True)
class TransportNetwork:
    """Bipartite transport network: targets, sources, and feasible edges.

    Edges are (target_id, source_id) pairs, stored in canonical order
    (the targets' listed order, then the sources' listed order). It needs
    at least one target and one source, every node must be incident to
    at least one edge, and the total loss value, the total supply and the
    largest utility a plan within the supplies can reach must be finite.
    ``edge_index``, the array view of the edges that every solver shares,
    is built once, here.
    """

    targets: Tuple[TargetSpec, ...]
    sources: Tuple[SourceSpec, ...]
    edges: Tuple[Tuple[str, str], ...]
    edge_index: "EdgeIndex" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.targets or not self.sources:
            raise DomainError("a network needs at least one target and one source")
        tpos = {t.id: i for i, t in enumerate(self.targets)}
        spos = {s.id: i for i, s in enumerate(self.sources)}
        if len(tpos) != len(self.targets):
            raise DomainError("duplicate target ids")
        if len(spos) != len(self.sources):
            raise DomainError("duplicate source ids")
        seen = set()
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise DomainError(f"edge {edge!r} is not a (target, source) pair")
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
        # FIELD_RULES checks each number alone; their sums and products must
        # stay finite too, or the solvers' totals and objectives overflow.
        # Python floats overflow to inf, not a warning
        if not math.isfinite(sum(index.loss_values.tolist())):
            raise DomainError("the total loss_value overflows")
        supplies = index.supply_upper.tolist()
        if not math.isfinite(sum(supplies)):
            raise DomainError("the total supply_upper overflows")
        reach = sum(q * float(abs(index.tau_c[idx]).max()) for q, idx in zip(supplies, index.source_indices))
        if not math.isfinite(reach):
            raise DomainError("the largest source utility, the sum of supply_upper * "
                              "max |weight_tau * utility_coeffs|, overflows")
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


def _degree_groups(members: Sequence[Sequence[int]]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per edge count, in increasing order: the nodes with that many edges
    and the (nodes, count) array of their edge positions."""
    counts = [len(m) for m in members]
    groups = []
    for count in sorted(set(counts)):
        nodes = [n for n, c in enumerate(counts) if c == count]
        groups.append((np.array(nodes), np.array([list(members[n]) for n in nodes], dtype=int)))
    return groups


class EdgeIndex:
    """Array view of a network's canonical edge order.

    Each target's incident edges are one contiguous slice of the
    target-major order; each source gets the array of its edge positions.
    ``target_groups`` and ``source_groups`` bucket each side by edge count
    (see ``_degree_groups``): a dense row per node sums bit for bit like the
    node's own slice. ``tau_c`` holds the per-edge utility weight
    tau_y * c_xy; ``edge_targets`` each edge's target position. Per
    target, in listed order, ``loss_values`` (and ``neg_loss_values``, -U),
    ``baselines`` and ``log_rate_slopes`` (k; ``logged`` where k != 0) feed
    the kernel, and ``demand_lower``/``demand_upper`` (per source, ``supply_lower``/
    ``supply_upper``) the bounds. Built by :class:`TransportNetwork`; arrays read-only.
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
        self.target_groups = _degree_groups([range(sl.start, sl.stop) for sl in self.target_slices])
        self.source_groups = _degree_groups(members)
        self.tau_c = tau_c
        self.edge_targets = np.repeat(np.arange(len(sizes)), sizes)
        self.loss_values = np.array([t.loss_value for t in network.targets])
        self.neg_loss_values = -self.loss_values
        self.baselines = np.array([t.prob_model.baseline for t in network.targets])
        self.log_rate_slopes = np.array([t.prob_model.log_rate_slope for t in network.targets])
        self.logged = self.log_rate_slopes != 0.0
        self.demand_lower = np.array([t.demand_lower for t in network.targets], dtype=float)
        self.demand_upper = np.array([t.demand_upper for t in network.targets], dtype=float)
        self.supply_lower = np.array([s.supply_lower for s in network.sources], dtype=float)
        self.supply_upper = np.array([s.supply_upper for s in network.sources], dtype=float)
        arrays = [a for a in vars(self).values() if isinstance(a, np.ndarray)]
        groups = self.target_groups + self.source_groups
        for array in (*self.source_indices, *arrays, *(a for g in groups for a in g)):
            array.flags.writeable = False

    def totals(self, x: np.ndarray) -> np.ndarray:
        """Each target's total received amount under the edge vector x."""
        totals = np.empty(len(self.target_slices))
        for nodes, positions in self.target_groups:
            totals[nodes] = np.add.reduce(x[positions], axis=1)
        return totals

    def target_totals(self, x: np.ndarray) -> List[float]:
        return self.totals(x).tolist()

    def neg_log_p(self, totals: np.ndarray) -> np.ndarray:
        """L = -log p at each target's total (see AttackProbabilityModel)."""
        big_l = totals + self.baselines
        return np.log(big_l, out=big_l, where=self.logged)

    def loss_at(self, totals: np.ndarray, gamma: float) -> float:
        """The perceived loss  sum_x U_x w(p_x)  at the targets' totals."""
        return float(self.loss_at_l(self.neg_log_p(totals), gamma))

    def loss_at_l(self, big_l: np.ndarray, gamma: float) -> np.ndarray:
        """The perceived loss at one L vector, or at each row of a stack."""
        return np.vecdot(weight_at(big_l, gamma), self.loss_values)

    def marginals(self, totals: np.ndarray, gamma: float) -> np.ndarray:
        """d(U w(p))/dt of each target at its total, -U exp(psi(L))."""
        return self.marginals_at_l(self.neg_log_p(totals), gamma)

    def marginals_at_l(self, big_l: np.ndarray, gamma: float) -> np.ndarray:
        return self.neg_loss_values * np.exp(psi(big_l, gamma, self.log_rate_slopes))

    def to_plan(self, x: np.ndarray) -> "AllocationPlan":
        return AllocationPlan({e: float(v) for e, v in zip(self.edges, x)})

    def to_vector(self, plan: "AllocationPlan") -> np.ndarray:
        """The plan's amounts in edge order; PlanMismatchError unless it has
        these edges: as many as the network, each of the network's found."""
        amounts = plan.amounts
        if len(amounts) == len(self.edges):
            try:
                return np.array([amounts[e] for e in self.edges], dtype=float)
            except KeyError:
                pass
        raise PlanMismatchError("plan edges differ from network edges")


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


def _checked_totals(network: TransportNetwork, x: np.ndarray) -> np.ndarray:
    """Each target's total under x; DomainError at a negative one, as in the scalar path."""
    totals = network.edge_index.totals(x)
    if (totals < 0).any():
        raise DomainError(f"total_received must be >= 0, got {totals.min()}")
    return totals


def _plan_totals(network: TransportNetwork, plan: AllocationPlan) -> List[float]:
    return _checked_totals(network, network.edge_index.to_vector(plan)).tolist()


def true_loss(network: TransportNetwork, plan: AllocationPlan) -> float:
    """Expected aggregated loss  sum_x U_x * p_x(total at x)."""
    return network.edge_index.loss_at(_plan_totals(network, plan), 1.0)


def perceived_loss(
    network: TransportNetwork, plan: AllocationPlan, behavior: BehavioralModel
) -> float:
    """Perceived aggregated loss  sum_x U_x * w(p_x(total at x)).

    Coincides with :func:`true_loss` when gamma = 1.
    """
    return network.edge_index.loss_at(_plan_totals(network, plan), behavior.gamma)


def marginal_perceived_cost(
    target: TargetSpec, behavior: BehavioralModel, total_received: float
) -> float:
    """Derivative of U * w(p(t)) with respect to the total received t,
    -U exp(psi(L(t))). Always negative, strictly increasing in t, and
    tending to 0 as t grows: additional resources always help, but less
    and less.

    Raises DomainError at a negative total, where the marginal itself
    underflows to 0.0 (p(t) may underflow well before it does), and where
    it overflows (near a subnormal L, as with a baseline of 5e-324). The
    array form, EdgeIndex.marginals, underflows to 0.0 instead.
    """
    if not total_received >= 0:  # nan too
        raise DomainError(f"total_received must be >= 0, got {total_received}")
    # L and k inline, as neg_log_probability and log_rate_slope give them:
    # this runs once per Newton step of every ADMM target solve
    model = target.prob_model
    if model.family == "exponential":
        big_l, k = total_received + model.baseline, 0.0
    else:
        big_l, k = math.log(total_received + model.baseline), -1.0
    try:
        marginal = -target.loss_value * math.exp(_psi_at(big_l, math.log(big_l), behavior.gamma, k))
    except OverflowError:
        marginal = -math.inf
    if not -math.inf < marginal < 0.0:
        problem = "overflows" if marginal else "underflows to 0.0"
        raise DomainError(f"marginal {problem} at total_received={total_received}")
    return marginal
