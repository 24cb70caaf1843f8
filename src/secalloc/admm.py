"""Distributed consensus solver for the weighted planning problem.

Each target and each source is an agent that only ever sees its own
parameters plus, per incident edge, the current consensus amount and a
disagreement price (the dual). Per round, every agent solves a small
penalized local subproblem and mails its per-edge proposal to the bus;
the bus averages target and source proposals into a new consensus value,
reprices disagreement, and broadcasts the pair back. At convergence the
two sides agree and the consensus plan solves the centralized problem.

The bus over-relaxes each round (Boyd et al. 2011, section 3.4.3; Eckstein
& Bertsekas 1992): before averaging, it pulls each proposal toward the
edge's previous consensus c by the factor a = _RELAXATION, t' = a t +
(1 - a) c and s' = a s + (1 - a) c. So the new consensus is a times the
mean of the proposals plus (1 - a) c, and the dual moves by (eta/2) a
(t - s). The primal residual stays the raw gap |t - s|.

Rounds are synchronous (Jacobi style): all agents solve against the
round-k state, then one barrier applies the consensus and dual updates.
The agents and ``message_bus_round`` are that protocol. ``run_admm`` runs
its rounds on edge-ordered arrays, with no agent or mapping per round: each
target runs the agents' Newton kernel on its slice of one vector b from its
last total, and all sources at once on the op_b projector's shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

from .centralized import _bounds, _finite, _make_projector, _report, _shifts
from .centralized import project_box_sum
from .errors import ConvergenceError, DomainError, MissingMessageError
from .model import (
    BehavioralModel,
    SolveReport,
    SourceSpec,
    TargetSpec,
    TraceRecord,
    TransportNetwork,
    _MAX_ROOT_STEPS,
    check_fields,
    marginal_perceived_cost,
    psi_slope,
    # kept importable: bench/tracing.py wraps these names here
    perceived_loss,  # noqa: F401
    prelec_weight,  # noqa: F401
    true_loss,  # noqa: F401
)

__all__ = [
    "AdmmConfig",
    "EdgeState",
    "TargetAgent",
    "SourceAgent",
    "target_subproblem",
    "source_subproblem",
    "consensus_update",
    "dual_update",
    "message_bus_round",
    "run_admm",
]

Edge = Tuple[str, str]

# run_admm doubles or halves eta while one residual exceeds the other by
# _BALANCE_RATIO, only in the first _BALANCE_ROUNDS rounds: a penalty that
# stops changing keeps ADMM's convergence guarantee (He, Yang & Wang 2000)
_BALANCE_ROUNDS = 400
_BALANCE_RATIO = 10.0

# the bus over-relaxes each proposal by this factor toward the previous
# consensus; 1.5 takes a third fewer rounds than plain averaging (1.0)
_RELAXATION = 1.5

# the most consensus floats run_admm holds for its batched trace objective
_TRACE_BATCH = 1 << 20

# Newton stops on a step below this fraction of max(S, |shift|), F's scale
_ROOT_RTOL = 1e-15


@dataclass(frozen=True)
class AdmmConfig:
    eta: float = 1.0  # the starting penalty; run_admm balances it
    max_iterations: int = 5000
    primal_tolerance: float = 1e-6
    dual_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        check_fields("AdmmConfig", self)


@dataclass(frozen=True)
class EdgeState:
    """Per-edge negotiation state held by the bus."""

    consensus: float = 0.0
    dual: float = 0.0
    last_target_proposal: float = 0.0
    last_source_proposal: float = 0.0


def consensus_update(edge: EdgeState) -> EdgeState:
    """New consensus: arithmetic mean of the two proposals."""
    return replace(
        edge,
        consensus=0.5 * (edge.last_target_proposal + edge.last_source_proposal),
    )


def dual_update(edge: EdgeState, eta: float) -> EdgeState:
    """Reprice disagreement: dual moves by (eta/2)(target - source)."""
    return replace(
        edge,
        dual=edge.dual
        + 0.5 * eta * (edge.last_target_proposal - edge.last_source_proposal),
    )


def _relax(proposals, consensus):
    """Each proposal pulled toward the previous consensus, a p + (1 - a) c:
    per edge on the bus, and on edge arrays in run_admm."""
    pull = (1.0 - _RELAXATION) * consensus
    return [_RELAXATION * proposal + pull for proposal in proposals]


class _Agent:
    """One node's agent: its own spec and edges, the (consensus, dual) pair
    last received on each edge, and its latest per-edge proposal."""

    def __init__(self, spec: Union[TargetSpec, SourceSpec], edges: Tuple[Edge, ...]):
        self.spec = spec
        self.edges = edges
        self.mailbox: Dict[Edge, Tuple[float, float]] = {
            e: (0.0, 0.0) for e in edges
        }
        self.local_plan: Dict[Edge, float] = {e: 0.0 for e in edges}

    def receive(self, edge: Edge, consensus: float, dual: float) -> None:
        self.mailbox[edge] = (consensus, dual)

    def _inbox(self) -> Tuple[Dict[Edge, float], Dict[Edge, float]]:
        """The duals and the consensus amounts of the agent's edges."""
        duals = {e: self.mailbox[e][1] for e in self.edges}
        consensus = {e: self.mailbox[e][0] for e in self.edges}
        return duals, consensus

    def propose(self) -> Mapping[Edge, float]:
        return dict(self.local_plan)


class TargetAgent(_Agent):
    """Target-side agent; sees only its own spec and the weighting model."""

    def __init__(
        self,
        spec: TargetSpec,
        behavior: BehavioralModel,
        edges: Tuple[Edge, ...],
    ):
        super().__init__(spec, edges)
        self.behavior = behavior

    def solve(self, eta: float) -> None:
        self.local_plan = target_subproblem(self, *self._inbox(), eta)


class SourceAgent(_Agent):
    """Source-side agent; sees only its own spec."""

    def solve(self, eta: float) -> None:
        self.local_plan = source_subproblem(self, *self._inbox(), eta)


def target_subproblem(
    agent: TargetAgent, duals: Mapping[Edge, float], consensus: Mapping[Edge, float], eta: float
) -> Dict[Edge, float]:
    """Minimize  U w(p(sum v)) + sum alpha v + (eta/2) sum (v - pi)^2  on its bounds."""
    b = [consensus[e] - duals[e] / eta for e in agent.edges]
    amounts = _target_newton(agent.spec, agent.behavior, b, sum(agent.local_plan.values()), eta)
    return dict(zip(agent.edges, amounts))


def _target_newton(
    spec: TargetSpec, behavior: BehavioralModel, b: List[float], start_total: float, eta: float
) -> List[float]:
    """A target's optimum  v = max(b - g'(S)/eta, 0),  b = pi - alpha/eta and
    g' the marginal perceived cost, at the root S of F(S) = S - sum v(S),
    which is increasing and concave: -g' = U exp(psi(L(S))) is convex in S.
    So Newton's method from start_total, the target's last total, lands at
    or left of the root in one step (clamped at 0) and then rises to it,
    never probing past the larger of the start and the root. Outside the
    demand bounds S is clamped to them, where the perceived cost is
    constant: v is the projection of b onto {v >= 0, sum v = bound}."""
    model = spec.prob_model
    gamma, k, baseline = behavior.gamma, model.log_rate_slope, model.baseline
    total, steps = start_total, 0
    while True:
        # the shift g'(S)/eta at S and the Newton step -F(S)/F'(S), with
        # F' = 1 + n_active g''(S)/eta and g'' = g' psi_slope(L) exp(k L);
        # L is model.neg_log_probability(total), and exp(k L) is 1 at k = 0
        marginal = marginal_perceived_cost(spec, behavior, total)
        shift = marginal / eta
        active = [x - shift for x in b if x > shift]
        big_l = math.log(total + baseline) if k else total + baseline
        curvature = marginal * psi_slope(big_l, gamma, k)
        if k:
            curvature *= math.exp(k * big_l)
        step = (sum(active) - total) / (1.0 + len(active) * curvature / eta)
        tolerance = _ROOT_RTOL * max(total, -shift)
        # the first step goes either way, and one that is nan ends the search;
        # past it the iterates only rise, and a step that does not, by more
        # than the tolerance, ends it
        if steps == _MAX_ROOT_STEPS or (step <= tolerance if steps else not abs(step) > tolerance):
            break
        total, steps = max(total + step, 0.0), steps + 1
    bound = min(max(total, spec.demand_lower), spec.demand_upper)
    if bound != total:
        return project_box_sum(np.array(b), bound, bound).tolist()
    return [max(x - shift, 0.0) for x in b]


def source_subproblem(
    agent: SourceAgent,
    duals: Mapping[Edge, float],
    consensus: Mapping[Edge, float],
    eta: float,
) -> Dict[Edge, float]:
    """Minimize  -sum (tau c + alpha) v + (eta/2) sum (pi - v)^2  over the
    source's own bound set. With linear utilities this is exactly the
    projection of  pi + (tau c + alpha)/eta  onto that set."""
    spec = agent.spec
    edges = agent.edges
    shifted = np.array(
        [
            consensus[e]
            + (spec.weight_tau * spec.utility_slope(e[0]) + duals[e]) / eta
            for e in edges
        ]
    )
    v = project_box_sum(shifted, spec.supply_lower, spec.supply_upper)
    return {e: float(val) for e, val in zip(edges, v)}


def message_bus_round(
    agents: Iterable[Union[TargetAgent, SourceAgent]],
    edge_states: Mapping[Edge, EdgeState],
    eta: float,
) -> Dict[Edge, EdgeState]:
    """Deliver one round of proposals, update every edge, broadcast back.

    Each edge must receive exactly one target-side and one source-side
    proposal; anything missing raises, nothing is silently skipped. The
    result does not depend on the order in which agents are listed.

    The proposals t and s are over-relaxed toward the edge's consensus c,
    t' = a t + (1 - a) c and s' = a s + (1 - a) c with a = _RELAXATION,
    before ``consensus_update`` averages them and ``dual_update`` reprices
    their gap: the consensus becomes a (t + s)/2 + (1 - a) c and the dual
    moves by (eta/2) a (t - s). The returned states hold the raw t and s.
    """
    target_props: Dict[Edge, float] = {}
    source_props: Dict[Edge, float] = {}
    agent_list = list(agents)
    for agent in agent_list:
        proposals = agent.propose()
        box = target_props if isinstance(agent, TargetAgent) else source_props
        for e in agent.edges:
            if e not in proposals:
                raise MissingMessageError(
                    f"agent {agent.spec.id} did not propose for edge {e}"
                )
            if e not in edge_states:
                raise MissingMessageError(f"proposal for unknown edge {e}")
            if e in box:
                raise MissingMessageError(f"duplicate proposal for edge {e}")
            box[e] = proposals[e]
    updated: Dict[Edge, EdgeState] = {}
    for e, state in edge_states.items():
        if e not in target_props or e not in source_props:
            raise MissingMessageError(f"edge {e} missing a proposal this round")
        target, source, c = target_props[e], source_props[e], state.consensus
        relaxed = EdgeState(c, state.dual, *_relax((target, source), c))
        updated[e] = replace(
            dual_update(consensus_update(relaxed), eta),
            last_target_proposal=target,
            last_source_proposal=source,
        )
    for agent in agent_list:
        for e in agent.edges:
            agent.receive(e, updated[e].consensus, updated[e].dual)
    return updated


def _initial_consensus(network: TransportNetwork) -> np.ndarray:
    # zero unless some lower bound forces a head start (uniform split)
    sources, targets = _bounds(network, "op_b")
    seed = np.zeros(len(network.edges))
    for positions, lower, _ in targets + sources:
        seed[positions] = np.maximum(seed[positions], (lower / positions.shape[1])[:, None])
    return seed


def _trace_records(index, gamma: float, rounds) -> List[TraceRecord]:
    """The trace records of (iteration, primal, consensus) rounds, with
    _make_objective's op_b objective at each consensus bit for bit: each
    round sums through ``index.totals``, and one ``loss_at_l`` scores all.
    The over-relaxed consensus can put a total below its family's domain,
    where L < 0 or log(t + r) is undefined; such a target is scored at p = 1."""
    if not rounds:
        return []
    x = np.array([consensus for _, _, consensus in rounds])
    totals = np.array([index.totals(consensus) for consensus in x])
    with np.errstate(invalid="ignore", divide="ignore"):
        big_l = np.fmax(index.neg_log_p(totals), 0.0)
    objectives = index.loss_at_l(big_l, gamma) - np.vecdot(x, index.tau_c)
    return [
        TraceRecord(iteration, primal, objective)
        for (iteration, primal, _), objective in zip(rounds, objectives.tolist())
    ]


def _out_of_range(iteration: int, eta: float, why: str, trace) -> ConvergenceError:
    """The error that ends a run whose iterates left the float range: at a
    tiny penalty, alpha / eta overflows or a target's total runs to where
    its marginal underflows."""
    return ConvergenceError(
        f"round {iteration} at eta {eta:g} left the float range ({why})", trace=trace
    )


def run_admm(
    network: TransportNetwork,
    behavior: BehavioralModel,
    config: AdmmConfig = AdmmConfig(),
) -> SolveReport:
    """Run the four-step consensus iteration until both sides agree.

    The round state is edge-ordered arrays, and no agent or mapping is built
    per round: each target runs the agents' Newton kernel on its slice of
    b = consensus - duals/eta from its last total, bit for bit the protocol.
    Each round over-relaxes the proposals as ``message_bus_round`` does:
    the consensus becomes a times their mean plus (1 - a) times the last
    consensus, a = _RELAXATION, and the duals move by (eta/2) a times
    their gap. Terminates when the worst per-edge raw disagreement
    |pi^t - pi^s| (the primal residual) falls below ``primal_tolerance``
    and eta times the worst per-edge consensus move (the dual residual,
    Boyd et al. 2011, section 3.3) below ``dual_tolerance``. The penalty
    starts at ``config.eta``; in the first ``_BALANCE_ROUNDS`` rounds it doubles
    while the primal residual exceeds ``_BALANCE_RATIO`` times the dual
    residual and halves in the opposite case (section 3.4.1), and then
    stays fixed. A starting penalty far below the problem's scale sends the
    iterates out of the float range: the round where an agent's solve
    raises DomainError, or where the consensus is not finite, raises
    ConvergenceError.
    """
    index = network.edge_index
    # the projector rejects infeasible totals; a network infeasible only at
    # one node passes, but its projection never settles: InfeasibleError
    project = _make_projector(network, "op_b")
    consensus = _initial_consensus(network)
    project(consensus)
    totals = [0.0] * len(network.targets)  # each target's last total: its warm start
    sources = _bounds(network, "op_b")[0]
    duals = np.zeros(len(index.edges))
    source_props = np.empty(len(index.edges))

    eta = config.eta
    # each round's objective enters the trace in one batched evaluation, at
    # the end or when the held consensus arrays reach _TRACE_BATCH floats
    trace: List[TraceRecord] = []
    rounds: List[Tuple[int, float, np.ndarray]] = []  # not yet in the trace

    def traced() -> List[TraceRecord]:
        trace.extend(_trace_records(index, behavior.gamma, rounds))
        rounds.clear()
        return trace

    def points() -> Tuple[List[float], np.ndarray]:
        """The round's b = consensus - duals/eta and its sources' shifted points."""
        return (consensus - duals / eta).tolist(), consensus + (index.tau_c + duals) / eta

    nodes = list(zip(network.targets, index.target_slices))
    # one scope per round: it spans the bus, the penalty update and the next
    # round's points, which leave the float range at a tiny penalty; the
    # solves and the report run outside it
    with np.errstate(over="ignore", invalid="ignore"):
        b, shifted = points()
    for iteration in range(1, config.max_iterations + 1):
        try:
            amounts: List[float] = []
            for k, (spec, edges) in enumerate(nodes):
                # each target solves on its own slice of b, as its agent would
                proposal = _target_newton(spec, behavior, b[edges], totals[k], eta)
                totals[k] = sum(proposal)
                amounts += proposal
            target_props = np.array(amounts)
            # every source's proposal is the projection of its shifted point
            for positions, theta in _shifts(_finite(shifted), sources):
                source_props[positions] = np.maximum(shifted[positions] - theta[:, None], 0.0)
        except DomainError as exc:
            raise _out_of_range(iteration, eta, str(exc), traced()) from exc
        previous, round_eta = consensus, eta
        with np.errstate(over="ignore", invalid="ignore"):
            # the bus's relaxed proposals, averaged and priced as it does
            target, source = _relax((target_props, source_props), previous)
            consensus = 0.5 * (target + source)
            duals = duals + 0.5 * eta * (target - source)
            primal = float(np.maximum.reduce(np.abs(target_props - source_props)))
            drift = float(np.maximum.reduce(np.abs(consensus - previous)))
            # previous is finite, so a finite drift (max propagates nan) has a
            # finite consensus; an infinite one may come from the subtraction
            finite = math.isfinite(drift) or np.logical_and.reduce(np.isfinite(consensus))
            if iteration <= _BALANCE_ROUNDS:
                # the duals are prices, not scaled by eta, so they carry over
                if primal > _BALANCE_RATIO * eta * drift:
                    eta *= 2.0
                elif eta * drift > _BALANCE_RATIO * primal:
                    eta *= 0.5
            b, shifted = points()
        if not finite:
            raise _out_of_range(iteration, round_eta, "the consensus is not finite", traced())
        rounds.append((iteration, primal, consensus))
        if primal <= config.primal_tolerance and round_eta * drift <= config.dual_tolerance:
            # the consensus meets each bound only to within the tolerances
            return _report(network, behavior, project(consensus), iteration, traced())
        if len(rounds) * len(consensus) >= _TRACE_BATCH:
            traced()
    raise ConvergenceError(
        f"consensus not reached in {config.max_iterations} iterations",
        trace=traced(),
    )
