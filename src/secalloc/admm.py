"""Distributed consensus solver for the weighted planning problem.

Each target and each source is an agent that only ever sees its own
parameters plus, per incident edge, the current consensus amount and a
disagreement price (the dual). Per round, every agent solves a small
penalized local subproblem and mails its per-edge proposal to the bus;
the bus averages target and source proposals into a new consensus value,
reprices disagreement, and broadcasts the pair back. At convergence the
two sides agree and the consensus plan solves the centralized problem.

Rounds are synchronous (Jacobi style): all agents solve against the
round-k state, then one barrier applies the consensus and dual updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

from .centralized import _bounds, _check_op_b_feasible, _make_objective, _make_projector
from .centralized import _report, project_box_sum
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
    agent: TargetAgent,
    duals: Mapping[Edge, float],
    consensus: Mapping[Edge, float],
    eta: float,
) -> Dict[Edge, float]:
    """Minimize  U w(p(sum v)) + sum alpha v + (eta/2) sum (v - pi)^2  over
    the target's own bound set. Strictly convex; solved exactly.

    The optimum is  v = max(b - g'(S)/eta, 0)  with  b = pi - alpha/eta,
    g' the marginal perceived cost and S = sum v, so only the scalar S is
    unknown. It is the root of F(S) = S - sum max(b - g'(S)/eta, 0), which
    is increasing and concave: -g' = U exp(psi(L(S))) is convex in S. So
    Newton's method from the agent's own last total lands at or left of the
    root in one step (clamped at 0) and then rises to it, never probing
    past the larger of the start and the root. Outside the demand bounds
    the optimum sits on S clamped to them, where the perceived cost is
    constant: the projection of b onto {v >= 0, sum v = bound}.
    """
    spec = agent.spec
    behavior = agent.behavior
    model = spec.prob_model
    gamma, k = behavior.gamma, model.log_rate_slope
    b = [consensus[e] - duals[e] / eta for e in agent.edges]

    def newton(total: float) -> Tuple[float, float]:
        # the shift g'(S)/eta at S and the Newton step -F(S)/F'(S), with
        # F' = 1 + n_active g''(S)/eta and g'' = g' psi_slope(L) exp(k L)
        marginal = marginal_perceived_cost(spec, behavior, total)
        shift = marginal / eta
        active = [x - shift for x in b if x > shift]
        big_l = model.neg_log_probability(total)
        curvature = marginal * psi_slope(big_l, gamma, k) * math.exp(k * big_l)
        return shift, (sum(active) - total) / (1.0 + len(active) * curvature / eta)

    total = sum(agent.local_plan.values())
    shift, step = newton(total)
    if abs(step) > _ROOT_RTOL * max(total, -shift):
        for _ in range(_MAX_ROOT_STEPS):
            total = max(total + step, 0.0)
            shift, step = newton(total)
            # past the first step the iterates only rise; a step that does
            # not, by more than the root-find's tolerance, ends the search
            if step <= _ROOT_RTOL * max(total, -shift):
                break
    bound = min(max(total, spec.demand_lower), spec.demand_upper)
    if bound != total:
        v = project_box_sum(np.array(b), bound, bound)
    else:
        v = [max(x - shift, 0.0) for x in b]
    return {e: float(val) for e, val in zip(agent.edges, v)}


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
        # consensus_update and dual_update in one constructor call: same
        # expressions, so the same bytes
        t, s = target_props[e], source_props[e]
        updated[e] = EdgeState(
            consensus=0.5 * (t + s),
            dual=state.dual + 0.5 * eta * (t - s),
            last_target_proposal=t,
            last_source_proposal=s,
        )
    for agent in agent_list:
        for e in agent.edges:
            agent.receive(e, updated[e].consensus, updated[e].dual)
    return updated


def _initial_consensus(network: TransportNetwork) -> np.ndarray:
    # zero unless some lower bound forces a head start (uniform split)
    sources, targets = _bounds(network, "op_b")
    seed = np.empty(len(network.edges))
    for positions, lower, _ in targets:
        seed[positions] = (lower / positions.shape[1])[:, None]
    for positions, lower, _ in sources:
        seed[positions] = np.maximum(seed[positions], (lower / positions.shape[1])[:, None])
    return seed


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

    Terminates when the worst per-edge disagreement |pi^t - pi^s| (the
    primal residual) falls below ``primal_tolerance`` and eta times the
    worst per-edge consensus move (the dual residual, Boyd et al. 2011,
    section 3.3) below ``dual_tolerance``. The penalty starts at
    ``config.eta``; in the first ``_BALANCE_ROUNDS`` rounds it doubles
    while the primal residual exceeds ``_BALANCE_RATIO`` times the dual
    residual and halves in the opposite case (section 3.4.1), and then
    stays fixed. A starting penalty far below the problem's scale sends the
    iterates out of the float range: the round where an agent's solve
    raises DomainError, or where the consensus is not finite, raises
    ConvergenceError.
    """
    _check_op_b_feasible(network)
    agents: List[Union[TargetAgent, SourceAgent]] = [
        *(TargetAgent(t, behavior, network.edges_of_target(t.id)) for t in network.targets),
        *(SourceAgent(s, network.edges_of_source(s.id)) for s in network.sources),
    ]

    index = network.edge_index
    consensus = _initial_consensus(network)
    # a network infeasible at one node passes the aggregate check, but its
    # projection never settles and raises InfeasibleError
    project = _make_projector(network, "op_b")
    project(consensus)
    edge_states = {
        e: EdgeState(consensus=float(c)) for e, c in zip(index.edges, consensus)
    }
    for agent in agents:
        for e in agent.edges:
            agent.receive(e, edge_states[e].consensus, edge_states[e].dual)

    objective, _ = _make_objective(network, behavior, "op_b")
    eta = config.eta
    trace: List[TraceRecord] = []
    for iteration in range(1, config.max_iterations + 1):
        try:
            for agent in agents:
                agent.solve(eta)
        except DomainError as exc:
            raise _out_of_range(iteration, eta, str(exc), trace) from exc
        previous = consensus
        edge_states = message_bus_round(agents, edge_states, eta)
        consensus = np.array([edge_states[e].consensus for e in index.edges])
        if not np.isfinite(consensus).all():
            raise _out_of_range(iteration, eta, "the consensus is not finite", trace)

        primal = max(
            abs(s.last_target_proposal - s.last_source_proposal)
            for s in edge_states.values()
        )
        drift = float(np.abs(consensus - previous).max())
        trace.append(TraceRecord(iteration, primal, objective(consensus)))
        if primal <= config.primal_tolerance and eta * drift <= config.dual_tolerance:
            # the consensus meets each bound only to within the tolerances
            return _report(network, behavior, project(consensus), iteration, trace)
        if iteration <= _BALANCE_ROUNDS:
            # the duals are prices, not scaled by eta, so they carry over
            if primal > _BALANCE_RATIO * eta * drift:
                eta *= 2.0
            elif eta * drift > _BALANCE_RATIO * primal:
                eta *= 0.5
    raise ConvergenceError(
        f"consensus not reached in {config.max_iterations} iterations",
        trace=trace,
    )
