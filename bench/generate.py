"""Seeded scenario generator for the benchmark.

Every network is drawn from a ``numpy.random.Generator``, so one seed
always yields the same YAML bytes; ``jitter`` then perturbs a network's
values with a second generator. The program under test only ever sees
the written files.

Three topologies are generated:

* ``complete_network``: every source ships to every target, one shared
  exponential probability model and strictly ordered loss values, no
  target caps. These are the inputs the analytical water-filling path
  accepts.
* ``bounded_network``: each target is wired to ``degree`` sources, the
  probability family is drawn per target (exponential or reciprocal),
  target caps sum to ``cap_ratio`` times the total supply and every
  source must ship at least ``floor_share`` of its supply. Caps are split
  in proportion to each target's fair share of the incident supply, so
  the op_b feasible set is never empty.
* ``explicit_network``: a large, nearly complete network written as an
  explicit edge list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from secalloc.scenario_io import ScenarioFile


def _r(value: float, digits: int = 6) -> float:
    return float(round(float(value), digits))


def _gamma(rng: np.random.Generator, lo: float) -> BehavioralModel:
    return BehavioralModel(_r(rng.uniform(lo, 1.0), 4))


def complete_network(
    rng: np.random.Generator, n_targets: int, n_sources: int
) -> ScenarioFile:
    """Complete network, shared exponential model, strictly ordered losses."""
    model = AttackProbabilityModel.exponential(_r(rng.uniform(0.5, 2.0), 4))
    # distinct grid points, so the loss values are strictly ordered
    grid = rng.choice(np.arange(40, 40 + 80 * n_targets), size=n_targets, replace=False)
    losses = sorted((_r(v / 8.0) for v in grid), reverse=True)
    targets = tuple(
        TargetSpec(f"t{k + 1}", loss, model) for k, loss in enumerate(losses)
    )
    budget = rng.uniform(0.5, 1.5) * n_targets
    shares = rng.dirichlet(np.full(n_sources, 4.0))
    sources = tuple(
        SourceSpec(f"s{k + 1}", _r(budget * share + 0.05), 0.0, _r(rng.uniform(0.1, 0.5), 4))
        for k, share in enumerate(shares)
    )
    network = TransportNetwork.complete(targets, sources)
    return ScenarioFile(network, _gamma(rng, 0.3), True, {}, {})


def _prob_model(rng: np.random.Generator) -> AttackProbabilityModel:
    if rng.random() < 0.5:
        return AttackProbabilityModel.exponential(_r(rng.uniform(0.2, 2.0), 4))
    return AttackProbabilityModel.reciprocal(_r(rng.uniform(1.5, 4.0), 4))


def bounded_network(
    rng: np.random.Generator,
    n_targets: int,
    n_sources: int,
    degree: int = 3,
    cap_ratio: Tuple[float, float] = (1.8, 3.0),
    floor_share: float = 0.5,
    solver: Optional[dict] = None,
) -> ScenarioFile:
    """Sparse network with binding target caps and source floors."""
    degree = min(degree, n_sources)
    pairs = set()
    for t in range(n_targets):
        for s in rng.choice(n_sources, size=degree, replace=False):
            pairs.add((t, int(s)))
    for s in range(n_sources):
        if not any(p[1] == s for p in pairs):
            pairs.add((int(rng.integers(n_targets)), s))
    supply = [_r(rng.uniform(1.0, 5.0), 4) for _ in range(n_sources)]
    out_degree = [sum(1 for p in pairs if p[1] == s) for s in range(n_sources)]
    ratio = rng.uniform(*cap_ratio)
    caps = [
        ratio * sum(supply[s] / out_degree[s] for (t2, s) in pairs if t2 == t)
        for t in range(n_targets)
    ]
    targets = tuple(
        TargetSpec(
            f"t{t + 1}",
            _r(rng.lognormal(1.5, 0.8), 4),
            _prob_model(rng),
            0.0,
            _r(caps[t]),
        )
        for t in range(n_targets)
    )
    sources = tuple(
        SourceSpec(
            f"s{s + 1}",
            supply[s],
            _r(supply[s] * floor_share),
            _r(rng.uniform(0.1, 0.5), 4),
            {f"t{t + 1}": _r(rng.uniform(0.5, 1.5), 4) for (t, s2) in sorted(pairs) if s2 == s},
        )
        for s in range(n_sources)
    )
    edges = tuple((f"t{t + 1}", f"s{s + 1}") for (t, s) in sorted(pairs))
    network = TransportNetwork(targets, sources, edges)
    return ScenarioFile(network, _gamma(rng, 0.4), False, dict(solver or {}), {})


def explicit_network(
    rng: np.random.Generator, n_targets: int, n_sources: int
) -> ScenarioFile:
    """Large network written as an explicit edge list (heavy YAML reads).

    Each (target, source) pair is kept with probability 0.95; every node
    keeps at least one edge.
    """
    base = complete_network(rng, n_targets, n_sources).network
    mask = rng.random((n_targets, n_sources)) < 0.95
    for t in range(n_targets):
        mask[t, int(rng.integers(n_sources))] = True
    for s in range(n_sources):
        mask[int(rng.integers(n_targets)), s] = True
    edges = tuple(
        (base.targets[t].id, base.sources[s].id)
        for t in range(n_targets)
        for s in range(n_sources)
        if mask[t, s]
    )
    network = TransportNetwork(base.targets, base.sources, edges)
    return ScenarioFile(network, _gamma(rng, 0.3), False, {}, {})


def loose_caps(scenario: ScenarioFile) -> ScenarioFile:
    """The scenario with each target cap raised to twice the supply of the
    sources wired to it, so that no cap can bind."""
    network = scenario.network
    supply = {s.id: s.supply_upper for s in network.sources}
    targets = tuple(
        replace(t, demand_upper=_r(2.0 * sum(supply[y] for (x, y) in network.edges if x == t.id)))
        for t in network.targets
    )
    loose = TransportNetwork(targets, network.sources, network.edges)
    return replace(scenario, network=loose)


def jitter(scenario: ScenarioFile, rng: np.random.Generator, scale: float) -> ScenarioFile:
    """The scenario with loss values, caps, supplies and floors each
    multiplied by an independent ``exp(N(0, scale))`` factor."""

    def f() -> float:
        return float(np.exp(rng.normal(0.0, scale)))

    network = scenario.network
    targets = tuple(
        replace(t, loss_value=_r(t.loss_value * f()), demand_upper=_r(t.demand_upper * f()))
        for t in network.targets
    )
    sources = []
    for s in network.sources:
        share = s.supply_lower / s.supply_upper
        upper = _r(s.supply_upper * f())
        sources.append(replace(s, supply_upper=upper, supply_lower=_r(upper * share)))
    jittered = TransportNetwork(targets, tuple(sources), network.edges)
    return replace(scenario, network=jittered)
