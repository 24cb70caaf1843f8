"""``run_admm`` fills its trace's objectives in one batched evaluation.

Each round keeps (iteration, primal residual, consensus), and the records
are built when the run returns or raises, or when the held consensus
arrays reach ``_TRACE_BATCH`` floats. Each objective must equal the op_b
objective of ``_make_objective`` at that round's consensus bit for bit:
on targets of more than 8 edges numpy's pairwise sum adds a row in a
different order unless the row's edges are laid out contiguously.
"""

import numpy as np
import pytest

from helpers import complete_network
from secalloc import admm
from secalloc.admm import AdmmConfig, run_admm
from secalloc.centralized import _make_objective
from secalloc.errors import ConvergenceError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TraceRecord,
    TransportNetwork,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def wide_network(seed):
    """Targets of 1 to 40 edges and both families, on 40 sources."""
    rng = np.random.default_rng(seed)
    targets = tuple(
        TargetSpec(
            f"t{k}", float(rng.uniform(1.0, 20.0)),
            AttackProbabilityModel("exponential", float(rng.uniform(0.5, 2.0)))
            if k % 2 else AttackProbabilityModel("reciprocal", float(rng.uniform(1.5, 3.0))),
        )
        for k in range(12)
    )
    sources = tuple(
        SourceSpec(f"s{j}", float(rng.uniform(1.0, 5.0)), weight_tau=float(rng.uniform(0.0, 0.3)))
        for j in range(40)
    )
    degrees = [1, 2, 7, 8, 9, 16, 17, 40, 9, 33, 8, 40]
    edges = [
        (t.id, f"s{j}") for t, d in zip(targets, degrees) for j in sorted(rng.choice(40, d, replace=False))
    ]
    edges += [("t11", s.id) for s in sources if ("t11", s.id) not in edges]
    order = {t.id: k for k, t in enumerate(targets)}
    edges.sort(key=lambda e: (order[e[0]], int(e[1][1:])))
    return TransportNetwork(targets, sources, tuple(edges)), BehavioralModel(float(rng.uniform(0.3, 1.0)))


def reference_records(network, behavior):
    """The records as each round's own objective call makes them."""
    objective, _ = _make_objective(network, behavior, "op_b")
    return lambda index, gamma, rounds: [
        TraceRecord(k, primal, objective(consensus)) for k, primal, consensus in rounds
    ]


@pytest.mark.parametrize("seed", range(4))
def test_batched_objectives_equal_each_rounds(seed):
    network, behavior = wide_network(seed)
    rng = np.random.default_rng(100 + seed)
    rounds = [
        (k, float(k), rng.exponential(scale, len(network.edges)))
        for k, scale in enumerate([1e-3, 0.1, 1.0, 3.0, 30.0], start=1)
    ]
    got = admm._trace_records(network.edge_index, behavior.gamma, rounds)
    assert got == reference_records(network, behavior)(None, None, rounds)


def runs(network, behavior, config, monkeypatch, batch=None, reference=False):
    """The trace of run_admm, with _TRACE_BATCH at ``batch`` and the
    records from each round's objective call where ``reference``."""
    with monkeypatch.context() as patch:
        if batch is not None:
            patch.setattr(admm, "_TRACE_BATCH", batch)
        if reference:
            patch.setattr(admm, "_trace_records", reference_records(network, behavior))
        try:
            return list(run_admm(network, behavior, config).residual_trace)
        except ConvergenceError as exc:
            return ["raised", str(exc), *exc.trace]


CASES = {
    "wide, stopped at round 40": (wide_network(0), AdmmConfig(max_iterations=40)),
    "complete 3x20": (
        (complete_network([12.0, 7.0, 3.0], [1.0 + 0.1 * j for j in range(20)], tau=0.2),
         BehavioralModel(0.7)),
        AdmmConfig(),
    ),
    "out of the float range in round 2": (wide_network(1), AdmmConfig(eta=1e-15)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_run_admm_trace_equals_the_per_round_objective(name, monkeypatch):
    (network, behavior), config = CASES[name]
    expected = runs(network, behavior, config, monkeypatch, reference=True)
    assert runs(network, behavior, config, monkeypatch) == expected
    assert len(expected) > 1


@pytest.mark.parametrize("batch", [1, 7 * 40])
def test_flushing_in_blocks_keeps_the_trace(batch, monkeypatch):
    (network, behavior), config = CASES["wide, stopped at round 40"]
    expected = runs(network, behavior, config, monkeypatch)
    assert runs(network, behavior, config, monkeypatch, batch=batch) == expected
    assert expected[0] == "raised" and len(expected) == 2 + config.max_iterations
