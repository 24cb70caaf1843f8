"""The benchmark's tracer counts the projections of ADMM's target clamp.

A target whose cap binds projects its proposal onto the capped simplex
in every round, through ``project_box_sum`` with equal bounds, so each
round adds one box projection for that target on top of one per source.
"""

import importlib.util
import os

from secalloc.admm import run_admm
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clamp_projections_are_counted():
    prob = AttackProbabilityModel.exponential(1.0)
    targets = (TargetSpec("a", 9.0, prob, demand_upper=1.0), TargetSpec("b", 4.0, prob))
    sources = (SourceSpec("s1", 3.0), SourceSpec("s2", 1.0))
    network = TransportNetwork.complete(targets, sources)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        run_admm(network, BehavioralModel(0.7))
    finally:
        tracer.uninstall()
    values = tracer.take_round()
    assert values["centralized.project_box_sum.calls"] > values["admm.source_subproblem.calls"]
