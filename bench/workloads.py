"""The benchmark's three workloads: seeded scenarios and the CLI calls on them.

``build(name, seed, workdir, root)`` generates the workload's scenarios
from the seed, writes them with ``scenario_io.write_scenario`` into
``workdir`` and returns the list of CLI calls, each with the check of
its output. The shipped scenarios are read from ``root/scenarios``.

Why each workload exists (also recorded in BENCHMARK.json):

* ``complete-sweep``: the paper's headline experiments (cost against
  gamma, degeneration as tau -> 0, activation thresholds). The time goes
  to the kernel, water-filling bisection and op_a's one-pass projection;
  op_b runs only in its trivial one-cycle form and ADMM never runs.
* ``bounded-sparse``: long projected-gradient runs (op_b and op_a) on
  many narrow groups with source floors, plus heavy YAML reads of a large
  explicit edge list. Water-filling and ADMM are absent.
* ``consensus``: the ADMM target and source subproblems and the message
  bus, the only workload that enters ``admm``.

A fourth workload, ``op_b-defect``, is not part of the benchmark's gated
set: it runs ``solve --mode op_b`` and ``admm`` on the same bounded
networks with their binding target caps, where the op_b projector defect
shows (see ``checks.py``), so that it fails at this commit and a fix can
show which failures it removes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from secalloc.scenario_io import ScenarioFile, parse_scenario, write_scenario

import checks
import generate

NAMES = ("complete-sweep", "bounded-sparse", "consensus", "op_b-defect")


@dataclass
class Call:
    scenario_id: str
    verb: str
    argv: List[str]
    outputs: List[str]  # files the call writes, compared across rounds
    check: Callable[[], List[str]]  # problems with the outputs, [] if none


# complete-sweep: (targets, sources, grid steps, copies); water-filling and
# sweep-tau only up to 100 edges, beyond which one call takes seconds. The
# 400-edge network runs as three jittered copies of one network, so that
# the 90th percentile (about the third-slowest of 29 calls) falls inside a
# group of equal calls rather than between two unequal ones.
SWEEP_SIZES = [
    (5, 2, 5, 1), (5, 2, 5, 1), (6, 3, 5, 1), (8, 3, 5, 1), (10, 3, 5, 1),
    (20, 5, 3, 1), (40, 10, 2, 3), (100, 20, 2, 1),
]
SMALL_EDGES = 100
SHIPPED_SWEEP = ("case_study", "discrimination")

# bounded-sparse: small networks solved in both modes, and one large
# explicit edge list (targets, sources) solved with op_a only
BOUNDED_SIZES = [(4, 3), (5, 3)] * 16
EXPLICIT_SIZE = (100, 20)

# consensus: small bounded networks run through ADMM
ADMM_SIZES = [(3, 2), (4, 3), (5, 3), (3, 3), (4, 2), (5, 2)]

# The op_b projector defect (see checks.py) shows wherever a target cap
# can bind: on some seeds, on any such network, solve_op_b creeps for
# thousands of iterations or stops above the optimum (bounded14: 298 to
# over 5,000 iterations across 30 seeds; bounded27: about 180, and 4,578
# and a failed certificate on one seed), and `admm` then prints a
# relative gap above 1e-4 against that wrong reference. The gated
# workloads must pass on every seed, so bounded-sparse and consensus run
# each network with its caps loosened until none can bind
# (generate.loose_caps), where the projection is exact; op_b-defect runs
# the same networks with their binding caps.
DEFECT_MAX_ITERATIONS = 5000

# A solve's cost depends on its inputs far more than the machine's noise
# allows a seed to move it: op_b's iteration count on one bounded network
# ranges from tens to thousands and ADMM's round count tenfold between
# random draws, and op_a's from 15 to 31 on complete networks. So every
# generated network's structure and base values come from a fixed design
# seed, and the run's seed multiplies every loss value, cap, supply and
# floor by exp(N(0, JITTER)). On the complete networks even that moves
# op_a's iteration counts: two seeds gave 3,130 and 5,186 PGD iterations
# per complete-sweep round (one 8x3 sweep took 15 times as long), so
# complete-sweep jitters by COMPLETE_JITTER instead.
DESIGN_SEED = 20221130
JITTER = 0.01
COMPLETE_JITTER = 0.001


class _Builder:
    def __init__(self, workdir: str, root: str):
        self.workdir = workdir
        self.root = root
        self.calls: List[Call] = []

    def shipped(self, name: str) -> Tuple[str, ScenarioFile]:
        path = os.path.join(self.root, "scenarios", f"{name}.yaml")
        with open(path) as handle:
            return path, parse_scenario(handle.read())

    def write(self, scenario_id: str, scenario: ScenarioFile) -> str:
        path = os.path.join(self.workdir, f"{scenario_id}.yaml")
        with open(path, "w", newline="\n") as handle:
            handle.write(write_scenario(scenario))
        return path

    def _out(self, scenario_id: str, verb: str, ext: str) -> str:
        return os.path.join(self.workdir, f"{scenario_id}.{verb}.{ext}")

    def solve(self, sid: str, path: str, scenario: ScenarioFile, mode: str) -> None:
        out = self._out(sid, mode, "txt")
        self.calls.append(Call(
            sid, f"solve --mode {mode}",
            ["solve", path, "--mode", mode, "-o", out],
            [out, out + ".trace.csv"],
            partial(checks.check_solve, scenario, out, mode),
        ))

    def admm(self, sid: str, path: str, scenario: ScenarioFile) -> None:
        out = self._out(sid, "admm", "txt")
        self.calls.append(Call(
            sid, "admm", ["admm", path, "-o", out], [out, out + ".trace.csv"],
            partial(checks.check_admm, scenario, out),
        ))

    def waterfill(self, sid: str, path: str, scenario: ScenarioFile) -> None:
        out = self._out(sid, "waterfill", "txt")
        self.calls.append(Call(
            sid, "waterfill", ["waterfill", path, "-o", out], [out],
            partial(checks.check_waterfill, scenario, out),
        ))

    def sweep(self, sid: str, path: str, scenario: ScenarioFile, axis: str, steps: int) -> None:
        out = self._out(sid, f"sweep-{axis}", "csv")
        start, stop = (0.3, 1.0) if axis == "gamma" else (0.0, 1.0)
        self.calls.append(Call(
            sid, f"sweep-{axis}",
            [f"sweep-{axis}", path, "-o", out, "--start", str(start), "--stop", str(stop),
             "--steps", str(steps)],
            [out],
            partial(checks.check_sweep, scenario, out, axis, np.linspace(start, stop, steps)),
        ))


def _streams(seed: int, k: int):
    """(jitter, design) generators of design stream ``k``."""
    return np.random.default_rng([seed, k]), np.random.default_rng([DESIGN_SEED, k])


def _designed(rng: np.random.Generator, design: np.random.Generator, make, *args, **kwargs):
    return generate.jitter(make(design, *args, **kwargs), rng, JITTER)


def _complete_sweep(b: _Builder, seed: int) -> None:
    rng, design = _streams(seed, 0)
    entries = [(name, *b.shipped(name), 5) for name in SHIPPED_SWEEP]
    for k, (n_t, n_s, steps, copies) in enumerate(SWEEP_SIZES):
        base = generate.complete_network(design, n_t, n_s)
        for c in range(copies):
            sid = f"complete{k}{'abc'[c]}-{n_t}x{n_s}"
            scenario = generate.jitter(base, rng, COMPLETE_JITTER)
            entries.append((sid, b.write(sid, scenario), scenario, steps))
    for sid, path, scenario, steps in entries:
        b.sweep(sid, path, scenario, "gamma", steps)
        if len(scenario.network.edges) <= SMALL_EDGES:
            b.sweep(sid, path, scenario, "tau", steps)
            b.waterfill(sid, path, scenario)


def _networks(rng, design, sizes, prefix, solver=None):
    """(id, scenario) of bounded networks with binding caps, in draw order."""
    for k, (n_t, n_s) in enumerate(sizes):
        scenario = _designed(rng, design, generate.bounded_network, n_t, n_s, solver=solver)
        yield f"{prefix}{k}-{n_t}x{n_s}", scenario


def _bounded_sparse(b: _Builder, seed: int) -> None:
    rng, design = _streams(seed, 1)
    for sid, scenario in _networks(rng, design, BOUNDED_SIZES, "bounded"):
        scenario = generate.loose_caps(scenario)
        path = b.write(sid, scenario)
        b.solve(sid, path, scenario, "op_b")
        b.solve(sid, path, scenario, "op_a")
    n_t, n_s = EXPLICIT_SIZE
    sid = f"explicit-{n_t}x{n_s}"
    scenario = _designed(rng, design, generate.explicit_network, n_t, n_s)
    b.solve(sid, b.write(sid, scenario), scenario, "op_a")


def _consensus(b: _Builder, seed: int) -> None:
    b.admm("case_study", *b.shipped("case_study"))
    for sid, scenario in _networks(*_streams(seed, 2), ADMM_SIZES, "consensus"):
        scenario = generate.loose_caps(scenario)
        b.admm(sid, b.write(sid, scenario), scenario)


def _op_b_defect(b: _Builder, seed: int) -> None:
    # op_b creeps for up to the default 200,000 iterations on some of these
    # networks; the cap keeps a call to seconds and makes it exit 5 instead
    solver = {"max_iterations": DEFECT_MAX_ITERATIONS}
    for sid, scenario in _networks(*_streams(seed, 1), BOUNDED_SIZES, "bounded", solver):
        b.solve(sid, b.write(sid, scenario), scenario, "op_b")
    for sid, scenario in _networks(*_streams(seed, 2), ADMM_SIZES, "consensus", solver):
        path = b.write(sid, scenario)
        b.solve(sid, path, scenario, "op_b")
        b.admm(sid, path, scenario)


def build(name: str, seed: int, workdir: str, root: str) -> List[Call]:
    """Generate and write the workload's scenarios; return its calls."""
    os.makedirs(workdir, exist_ok=True)
    builder = _Builder(workdir, root)
    {"complete-sweep": _complete_sweep, "bounded-sparse": _bounded_sparse,
     "consensus": _consensus, "op_b-defect": _op_b_defect}[name](builder, seed)
    return builder.calls
