"""Command-line front end.

Five verbs: ``solve`` (centralized, op_a or op_b), ``waterfill``
(analytical report), ``admm`` (distributed solve plus centralized gap),
``sweep-gamma`` and ``sweep-tau`` (parameter sweeps to CSV).

Exit codes: 0 success, 2 scenario/usage errors, 3 violated analytical
preconditions, 4 infeasible constraints, 5 non-convergence, 6 I/O.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import admm as admm_mod
from . import centralized, scenario_io, waterfill
from .errors import ConvergenceError, DomainError, InfeasibleError, PreconditionError, ScenarioError
from .model import BehavioralModel, SolveReport, TransportNetwork, _plan_totals, _schema, field_problem
from .scenario_io import _fmt, _write_lines

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_PRECONDITION = 3
EXIT_INFEASIBLE = 4
EXIT_NO_CONVERGENCE = 5
EXIT_IO = 6

_ACTIVE_EPS = 1e-6


def _load_scenario(path: str) -> scenario_io.ScenarioFile:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError([f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"]) from exc
    return scenario_io.parse_scenario(text)


def _config(config_cls, overrides, args=None):
    """``config_cls`` from the scenario's overrides, then the flags given."""
    names = _schema(config_cls)[0]
    values = {key: value for key, value in overrides.items() if key in names}
    for name in names:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return config_cls(**values)


def _edge_lines(network: TransportNetwork, amounts: Mapping[Tuple[str, str], float]) -> List[str]:
    return ["plan:", *(f"  {x} {y} {_fmt(amounts[(x, y)])}" for x, y in network.edges)]


def _report_header(mode: str, report: SolveReport) -> List[str]:
    return [
        f"mode: {mode}",
        f"converged: {str(report.converged).lower()}",
        f"iterations: {report.iterations}",
        f"true_loss: {_fmt(report.true_loss)}",
        f"perceived_loss: {_fmt(report.perceived_loss)}",
        f"source_utility: {_fmt(report.source_utility)}",
        f"objective: {_fmt(report.perceived_loss - report.source_utility)}",
    ]


def _write_report(args, network: TransportNetwork, report: SolveReport, lines: List[str]) -> None:
    """Write ``lines``, the plan and each target's aggregate to OUTPUT, and
    the report's trace to --trace (default: OUTPUT.trace.csv)."""
    totals = zip(network.targets, _plan_totals(network, report.plan))
    aggregates = ["aggregates:", *(f"  {t.id} {_fmt(total)}" for t, total in totals)]
    _write_lines(args.output, lines + _edge_lines(network, report.plan.amounts) + aggregates)
    trace = args.trace if args.trace is not None else args.output + ".trace.csv"
    scenario_io.write_trace_csv(report, trace)


def _cmd_solve(args, scenario: scenario_io.ScenarioFile) -> int:
    mode = args.mode or scenario.solver.get("mode", "op_a")
    config = _config(centralized.SolverConfig, scenario.solver, args)
    solve = centralized.solve_op_a if mode == "op_a" else centralized.solve_op_b
    report = solve(scenario.network, scenario.behavior, config)
    _write_report(args, scenario.network, report, _report_header(mode, report))
    print(f"converged in {report.iterations} iterations; wrote {args.output}")
    return EXIT_OK


def _cmd_waterfill(args, scenario: scenario_io.ScenarioFile) -> int:
    network, behavior = scenario.network, scenario.behavior
    trace = waterfill.waterfill_allocate(network, behavior)
    order = trace.activation_order
    lines = [
        "thresholds:",
        *(f"  {i} {j} {_fmt(value)}" for (i, j), value in trace.thresholds.entries.items()),
        "breakpoints:",
        *(f"  {tid} {_fmt(point)}" for tid, point in zip(order, trace.breakpoints)),
        "aggregates:",
        *(f"  {tid} {_fmt(trace.final_aggregates[tid])}" for tid in order),
    ]
    _write_lines(args.output, lines + _edge_lines(network, trace.per_source_plan.amounts))
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_admm(args, scenario: scenario_io.ScenarioFile) -> int:
    config = _config(admm_mod.AdmmConfig, scenario.admm, args)
    report = admm_mod.run_admm(scenario.network, scenario.behavior, config)
    # the verb's flags configure ADMM; the reference solve reads solver: alone
    central = centralized.solve_op_b(
        scenario.network, scenario.behavior, _config(centralized.SolverConfig, scenario.solver)
    )
    admm_objective = report.perceived_loss - report.source_utility
    central_objective = central.perceived_loss - central.source_utility
    gap = abs(admm_objective - central_objective) / max(abs(central_objective), 1e-300)
    lines = _report_header("admm", report) + [
        f"centralized_objective: {_fmt(central_objective)}",
        f"relative_gap: {_fmt(gap)}",
    ]
    _write_report(args, scenario.network, report, lines)
    print(f"consensus in {report.iterations} iterations; wrote {args.output}")
    return EXIT_OK


def _grid(args, what: str, problem) -> np.ndarray:
    if args.steps < 2:
        raise ScenarioError([f"{what} grid needs at least 2 points"])
    if not args.start < args.stop:
        raise ScenarioError([f"{what} grid start must be < stop"])
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if found := problem(value):
            raise ScenarioError([f"{what} grid {flag} {found}, got {value!r}"])
    try:
        return np.linspace(args.start, args.stop, args.steps)
    except (MemoryError, ValueError):  # numpy's ValueError: past the largest array size
        raise ScenarioError([f"{what} grid of {args.steps} points does not fit in memory"]) from None


def _sweep(args, scenario: scenario_io.ScenarioFile, axis: str, problem, solve_at) -> int:
    """Solve at each point of the ``axis`` grid in order, ``solve_at(value,
    config, previous)`` giving the report, with ``previous`` the last point's
    report (None at the first), and write one CSV row per point.
    A point that does not converge ends the sweep: the rows before it are
    written, and the exit code is EXIT_NO_CONVERGENCE."""
    grid = _grid(args, axis, problem)
    config = _config(centralized.SolverConfig, scenario.solver, args)
    samples: List[scenario_io.SweepSample] = []
    failure: Optional[str] = None
    report: Optional[SolveReport] = None
    for value in grid:
        try:
            report = solve_at(float(value), config, report)
        except ConvergenceError as exc:
            failure = f"{axis}={value:g} did not converge ({exc})"
            break
        aggregates = tuple(_plan_totals(scenario.network, report.plan))
        samples.append(
            scenario_io.SweepSample(
                param_value=float(value),
                aggregates=aggregates,
                true_loss=report.true_loss,
                perceived_loss=report.perceived_loss,
                active_targets=sum(1 for a in aggregates if a > _ACTIVE_EPS),
            )
        )
    target_ids = tuple(t.id for t in scenario.network.targets)
    result = scenario_io.SweepResult(axis, target_ids, tuple(samples))
    scenario_io.write_sweep_csv(result, args.output)
    if failure is not None:
        print(f"aborted: {failure}; partial output in {args.output}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_sweep_gamma(args, scenario: scenario_io.ScenarioFile) -> int:
    # cold at every point: a warm start saves op_a almost nothing here
    def solve_at(value, config, previous):
        return centralized.solve_op_a(scenario.network, BehavioralModel(value), config)

    return _sweep(args, scenario, "gamma", lambda v: field_problem("gamma", v), solve_at)


def _cmd_sweep_tau(args, scenario: scenario_io.ScenarioFile) -> int:
    # continuation: only tau_c changes along the grid, so each point starts
    # from the last point's plan, on a network that shares the parsed one's index
    network_at = scenario.network.with_weight_tau

    def problem(value):  # the utility grows with tau, so --stop's network bounds the grid's
        if not 0 <= value <= 1:
            return "must be in [0, 1]"
        try:
            network_at(value)
        except DomainError as exc:
            return f"leaves the float range ({exc})"
        return None

    def solve_at(value, config, previous):
        start = None if previous is None else previous.plan
        return centralized.solve_op_b(network_at(value), scenario.behavior, config, start)

    return _sweep(args, scenario, "tau", problem, solve_at)


def _checked(name: str, annotation):
    """argparse type: the flag's text as ``annotation``, then FIELD_RULES[name]."""

    def parse(text: str):
        value = annotation(text)
        problem = field_problem(name, value)
        if problem:
            raise argparse.ArgumentTypeError(f"{problem}, got {text!r}")
        return value

    parse.__name__ = annotation.__name__  # argparse names it in "invalid float value"
    return parse


# name, help, handler, the config class whose fields become flags, whether
# the verb writes a trace, and the grid's default (start, stop)
_VERBS = (
    ("solve", "centralized solve of a scenario", _cmd_solve, centralized.SolverConfig, True, None),
    ("waterfill", "analytical water-filling report", _cmd_waterfill, None, False, None),
    ("admm", "distributed consensus solve", _cmd_admm, admm_mod.AdmmConfig, True, None),
    ("sweep-gamma", "solve op_a across a gamma grid", _cmd_sweep_gamma, centralized.SolverConfig,
     False, (0.3, 1.0)),
    ("sweep-tau", "solve op_b across a tau grid", _cmd_sweep_tau, centralized.SolverConfig,
     False, (0.0, 1.0)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secalloc",
        description="Security resource allocation with behavioral planners",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, config_cls, trace, grid in _VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario")
        if name == "solve":
            p.add_argument("--mode", choices=["op_a", "op_b"])
        p.add_argument("-o", "--output", required=True)
        if trace:
            p.add_argument("--trace", help="trace CSV path (default: OUTPUT.trace.csv)")
        if grid:
            p.add_argument("--start", type=float, default=grid[0])
            p.add_argument("--stop", type=float, default=grid[1])
            p.add_argument("--steps", type=int, default=25)
        for key, annotation in _schema(config_cls)[0].items() if config_cls else ():
            p.add_argument("--" + key.replace("_", "-"), type=_checked(key, annotation))
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser tree, built on first use: parse_args keeps
    no state between calls, and a build takes about 1 ms."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _load_scenario(args.scenario))
    except ScenarioError as exc:
        print(f"scenario error:\n{exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        name = exc.filename if exc.filename else ""
        print(f"i/o error: {exc.strerror or exc} {name}".rstrip(), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
