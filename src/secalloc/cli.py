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
from dataclasses import fields, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import admm as admm_mod
from . import centralized, scenario_io, waterfill
from .errors import ConvergenceError, InfeasibleError, PreconditionError, ScenarioError
from .model import BehavioralModel, SolveReport, TransportNetwork, _plan_totals, field_problem
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
    names = [f.name for f in fields(config_cls)]
    values = {key: value for key, value in overrides.items() if key in names}
    for name in names:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return config_cls(**values)


def _edge_lines(network: TransportNetwork, amounts: Mapping[Tuple[str, str], float]) -> List[str]:
    return ["plan:", *(f"  {x} {y} {_fmt(amounts[(x, y)])}" for x, y in network.edges)]


def _plan_lines(network: TransportNetwork, report: SolveReport) -> List[str]:
    totals = zip(network.targets, _plan_totals(network, report.plan))
    aggregates = [f"  {t.id} {_fmt(total)}" for t, total in totals]
    return _edge_lines(network, report.plan.amounts) + ["aggregates:", *aggregates]


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


def _trace_path(args) -> str:
    return args.trace if args.trace is not None else args.output + ".trace.csv"


def _cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    mode = args.mode or scenario.solver.get("mode", "op_a")
    config = _config(centralized.SolverConfig, scenario.solver, args)
    solve = centralized.solve_op_a if mode == "op_a" else centralized.solve_op_b
    report = solve(scenario.network, scenario.behavior, config)
    _write_lines(args.output, _report_header(mode, report) + _plan_lines(scenario.network, report))
    scenario_io.write_trace_csv(report, _trace_path(args))
    print(f"converged in {report.iterations} iterations; wrote {args.output}")
    return EXIT_OK


def _cmd_waterfill(args) -> int:
    scenario = _load_scenario(args.scenario)
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


def _cmd_admm(args) -> int:
    scenario = _load_scenario(args.scenario)
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
    _write_lines(args.output, lines + _plan_lines(scenario.network, report))
    scenario_io.write_trace_csv(report, _trace_path(args))
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
    return np.linspace(args.start, args.stop, args.steps)


def _sweep(args, axis: str, problem, solve_at) -> int:
    """Solve at each point of the ``axis`` grid in order, ``solve_at(scenario,
    value, config)`` giving the report, and write one CSV row per point.
    A point that does not converge ends the sweep: the rows before it are
    written, and the exit code is EXIT_NO_CONVERGENCE."""
    scenario = _load_scenario(args.scenario)
    grid = _grid(args, axis, problem)
    config = _config(centralized.SolverConfig, scenario.solver, args)
    samples: List[scenario_io.SweepSample] = []
    failure: Optional[str] = None
    for value in grid:
        try:
            report = solve_at(scenario, float(value), config)
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


def _cmd_sweep_gamma(args) -> int:
    def solve_at(scenario, value, config):
        return centralized.solve_op_a(scenario.network, BehavioralModel(value), config)

    return _sweep(args, "gamma", lambda v: field_problem("gamma", v), solve_at)


def _cmd_sweep_tau(args) -> int:
    def solve_at(scenario, value, config):
        network = TransportNetwork(
            scenario.network.targets,
            tuple(replace(s, weight_tau=value) for s in scenario.network.sources),
            scenario.network.edges,
        )
        return centralized.solve_op_b(network, scenario.behavior, config)

    return _sweep(args, "tau", lambda v: None if 0 <= v <= 1 else "must be in [0, 1]", solve_at)


def _checked(name: str, convert):
    """argparse type: ``convert`` the flag's text, then apply FIELD_RULES[name]."""

    def parse(text: str):
        value = convert(text)
        problem = field_problem(name, value)
        if problem:
            raise argparse.ArgumentTypeError(f"{problem}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _add_config_flags(parser: argparse.ArgumentParser, config_cls) -> None:
    for f in fields(config_cls):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=_checked(f.name, type(f.default)))


def _add_grid_flags(parser: argparse.ArgumentParser, start: float, stop: float) -> None:
    parser.add_argument("--start", type=float, default=start)
    parser.add_argument("--stop", type=float, default=stop)
    parser.add_argument("--steps", type=int, default=25)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secalloc",
        description="Security resource allocation with behavioral planners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="centralized solve of a scenario")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=["op_a", "op_b"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="trace CSV path (default: OUTPUT.trace.csv)")
    _add_config_flags(p, centralized.SolverConfig)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("waterfill", help="analytical water-filling report")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_waterfill)

    p = sub.add_parser("admm", help="distributed consensus solve")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="trace CSV path (default: OUTPUT.trace.csv)")
    _add_config_flags(p, admm_mod.AdmmConfig)
    p.set_defaults(func=_cmd_admm)

    p = sub.add_parser("sweep-gamma", help="solve op_a across a gamma grid")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    _add_grid_flags(p, 0.3, 1.0)
    _add_config_flags(p, centralized.SolverConfig)
    p.set_defaults(func=_cmd_sweep_gamma)

    p = sub.add_parser("sweep-tau", help="solve op_b across a tau grid")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    _add_grid_flags(p, 0.0, 1.0)
    _add_config_flags(p, centralized.SolverConfig)
    p.set_defaults(func=_cmd_sweep_tau)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser tree, built on first use: parse_args keeps
    no state between calls, and a build takes about 1 ms."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
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
