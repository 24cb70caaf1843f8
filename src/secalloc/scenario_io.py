"""Scenario files, canonical builders, and CSV serialization.

A scenario is a YAML document with this shape (see scenarios/ for a
commented example):

    behavior:
      gamma: 0.5
    targets:
      - id: t1
        loss_value: 12.0
        prob_model: {family: exponential, baseline: 1.0}   # default shown
        demand_lower: 0.0                                   # default
        demand_upper: .inf                                  # default
    sources:
      - id: s1
        supply_upper: 10.0
        supply_lower: 0.0                                   # default
        weight_tau: 0.25                                    # default 0.0
        utility_coeffs: {t1: 1.0}                           # default 1.0
    edges: complete          # or an explicit list of [target, source]
    solver:                  # optional overrides for the centralized solver
      mode: op_a
    admm:                    # optional overrides for the consensus solver
      eta: 1.0

Validation collects *every* violation with its line number before
raising, so a broken file can be fixed in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .errors import DomainError, ScenarioError
from .model import (
    AttackProbabilityModel,
    BehavioralModel,
    SolveReport,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

__all__ = [
    "ScenarioFile",
    "SweepSample",
    "SweepResult",
    "parse_scenario",
    "write_scenario",
    "build_case_study",
    "build_case_study_scenario",
    "write_sweep_csv",
    "write_trace_csv",
]

_SOLVER_KEYS = {
    "mode",
    "step_size",
    "max_iterations",
    "gradient_tolerance",
    "objective_tolerance",
}
_ADMM_KEYS = {"eta", "max_iterations", "primal_tolerance", "dual_tolerance"}


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed, validated scenario."""

    network: TransportNetwork
    behavior: BehavioralModel
    edges_complete: bool
    solver: Mapping[str, object]
    admm: Mapping[str, object]


@dataclass(frozen=True)
class SweepSample:
    param_value: float
    aggregates: Tuple[float, ...]
    true_loss: float
    perceived_loss: float
    active_targets: int


@dataclass(frozen=True)
class SweepResult:
    """Rows of a parameter sweep, sorted by parameter value."""

    axis: str
    target_ids: Tuple[str, ...]
    samples: Tuple[SweepSample, ...]

    def __post_init__(self) -> None:
        values = [s.param_value for s in self.samples]
        if values != sorted(values):
            raise ValueError("sweep samples must be sorted by parameter value")


# --------------------------------------------------------------------------
# parsing: walk the composed YAML node tree so every message carries a line


def _line(node) -> int:
    return node.start_mark.line + 1


class _Diag:
    def __init__(self) -> None:
        self.messages: List[str] = []

    def add(self, node, message: str) -> None:
        self.messages.append(f"line {_line(node)}: {message}")


def _is_map(node) -> bool:
    return isinstance(node, yaml.MappingNode)


def _is_seq(node) -> bool:
    return isinstance(node, yaml.SequenceNode)


def _is_scalar(node) -> bool:
    return isinstance(node, yaml.ScalarNode)


def _map_items(node, diag: _Diag) -> Dict[str, object]:
    items: Dict[str, object] = {}
    for key_node, value_node in node.value:
        if not _is_scalar(key_node):
            diag.add(key_node, "mapping keys must be scalars")
            continue
        key = key_node.value
        if key in items:
            diag.add(key_node, f"duplicate key {key!r}")
            continue
        items[key] = value_node
    return items


def _to_float(node, path: str, diag: _Diag) -> Optional[float]:
    if not _is_scalar(node):
        diag.add(node, f"{path} must be a number")
        return None
    text = node.value.replace("_", "").lower()
    try:
        if text in (".inf", "+.inf"):
            return math.inf
        if text == "-.inf":
            return -math.inf
        return float(text)
    except ValueError:
        diag.add(node, f"{path} must be a number, got {node.value!r}")
        return None


def _to_int(node, path: str, diag: _Diag) -> Optional[int]:
    if not _is_scalar(node):
        diag.add(node, f"{path} must be an integer")
        return None
    try:
        return int(node.value.replace("_", ""))
    except ValueError:
        diag.add(node, f"{path} must be an integer, got {node.value!r}")
        return None


def _to_str(node, path: str, diag: _Diag) -> Optional[str]:
    if not _is_scalar(node):
        diag.add(node, f"{path} must be a string")
        return None
    return node.value


def _parse_prob_model(
    node, path: str, diag: _Diag
) -> Optional[AttackProbabilityModel]:
    if not _is_map(node):
        diag.add(node, f"{path} must be a mapping with family and baseline")
        return None
    items = _map_items(node, diag)
    family = None
    if "family" in items:
        family = _to_str(items["family"], f"{path}.family", diag)
    else:
        diag.add(node, f"{path}.family is required")
    baseline = None
    if "baseline" in items:
        baseline = _to_float(items["baseline"], f"{path}.baseline", diag)
    else:
        diag.add(node, f"{path}.baseline is required")
    for key in items:
        if key not in ("family", "baseline"):
            diag.add(items[key], f"unknown key {path}.{key}")
    if family is None or baseline is None:
        return None
    if family not in ("exponential", "reciprocal"):
        diag.add(items["family"], f"{path}.family must be exponential or reciprocal")
        return None
    if family == "exponential" and not baseline > 0:
        diag.add(items["baseline"], f"{path}.baseline must be > 0 for exponential")
        return None
    if family == "reciprocal" and not baseline > 1:
        diag.add(items["baseline"], f"{path}.baseline must be > 1 for reciprocal")
        return None
    return AttackProbabilityModel(family, baseline)


def _parse_targets(node, diag: _Diag) -> List[TargetSpec]:
    specs: List[TargetSpec] = []
    if not _is_seq(node) or not node.value:
        diag.add(node, "targets must be a non-empty list")
        return specs
    seen_ids: Dict[str, int] = {}
    for k, item in enumerate(node.value):
        path = f"targets[{k}]"
        if not _is_map(item):
            diag.add(item, f"{path} must be a mapping")
            continue
        items = _map_items(item, diag)
        for key in items:
            if key not in (
                "id",
                "loss_value",
                "prob_model",
                "demand_lower",
                "demand_upper",
            ):
                diag.add(items[key], f"unknown key {path}.{key}")
        tid = _to_str(items["id"], f"{path}.id", diag) if "id" in items else None
        if tid is None:
            diag.add(item, f"{path}.id is required")
            continue
        if tid in seen_ids:
            diag.add(items["id"], f"duplicate target id {tid!r}")
            continue
        seen_ids[tid] = k
        loss = None
        if "loss_value" in items:
            loss = _to_float(items["loss_value"], f"{path}.loss_value", diag)
            if loss is not None and not loss > 0:
                diag.add(items["loss_value"], f"{path}.loss_value must be > 0")
                loss = None
        else:
            diag.add(item, f"{path}.loss_value is required")
        prob = AttackProbabilityModel.exponential(1.0)
        if "prob_model" in items:
            parsed = _parse_prob_model(items["prob_model"], f"{path}.prob_model", diag)
            if parsed is not None:
                prob = parsed
        lower = 0.0
        if "demand_lower" in items:
            value = _to_float(items["demand_lower"], f"{path}.demand_lower", diag)
            if value is not None:
                if value < 0:
                    diag.add(items["demand_lower"], f"{path}.demand_lower must be >= 0")
                else:
                    lower = value
        upper = math.inf
        if "demand_upper" in items:
            value = _to_float(items["demand_upper"], f"{path}.demand_upper", diag)
            if value is not None:
                upper = value
        if upper < lower:
            diag.add(item, f"{path}: demand_upper must be >= demand_lower")
            continue
        if loss is None:
            continue
        specs.append(TargetSpec(tid, loss, prob, lower, upper))
    return specs


def _parse_sources(node, target_ids: Sequence[str], diag: _Diag) -> List[SourceSpec]:
    specs: List[SourceSpec] = []
    if not _is_seq(node) or not node.value:
        diag.add(node, "sources must be a non-empty list")
        return specs
    seen_ids: Dict[str, int] = {}
    for k, item in enumerate(node.value):
        path = f"sources[{k}]"
        if not _is_map(item):
            diag.add(item, f"{path} must be a mapping")
            continue
        items = _map_items(item, diag)
        for key in items:
            if key not in (
                "id",
                "supply_upper",
                "supply_lower",
                "weight_tau",
                "utility_coeffs",
            ):
                diag.add(items[key], f"unknown key {path}.{key}")
        sid = _to_str(items["id"], f"{path}.id", diag) if "id" in items else None
        if sid is None:
            diag.add(item, f"{path}.id is required")
            continue
        if sid in seen_ids:
            diag.add(items["id"], f"duplicate source id {sid!r}")
            continue
        seen_ids[sid] = k
        upper = None
        if "supply_upper" in items:
            upper = _to_float(items["supply_upper"], f"{path}.supply_upper", diag)
            if upper is not None and not upper > 0:
                diag.add(items["supply_upper"], f"{path}.supply_upper must be > 0")
                upper = None
            elif upper is not None and not math.isfinite(upper):
                diag.add(items["supply_upper"], f"{path}.supply_upper must be finite")
                upper = None
        else:
            diag.add(item, f"{path}.supply_upper is required")
        lower = 0.0
        if "supply_lower" in items:
            value = _to_float(items["supply_lower"], f"{path}.supply_lower", diag)
            if value is not None:
                if value < 0:
                    diag.add(items["supply_lower"], f"{path}.supply_lower must be >= 0")
                else:
                    lower = value
        tau = 0.0
        if "weight_tau" in items:
            value = _to_float(items["weight_tau"], f"{path}.weight_tau", diag)
            if value is not None:
                if value < 0:
                    diag.add(items["weight_tau"], f"{path}.weight_tau must be >= 0")
                elif not math.isfinite(value):
                    diag.add(items["weight_tau"], f"{path}.weight_tau must be finite")
                else:
                    tau = value
        coeffs: Dict[str, float] = {}
        if "utility_coeffs" in items:
            cnode = items["utility_coeffs"]
            if not _is_map(cnode):
                diag.add(cnode, f"{path}.utility_coeffs must be a mapping")
            else:
                for key_node, value_node in cnode.value:
                    tid = key_node.value
                    if tid not in target_ids:
                        diag.add(
                            key_node,
                            f"{path}.utility_coeffs references unknown target {tid!r}",
                        )
                        continue
                    value = _to_float(
                        value_node, f"{path}.utility_coeffs.{tid}", diag
                    )
                    if value is not None and not math.isfinite(value):
                        diag.add(
                            value_node, f"{path}.utility_coeffs.{tid} must be finite"
                        )
                    elif value is not None:
                        coeffs[tid] = value
        if upper is None or lower > upper:
            if upper is not None and lower > upper:
                diag.add(item, f"{path}: supply_lower must be <= supply_upper")
            continue
        specs.append(SourceSpec(sid, upper, lower, tau, coeffs))
    return specs


def _parse_edges(
    node,
    target_ids: Sequence[str],
    source_ids: Sequence[str],
    diag: _Diag,
) -> Tuple[bool, List[Tuple[str, str]]]:
    if _is_scalar(node) and node.value == "complete":
        return True, [(x, y) for x in target_ids for y in source_ids]
    if not _is_seq(node):
        diag.add(node, 'edges must be "complete" or a list of [target, source]')
        return False, []
    edges: List[Tuple[str, str]] = []
    seen = set()
    for k, item in enumerate(node.value):
        path = f"edges[{k}]"
        if not _is_seq(item) or len(item.value) != 2:
            diag.add(item, f"{path} must be a [target, source] pair")
            continue
        x = _to_str(item.value[0], f"{path}[0]", diag)
        y = _to_str(item.value[1], f"{path}[1]", diag)
        if x is None or y is None:
            continue
        if x not in target_ids:
            diag.add(item.value[0], f"{path} references undeclared target {x!r}")
            continue
        if y not in source_ids:
            diag.add(item.value[1], f"{path} references undeclared source {y!r}")
            continue
        if (x, y) in seen:
            diag.add(item, f"duplicate edge [{x}, {y}]")
            continue
        seen.add((x, y))
        edges.append((x, y))
    wired_targets = {x for x, _ in edges}
    wired_sources = {y for _, y in edges}
    for x in target_ids:
        if x not in wired_targets:
            diag.add(node, f"target {x!r} has no incident edge")
    for y in source_ids:
        if y not in wired_sources:
            diag.add(node, f"source {y!r} has no incident edge")
    return False, edges


def _parse_overrides(
    node, allowed: set, section: str, diag: _Diag
) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if not _is_map(node):
        diag.add(node, f"{section} must be a mapping")
        return out
    items = _map_items(node, diag)
    for key, value_node in items.items():
        if key not in allowed:
            diag.add(value_node, f"unknown key {section}.{key}")
            continue
        if key == "mode":
            mode = _to_str(value_node, f"{section}.mode", diag)
            if mode is not None:
                if mode in ("op_a", "op_b"):
                    out[key] = mode
                else:
                    diag.add(value_node, f"{section}.mode must be op_a or op_b")
        elif key == "max_iterations":
            value = _to_int(value_node, f"{section}.{key}", diag)
            if value is not None:
                if value >= 1:
                    out[key] = value
                else:
                    diag.add(value_node, f"{section}.{key} must be >= 1")
        else:
            value = _to_float(value_node, f"{section}.{key}", diag)
            if value is not None:
                if value > 0:
                    out[key] = value
                else:
                    diag.add(value_node, f"{section}.{key} must be > 0")
    return out


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    Raises ScenarioError carrying one line-anchored message per violation.
    """
    try:
        root = yaml.compose(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}: " if mark is not None else ""
        raise ScenarioError([f"{where}{exc.problem or 'syntax error'}"]) from exc
    if root is None or not _is_map(root):
        raise ScenarioError(["line 1: scenario must be a YAML mapping"])

    diag = _Diag()
    items = _map_items(root, diag)
    for key in items:
        if key not in ("behavior", "targets", "sources", "edges", "solver", "admm"):
            diag.add(items[key], f"unknown top-level key {key!r}")

    gamma = None
    if "behavior" in items and _is_map(items["behavior"]):
        bitems = _map_items(items["behavior"], diag)
        for key in bitems:
            if key != "gamma":
                diag.add(bitems[key], f"unknown key behavior.{key}")
        if "gamma" in bitems:
            gamma = _to_float(bitems["gamma"], "behavior.gamma", diag)
            if gamma is not None and not 0.0 < gamma <= 1.0:
                diag.add(bitems["gamma"], "behavior.gamma must be in (0, 1]")
                gamma = None
        else:
            diag.add(items["behavior"], "behavior.gamma is required")
    elif "behavior" in items:
        diag.add(items["behavior"], "behavior must be a mapping")
    else:
        diag.messages.append("line 1: behavior section is required")

    targets: List[TargetSpec] = []
    if "targets" in items:
        targets = _parse_targets(items["targets"], diag)
    else:
        diag.messages.append("line 1: targets section is required")
    target_ids = [t.id for t in targets]

    sources: List[SourceSpec] = []
    if "sources" in items:
        sources = _parse_sources(items["sources"], target_ids, diag)
    else:
        diag.messages.append("line 1: sources section is required")
    source_ids = [s.id for s in sources]

    complete, edges = False, []
    if "edges" in items:
        complete, edges = _parse_edges(items["edges"], target_ids, source_ids, diag)
    else:
        diag.messages.append("line 1: edges section is required")

    solver = (
        _parse_overrides(items["solver"], _SOLVER_KEYS, "solver", diag)
        if "solver" in items
        else {}
    )
    admm = (
        _parse_overrides(items["admm"], _ADMM_KEYS, "admm", diag)
        if "admm" in items
        else {}
    )

    if diag.messages:
        raise ScenarioError(diag.messages)

    # fill default utility slopes so serialization is canonical
    filled_sources = []
    for s in sources:
        incident = [x for (x, y) in edges if y == s.id]
        coeffs = {x: s.utility_coeffs.get(x, 1.0) for x in incident}
        filled_sources.append(
            SourceSpec(s.id, s.supply_upper, s.supply_lower, s.weight_tau, coeffs)
        )

    try:
        network = TransportNetwork(tuple(targets), tuple(filled_sources), tuple(edges))
        behavior = BehavioralModel(gamma)
    except DomainError as exc:
        raise ScenarioError([str(exc)]) from exc
    return ScenarioFile(network, behavior, complete, solver, admm)


def write_scenario(scenario: ScenarioFile) -> str:
    """Canonical serialization; parse(write(x)) == x for valid scenarios."""
    doc: Dict[str, object] = {
        "behavior": {"gamma": scenario.behavior.gamma},
        "targets": [
            {
                "id": t.id,
                "loss_value": t.loss_value,
                "prob_model": {
                    "family": t.prob_model.family,
                    "baseline": t.prob_model.baseline,
                },
                "demand_lower": t.demand_lower,
                "demand_upper": t.demand_upper,
            }
            for t in scenario.network.targets
        ],
        "sources": [
            {
                "id": s.id,
                "supply_upper": s.supply_upper,
                "supply_lower": s.supply_lower,
                "weight_tau": s.weight_tau,
                "utility_coeffs": dict(s.utility_coeffs),
            }
            for s in scenario.network.sources
        ],
        "edges": "complete"
        if scenario.edges_complete
        else [[x, y] for (x, y) in scenario.network.edges],
    }
    if scenario.solver:
        doc["solver"] = dict(scenario.solver)
    if scenario.admm:
        doc["admm"] = dict(scenario.admm)
    return yaml.safe_dump(doc, default_flow_style=False, sort_keys=False)


def build_case_study() -> Tuple[TransportNetwork, BehavioralModel]:
    """The canonical 2-source x 5-target desk-scale study.

    Loss values 12/9/5/3/2, supplies 10 and 4, exponential probability
    with unit baseline, unit utility slopes, tau = 0.25, gamma = 0.5.
    """
    prob = AttackProbabilityModel.exponential(1.0)
    targets = tuple(
        TargetSpec(f"t{k + 1}", loss, prob)
        for k, loss in enumerate([12.0, 9.0, 5.0, 3.0, 2.0])
    )
    coeffs = {t.id: 1.0 for t in targets}
    sources = (
        SourceSpec("s1", 10.0, 0.0, 0.25, dict(coeffs)),
        SourceSpec("s2", 4.0, 0.0, 0.25, dict(coeffs)),
    )
    return TransportNetwork.complete(targets, sources), BehavioralModel(0.5)


def build_case_study_scenario() -> ScenarioFile:
    network, behavior = build_case_study()
    return ScenarioFile(network, behavior, True, {}, {})


# --------------------------------------------------------------------------
# CSV serialization (9 significant digits, deterministic bytes)


def _fmt(value: float) -> str:
    return format(value, ".9g")


def write_sweep_csv(result: SweepResult, destination) -> None:
    header = (
        ["param"]
        + [f"target_{tid}" for tid in result.target_ids]
        + ["true_loss", "perceived_loss", "active_targets"]
    )
    lines = [",".join(header)]
    for sample in result.samples:
        row = (
            [_fmt(sample.param_value)]
            + [_fmt(a) for a in sample.aggregates]
            + [
                _fmt(sample.true_loss),
                _fmt(sample.perceived_loss),
                str(sample.active_targets),
            ]
        )
        lines.append(",".join(row))
    with open(destination, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_trace_csv(report: SolveReport, destination) -> None:
    lines = ["iteration,primal_residual,objective"]
    for record in report.residual_trace:
        lines.append(
            f"{record.iteration},{_fmt(record.primal_residual)},{_fmt(record.objective)}"
        )
    with open(destination, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
