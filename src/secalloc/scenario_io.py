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

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .admm import AdmmConfig
from .centralized import SolverConfig
from .errors import ScenarioError
from .model import (
    AttackProbabilityModel,
    BehavioralModel,
    SolveReport,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    bound_problems,
    field_problem,
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
    try:  # YAML spells the non-finite floats .inf, -.inf and .nan
        return float(text.replace(".inf", "inf").replace(".nan", "nan"))
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


_SCALARS = {float: _to_float, int: _to_int, str: _to_str}
# a non-scalar field's reader: (node, path, diag) -> value, or None after a diagnostic
_Reader = Callable[[object, str, _Diag], object]


def _read_record(
    node,
    path: str,
    kinds: Mapping[str, object],
    diag: _Diag,
    required: Sequence[str] = (),
    rule: Optional[str] = None,
    unknown: str = "unknown key {path}.{key}",
) -> Optional[Dict[str, object]]:
    """Read the mapping ``node`` against ``kinds``, key -> float, int, str or
    a _Reader, and return the values that pass.

    Each scalar is converted, then checked against ``FIELD_RULES`` under
    ``rule``, or under its key when ``rule`` is None; each diagnostic names
    the line of its value. Returns None when the record cannot be built:
    ``node`` is no mapping, a required key is missing or rejected, or two
    bounds cross.
    """
    if not _is_map(node):
        diag.add(node, f"{path} must be a mapping")
        return None
    items = _map_items(node, diag)
    values: Dict[str, object] = {}
    for key, value_node in items.items():
        if key not in kinds:
            diag.add(value_node, unknown.format(path=path, key=key))
            continue
        value = _SCALARS.get(kinds[key], kinds[key])(value_node, f"{path}.{key}", diag)
        if value is not None:
            values[key] = value
    accepted: Dict[str, object] = {}
    for key, value in values.items():
        problem = kinds[key] in _SCALARS and field_problem(
            rule or key, value, values.get("family")
        )
        if problem:
            diag.add(items[key], f"{path}.{key} {problem}")
        else:
            accepted[key] = value
    for key in required:
        if key not in items:
            diag.add(node, f"{path}.{key} is required")
    crossed = bound_problems(values)
    for phrase in crossed:
        diag.add(node, f"{path}: {phrase}")
    if crossed or not accepted.keys() >= set(required):
        return None
    return accepted


def _read_list(
    node, section: str, kinds: Mapping[str, object], required: Sequence[str], diag: _Diag
) -> List[Dict[str, object]]:
    """The records of a non-empty list that can be built, in order."""
    if not _is_seq(node) or not node.value:
        diag.add(node, f"{section} must be a non-empty list")
        return []
    records = (
        _read_record(item, f"{section}[{k}]", kinds, diag, required)
        for k, item in enumerate(node.value)
    )
    return [r for r in records if r is not None]


def _new_id(what: str, declared: List[str]) -> _Reader:
    """Reader of the ``id`` field, rejecting an id already read. Each id it
    accepts is appended to ``declared``, so that references to it resolve
    even when another field of its record is rejected."""

    def read(node, path: str, diag: _Diag) -> Optional[str]:
        value = _to_str(node, path, diag)
        if value is None:  # a mapping or list leaves the record without an id
            diag.add(node, f"{path} is required")
        elif value in declared:
            diag.add(node, f"duplicate {what} id {value!r}")
            return None
        else:
            declared.append(value)
        return value

    return read


def _to_prob_model(node, path: str, diag: _Diag) -> Optional[AttackProbabilityModel]:
    if not _is_map(node):
        diag.add(node, f"{path} must be a mapping with family and baseline")
        return None
    values = _read_record(
        node, path, {"family": str, "baseline": float}, diag, ("family", "baseline")
    )
    return None if values is None else AttackProbabilityModel(**values)


def _coeffs_reader(target_ids: Sequence[str]) -> _Reader:
    """Reader of ``utility_coeffs``: a slope for each of some declared targets."""
    kinds = dict.fromkeys(target_ids, float)
    return lambda node, path, diag: _read_record(
        node, path, kinds, diag, rule="utility_coeffs",
        unknown="{path} references unknown target {key!r}",
    )


_TARGET_KINDS = {
    "loss_value": float,
    "prob_model": _to_prob_model,
    "demand_lower": float,
    "demand_upper": float,
}
_DEFAULT_PROB_MODEL = AttackProbabilityModel.exponential(1.0)
_SOURCE_KINDS = {"supply_upper": float, "supply_lower": float, "weight_tau": float}
# a config's scenario keys are its dataclass fields, typed by their defaults
_SOLVER_KINDS = {"mode": str, **{f.name: type(f.default) for f in fields(SolverConfig)}}
_ADMM_KINDS = {f.name: type(f.default) for f in fields(AdmmConfig)}


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
    declared_targets, declared_sources = set(target_ids), set(source_ids)
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
        if x not in declared_targets:
            diag.add(item.value[0], f"{path} references undeclared target {x!r}")
            continue
        if y not in declared_sources:
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
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow
        line = text.count("\n", 0, exc.position) + 1
        problem = f"character #x{exc.character:04x} is not allowed"
        raise ScenarioError([f"line {line}: {problem}"]) from exc
    if root is None or not _is_map(root):
        raise ScenarioError(["line 1: scenario must be a YAML mapping"])

    diag = _Diag()
    items = _map_items(root, diag)
    for key in items:
        if key not in ("behavior", "targets", "sources", "edges", "solver", "admm"):
            diag.add(items[key], f"unknown top-level key {key!r}")
    for key in ("behavior", "targets", "sources", "edges"):
        if key not in items:
            diag.messages.append(f"line 1: {key} section is required")

    behavior = None
    if "behavior" in items:
        behavior = _read_record(items["behavior"], "behavior", {"gamma": float}, diag, ("gamma",))
    target_ids: List[str] = []
    targets: List[Dict[str, object]] = []
    if "targets" in items:
        kinds = {"id": _new_id("target", target_ids), **_TARGET_KINDS}
        targets = _read_list(items["targets"], "targets", kinds, ("id", "loss_value"), diag)
    source_ids: List[str] = []
    sources: List[Dict[str, object]] = []
    if "sources" in items:
        kinds = {
            "id": _new_id("source", source_ids),
            **_SOURCE_KINDS,
            "utility_coeffs": _coeffs_reader(target_ids),
        }
        sources = _read_list(items["sources"], "sources", kinds, ("id", "supply_upper"), diag)
    complete, edges = False, []
    if "edges" in items:
        complete, edges = _parse_edges(items["edges"], target_ids, source_ids, diag)
    solver, admm = (
        _read_record(items[key], key, kinds, diag) if key in items else {}
        for key, kinds in (("solver", _SOLVER_KINDS), ("admm", _ADMM_KINDS))
    )

    if diag.messages:
        raise ScenarioError(diag.messages)

    # every record passed the same rules its constructor applies, so none raises;
    # default utility slopes are filled in so that serialization is canonical
    incident: Dict[str, List[str]] = {y: [] for y in source_ids}
    for x, y in edges:
        incident[y].append(x)
    network = TransportNetwork(
        tuple(TargetSpec(**{"prob_model": _DEFAULT_PROB_MODEL, **t}) for t in targets),
        tuple(
            SourceSpec(**{
                **s,
                "utility_coeffs": {
                    x: s.get("utility_coeffs", {}).get(x, 1.0) for x in incident[s["id"]]
                },
            })
            for s in sources
        ),
        tuple(edges),
    )
    return ScenarioFile(network, BehavioralModel(**behavior), complete, solver, admm)


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
