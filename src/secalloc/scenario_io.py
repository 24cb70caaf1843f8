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

A record's keys are the fields of its dataclass, and those with no
default are required. Validation collects *every* violation with its
line number before raising, so a broken file can be fixed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .admm import AdmmConfig
from .centralized import SolverConfig
from .errors import DomainError, ScenarioError
from .model import (
    AttackProbabilityModel,
    BehavioralModel,
    SolveReport,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    _schema,
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


class _Diag:
    def __init__(self) -> None:
        self.messages: List[str] = []

    def add(self, node, message: str) -> None:
        self.messages.append(f"line {node.start_mark.line + 1}: {message}")


def _map_items(node, diag: _Diag) -> Dict[str, object]:
    items: Dict[str, object] = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            diag.add(key_node, "mapping keys must be scalars")
            continue
        key = key_node.value
        if key in items:
            diag.add(key_node, f"duplicate key {key!r}")
            continue
        items[key] = value_node
    return items


# a field's reader: (node, path, diag) -> value, or None after a diagnostic
_Reader = Callable[[object, str, _Diag], object]


def _scalar_reader(kind: str, convert: Callable[[str], object]) -> _Reader:
    """Reader of a scalar node's text through ``convert``; a node that is no
    scalar, or text that ``convert`` rejects, "must be ``kind``"."""

    def read(node, path: str, diag: _Diag):
        if not isinstance(node, yaml.ScalarNode):
            diag.add(node, f"{path} must be {kind}")
            return None
        try:
            return convert(node.value)
        except ValueError:
            diag.add(node, f"{path} must be {kind}, got {node.value!r}")
            return None

    return read


def _yaml_float(text: str) -> float:
    # YAML spells the non-finite floats .inf, -.inf and .nan
    text = text.replace("_", "").lower()
    return float(text.replace(".inf", "inf").replace(".nan", "nan"))


_to_float = _scalar_reader("a number", _yaml_float)
_to_int = _scalar_reader("an integer", lambda text: int(text.replace("_", "")))
_to_str = _scalar_reader("a string", str)
_SCALARS = {float: _to_float, int: _to_int, str: _to_str}


def _read_record(
    node,
    path: str,
    diag: _Diag,
    kinds: Mapping[str, object],
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
    if not isinstance(node, yaml.MappingNode):
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
    # a rejected bound is left out, so it cannot also report a crossing
    crossed = bound_problems(accepted)
    for phrase in crossed:
        diag.add(node, f"{path}: {phrase}")
    return None if crossed or not accepted.keys() >= set(required) else accepted


def _read_list(items, section: str, diag: _Diag, cls, **readers: _Reader) -> List[dict]:
    """The records of ``cls`` that can be built from the non-empty list
    ``items[section]``, in order, [] without it; ``readers`` read the
    fields that are not scalars."""
    node = items.get(section)
    if node is None:
        return []
    if not isinstance(node, yaml.SequenceNode) or not node.value:
        diag.add(node, f"{section} must be a non-empty list")
        return []
    kinds, required, _ = _schema(cls)
    kinds = {**kinds, **readers}
    records = (
        _read_record(item, f"{section}[{k}]", diag, kinds, required)
        for k, item in enumerate(node.value)
    )
    return [r for r in records if r is not None]


def _new_id(what: str, declared: List[str]) -> _Reader:
    """Reader of the ``id`` field, rejecting an id already read. Each id it
    accepts is appended to ``declared``, so that references to it resolve
    even when another field of its record is rejected."""
    seen = set(declared)

    def read(node, path: str, diag: _Diag) -> Optional[str]:
        value = _to_str(node, path, diag)
        if value is None:  # a mapping or list leaves the record without an id
            diag.add(node, f"{path} is required")
        elif value in seen:
            diag.add(node, f"duplicate {what} id {value!r}")
            return None
        else:
            declared.append(value)
            seen.add(value)
        return value

    return read


def _to_prob_model(node, path: str, diag: _Diag) -> Optional[AttackProbabilityModel]:
    kinds, required, _ = _schema(AttackProbabilityModel)
    if not isinstance(node, yaml.MappingNode):
        diag.add(node, f"{path} must be a mapping with {' and '.join(required)}")
        return None
    values = _read_record(node, path, diag, kinds, required)
    return None if values is None else AttackProbabilityModel(**values)


def _coeffs_reader(target_ids: Sequence[str]) -> _Reader:
    """Reader of ``utility_coeffs``: a slope for each of some declared targets."""
    kinds = dict.fromkeys(target_ids, float)
    return lambda node, path, diag: _read_record(
        node, path, diag, kinds, rule="utility_coeffs",
        unknown="{path} references unknown target {key!r}",
    )


def _parse_edges(
    node,
    target_ids: Sequence[str],
    source_ids: Sequence[str],
    diag: _Diag,
) -> Tuple[bool, List[Tuple[str, str]]]:
    if isinstance(node, yaml.ScalarNode) and node.value == "complete":
        return True, [(x, y) for x in target_ids for y in source_ids]
    if not isinstance(node, yaml.SequenceNode):
        diag.add(node, 'edges must be "complete" or a list of [target, source]')
        return False, []
    declared_targets, declared_sources = set(target_ids), set(source_ids)
    edges: List[Tuple[str, str]] = []
    seen = set()
    for k, item in enumerate(node.value):
        path = f"edges[{k}]"
        if not isinstance(item, yaml.SequenceNode) or len(item.value) != 2:
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
    for kind, ids, end in (("target", target_ids, 0), ("source", source_ids, 1)):
        wired = {edge[end] for edge in edges}
        for node_id in ids:
            if node_id not in wired:
                diag.add(node, f"{kind} {node_id!r} has no incident edge")
    return False, edges


# a valid scenario nests 4 collections deep; the limit caps the composer's
# stack of open collections, so a deeper file is rejected at the first
# collection that would open past it
MAX_NESTING = 64


class _EventComposer:
    """The composer of both parsers: one loop over the parser's events that
    builds PyYAML's node tree on a stack of open collections. Tags are left
    unresolved, since the reader converts each scalar's text itself."""

    def get_single_node(self):
        def fail(problem: str):
            raise yaml.composer.ComposerError(None, None, problem, event.start_mark)

        get = self.get_event
        get()  # STREAM-START
        if self.check_event(yaml.StreamEndEvent):
            return None
        get()  # DOCUMENT-START
        anchors: Dict[str, yaml.Node] = {}
        stack: List[yaml.CollectionNode] = []  # the open collections, innermost last
        while True:
            event = get()
            kind = type(event)
            if kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
                node = stack.pop()
                node.end_mark = event.end_mark
                if kind is yaml.MappingEndEvent:  # its keys and values alternate
                    node.value = list(zip(node.value[::2], node.value[1::2]))
            elif kind is yaml.AliasEvent:
                node = anchors.get(event.anchor)
                if node is None:
                    fail(f"found undefined alias {event.anchor!r}")
                stack[-1].value.append(node)  # a root alias is undefined, so one is open
            else:
                anchor = event.anchor
                if anchor in anchors:
                    first = anchors[anchor].start_mark.line + 1
                    fail(f"found duplicate anchor {anchor!r} (first occurrence on line {first})")
                if kind is yaml.ScalarEvent:
                    node = yaml.ScalarNode(
                        event.tag, event.value, event.start_mark, event.end_mark, event.style
                    )
                elif len(stack) == MAX_NESTING:
                    fail(f"collections nest deeper than {MAX_NESTING} levels")
                else:
                    cls = yaml.SequenceNode if kind is yaml.SequenceStartEvent else yaml.MappingNode
                    node = cls(event.tag, [], event.start_mark, None, event.flow_style)
                if anchor is not None:
                    anchors[anchor] = node
                if stack:
                    stack[-1].value.append(node)
                if kind is not yaml.ScalarEvent:
                    stack.append(node)
            if not stack:  # ``node`` is the document's root
                break
        get()  # DOCUMENT-END
        event = get()
        if type(event) is not yaml.StreamEndEvent:
            fail("expected a single document in the stream, but found another document")
        return node


class _PureLoader(_EventComposer, yaml.SafeLoader):
    """The pure-Python reader: every diagnostic is its message."""


if hasattr(yaml, "CSafeLoader"):

    class _LibyamlLoader(_EventComposer, yaml.CSafeLoader):
        """libyaml's parser feeding the event composer (libyaml's own
        composer recurses on the C stack and crashes on deep nesting)."""

else:
    _LibyamlLoader = None


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and fully validate a scenario document.

    Raises ScenarioError carrying one line-anchored message per violation.
    Files are read with libyaml's parser where PyYAML has it; a file it
    rejects is read again by the pure reader, whose verdict and messages
    stand, so libyaml only adds files that the pure reader cannot read.
    """
    if _LibyamlLoader is not None:
        try:
            return _parse_with(text, _LibyamlLoader)
        except (ScenarioError, ValueError):
            # rejected, or unreadable to libyaml (it encodes the text to
            # UTF-8, which a lone surrogate fails): the pure reader decides
            pass
    return _parse_with(text, _PureLoader)


def _parse_with(text: str, loader) -> ScenarioFile:
    try:
        root = yaml.compose(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}: " if mark is not None else ""
        raise ScenarioError([f"{where}{exc.problem or 'syntax error'}"]) from exc
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow
        line = text.count("\n", 0, exc.position) + 1
        problem = f"character #x{exc.character:04x} is not allowed"
        raise ScenarioError([f"line {line}: {problem}"]) from exc
    if not isinstance(root, yaml.MappingNode):
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
        behavior = _read_record(items["behavior"], "behavior", diag, *_schema(BehavioralModel)[:2])
    target_ids: List[str] = []
    targets = _read_list(
        items, "targets", diag, TargetSpec,
        id=_new_id("target", target_ids), prob_model=_to_prob_model,
    )
    source_ids: List[str] = []
    sources = _read_list(
        items, "sources", diag, SourceSpec,
        id=_new_id("source", source_ids), utility_coeffs=_coeffs_reader(target_ids),
    )
    complete, edges = False, []
    if "edges" in items:
        complete, edges = _parse_edges(items["edges"], target_ids, source_ids, diag)
    # the solver section also sets the centralized solver's mode
    solver_kinds = {"mode": str, **_schema(SolverConfig)[0]}
    solver, admm = (
        _read_record(items[key], key, diag, kinds) if key in items else {}
        for key, kinds in (("solver", solver_kinds), ("admm", _schema(AdmmConfig)[0]))
    )

    if diag.messages:
        raise ScenarioError(diag.messages)

    # every record passed the same rules its constructor applies, so none raises;
    # default utility slopes are filled in so that serialization is canonical
    incident: Dict[str, List[str]] = {y: [] for y in source_ids}
    for x, y in edges:
        incident[y].append(x)
    for s in sources:
        given = s.get("utility_coeffs", {})
        s["utility_coeffs"] = {x: given.get(x, 1.0) for x in incident[s["id"]]}
    try:
        network = TransportNetwork(
            tuple(TargetSpec(**t) for t in targets),
            tuple(SourceSpec(**s) for s in sources),
            tuple(edges),
        )
    except DomainError as exc:  # a total over the sources: no one field's rule sees it
        diag.add(items["sources"], f"sources: {exc}")
        raise ScenarioError(diag.messages) from exc
    return ScenarioFile(network, BehavioralModel(**behavior), complete, solver, admm)


def _record_doc(record) -> Dict[str, object]:
    """The fields of the dataclass ``record`` in declaration order; a nested
    record or a mapping becomes a dict."""
    values = ((name, getattr(record, name)) for name in _schema(type(record))[0])
    return {
        name: _record_doc(v) if is_dataclass(v) else dict(v) if isinstance(v, Mapping) else v
        for name, v in values
    }


# libyaml's emitter writes the pure emitter's bytes several times faster,
# except on some ids: an empty mapping key, "\r", long strings with
# non-printable characters, and lone surrogates, which it cannot encode
_LibyamlDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def write_scenario(scenario: ScenarioFile) -> str:
    """Canonical serialization; parse(write(x)) == x for valid scenarios.

    Written by libyaml's emitter where PyYAML has it and every id is
    non-empty and printable, else by the pure emitter: the same bytes as
    ``yaml.safe_dump`` either way."""
    doc: Dict[str, object] = {
        "behavior": _record_doc(scenario.behavior),
        "targets": [_record_doc(t) for t in scenario.network.targets],
        "sources": [_record_doc(s) for s in scenario.network.sources],
        "edges": "complete"
        if scenario.edges_complete
        else [[x, y] for (x, y) in scenario.network.edges],
    }
    if scenario.solver:
        doc["solver"] = dict(scenario.solver)
    if scenario.admm:
        doc["admm"] = dict(scenario.admm)
    ids = [node.id for node in (*scenario.network.targets, *scenario.network.sources)]
    dumper = _LibyamlDumper if all(i and i.isprintable() for i in ids) else yaml.SafeDumper
    return yaml.dump(doc, Dumper=dumper, default_flow_style=False, sort_keys=False)


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
# reports and CSV files: 9 significant digits, deterministic bytes


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _write_lines(destination, lines: Sequence[str]) -> None:
    """Write ``lines``, each ended by a newline, to the file ``destination``."""
    with open(destination, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sweep_csv(result: SweepResult, destination) -> None:
    header = (
        ["param"]
        + [f"target_{tid}" for tid in result.target_ids]
        + ["true_loss", "perceived_loss", "active_targets"]
    )
    lines = [",".join(header)]
    for s in result.samples:
        values = (s.param_value, *s.aggregates, s.true_loss, s.perceived_loss)
        lines.append(",".join([*map(_fmt, values), str(s.active_targets)]))
    _write_lines(destination, lines)


def write_trace_csv(report: SolveReport, destination) -> None:
    _write_lines(destination, ["iteration,primal_residual,objective"] + [
        f"{r.iteration},{_fmt(r.primal_residual)},{_fmt(r.objective)}"
        for r in report.residual_trace
    ])
