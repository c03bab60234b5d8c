"""Script execution: parse a JSON construction script, run it, emit a report.

A script names a base, a family of algebras, and a list of steps. The
resulting report embeds every certificate the steps produced, replays each
one against the final tower before the report leaves this module, and
counts honest UNKNOWNs among the required claims. Reports are rendered
with sorted keys and fixed indentation so identical runs are identical
bytes.

A run's certificates share premise objects, so they form a DAG, and each
object is handled once: replay() checks it once while it passes (a visit
counts as passed when its whole subtree replays), the report holds one dict
per object, and the renderer writes a container met at several places once
and re-indents that text for the other places.
Steps are dispatched through _STEPS, one handler per step kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from json.encoder import encode_basestring_ascii

from .arith import witness_sequence
# certificates_in_report and context_from_report live with the checker; they
# stay importable from here as well
from .certificates import (
    FormLike,
    Status,
    certificates_in_report,
    context_from_report,
    form_from_json,
    iter_certificates,
    replay,
    shared_json,
)
from .errors import InputError, _is_int, _quoted
from .quaternion import QuaternionAlgebra
from .symbolic import SymbolicAlgebra, SymbolicClass, symbolic_albert_form
from .tower import (
    AbstractBase,
    Assumption,
    Family,
    RationalBase,
    TowerState,
    TrackedStatement,
    adjoin,
    iterate_pushing,
    run_alternating_truncation,
    step_linking_extension,
    step_pushing_extension,
)

SCHEMA = "tower-report/1"


_WINDOW = 10  # the window limit of a step that names none
_MAX_ROUNDS = 3  # the round budget of an iterate that names none


@dataclass(frozen=True)
class RunConfig:
    """No settings: each step states its own, or takes the defaults above."""

    def to_json(self) -> dict:
        # tower-report/1 requires these keys; nothing reads them
        return {
            "height_bound": 200,
            "witness_window": _WINDOW,
            "max_levels": _MAX_ROUNDS,
            "seed": 0,
        }


@dataclass(frozen=True)
class Script:
    base: RationalBase | AbstractBase
    family: Family  # empty over an abstract base
    abstract: tuple[SymbolicAlgebra, ...]
    steps: tuple[dict, ...]

    @property
    def is_concrete(self) -> bool:
        return isinstance(self.base, RationalBase)


def _parse_abstract_form(data: object, algebras: list[SymbolicAlgebra]) -> FormLike:
    if isinstance(data, dict) and "norm_of" in data:
        idx = data["norm_of"]
        if not _is_int(idx) or not 0 <= idx < len(algebras):
            raise InputError(f"norm_of index out of range: {_quoted(idx)}")
        return algebras[idx].norm_form()
    if isinstance(data, dict) and "albert_of" in data:
        pair = data["albert_of"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(i) and 0 <= i < len(algebras) for i in pair)
        ):
            raise InputError(f"albert_of needs two algebra indices: {_quoted(pair)}")
        return symbolic_albert_form(algebras[pair[0]], algebras[pair[1]])
    return form_from_json(data)


def parse_script(data: object) -> Script:
    if not isinstance(data, dict):
        raise InputError("a script must be a JSON object")
    raw_base = data.get("base", "rationals")
    raw_algebras = data.get("algebras", [])
    if not isinstance(raw_algebras, list):
        raise InputError("algebras must be a list")
    steps = data.get("steps", [])
    if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
        raise InputError("steps must be a list of objects")
    if raw_base == "rationals":
        concrete = []
        for entry in raw_algebras:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_int(x) for x in entry)
            ):
                raise InputError(f"a concrete algebra is a [a, b] pair: {_quoted(entry)}")
            concrete.append(QuaternionAlgebra.of(entry[0], entry[1]))
        return Script(RationalBase(), Family.of(concrete), (), tuple(steps))
    if isinstance(raw_base, dict) and "abstract" in raw_base:
        block = raw_base["abstract"]
        if not isinstance(block, dict):
            raise InputError("abstract base must be an object")
        symbols = block.get("symbols", [])
        if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
            raise InputError("abstract symbols must be strings")
        abstract: list[SymbolicAlgebra] = []
        for entry in raw_algebras:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("symbols"), list)
                or len(entry["symbols"]) != 2
            ):
                raise InputError(f"an abstract algebra is {{'symbols': [a, b]}}: {_quoted(entry)}")
            a, b = entry["symbols"]
            if a not in symbols or b not in symbols:
                raise InputError(
                    f"algebra symbols {_quoted(a)}, {_quoted(b)} must be declared in the base"
                )
            abstract.append(SymbolicAlgebra(SymbolicClass.named(a), SymbolicClass.named(b)))
        raw_assumptions = block.get("assumptions", [])
        if not isinstance(raw_assumptions, list):
            raise InputError("assumptions must be a list")
        assumptions = []
        seen: set[str] = set()
        for raw in raw_assumptions:
            if not isinstance(raw, dict) or "id" not in raw or "anisotropic" not in raw:
                raise InputError(f"an assumption needs 'id' and 'anisotropic': {_quoted(raw)}")
            ident = raw["id"]
            if not isinstance(ident, str) or ident in seen:
                raise InputError(f"assumption ids must be unique strings: {_quoted(ident)}")
            seen.add(ident)
            subject = _parse_abstract_form(raw["anisotropic"], abstract)
            assumptions.append(Assumption(ident, subject))
        base = AbstractBase(tuple(symbols), tuple(assumptions))
        return Script(base, Family(()), tuple(abstract), tuple(steps))
    raise InputError(f"unknown base: {_quoted(raw_base)}")


_MAX_WINDOW = 1000  # the largest window limit a script may name


def _window_classes(raw: object) -> list[int]:
    if _is_int(raw):
        if not 1 <= raw <= _MAX_WINDOW:
            raise InputError(f"window limit must be between 1 and {_MAX_WINDOW}: {raw}")
        return witness_sequence(raw)
    if isinstance(raw, list) and all(_is_int(c) for c in raw):
        return list(raw)
    raise InputError(f"window must be a limit or a list of classes: {_quoted(raw)}")


@dataclass(frozen=True)
class _AdjoinStep:
    gate: TrackedStatement  # its subject is the adjoined form

    def to_json(self) -> dict:
        return {"kind": "adjoin", "form": self.gate.subject.to_json(), "gate": self.gate.to_json()}

    def required_statements(self) -> list[TrackedStatement]:
        return [self.gate]


def _pushing(state: TowerState, script: Script, raw: dict):
    classes = raw.get("classes")
    if not isinstance(classes, list) or not all(_is_int(c) for c in classes):
        raise InputError("the pushing step needs a list of integer classes")
    return step_pushing_extension(state, script.family, classes)


def _linking(state: TowerState, script: Script, raw: dict):
    family = script.family if script.is_concrete else list(script.abstract)
    return step_linking_extension(state, family)


def _given(raw: dict, key: str, default: object) -> object:
    """The step's value for key; a missing key and an explicit null both take the default."""
    value = raw.get(key)
    return default if value is None else value


def _iterate(state: TowerState, script: Script, raw: dict):
    window = _window_classes(_given(raw, "window", _WINDOW))
    max_rounds = _given(raw, "max_rounds", _MAX_ROUNDS)
    if not _is_int(max_rounds):
        raise InputError("max_rounds must be an integer")
    return iterate_pushing(state, script.family, window, max_rounds)


def _alternate(state: TowerState, script: Script, raw: dict):
    window = _window_classes(_given(raw, "window", _WINDOW))
    rounds = _given(raw, "rounds", 1)
    max_rounds = _given(raw, "max_rounds", _MAX_ROUNDS)
    if not _is_int(rounds) or not _is_int(max_rounds):
        raise InputError("rounds and max_rounds must be integers")
    return run_alternating_truncation(state, script.family, window, rounds, max_rounds)


def _adjoin(state: TowerState, script: Script, raw: dict):
    state, gate = adjoin(state, form_from_json(raw.get("form")))
    return state, _AdjoinStep(gate)


# step kind -> handler returning the next state and a step with to_json()
# and required_statements()
_STEPS = {
    "pushing": _pushing,
    "linking": _linking,
    "iterate": _iterate,
    "alternate": _alternate,
    "adjoin": _adjoin,
}


def execute_script(script: Script, config: RunConfig) -> dict:
    """Run the steps, replay every certificate, and assemble the report.

    Certificates cite their premises' objects, so the run's certificates
    form a DAG. A visit of a node passes when replay() passes its whole
    subtree, which checks each node object once while they pass, and the
    report holds one dict per node object (shared_json).
    """
    with shared_json():
        return _execute(script, config)


def _execute(script: Script, config: RunConfig) -> dict:
    state = TowerState(script.base)
    step_reports: list[dict] = []
    required: list[TrackedStatement] = []
    for raw in script.steps:
        kind = raw.get("kind")
        handler = _STEPS.get(kind) if isinstance(kind, str) else None
        if handler is None:
            raise InputError(f"unknown step kind: {_quoted(kind)}")
        state, step = handler(state, script, raw)
        step_reports.append(step.to_json())
        required += step.required_statements()
    context = state.replay_context()
    checked = passed = 0
    tracked_statements = [state.statement(f) for f in state.tracked]
    for stmt in required + tracked_statements:
        if stmt.certificate is None:
            continue
        for cert in iter_certificates(stmt.certificate):
            checked += 1
            passed += replay(cert, context)
    unknowns = [stmt for stmt in required if stmt.status is Status.UNKNOWN]
    report = {
        "schema": SCHEMA,
        "base": script.base.to_json(),
        "algebras": [a.to_json() for a in (script.family.algebras or script.abstract)],
        "config": config.to_json(),
        "steps": step_reports,
        "final_state": {
            **state.to_json(),
            "tracked": [s.to_json() for s in tracked_statements],
        },
        "replay": {"checked": checked, "passed": passed},
        "unknown_count": len(unknowns),
        "unknown_subjects": [str(s.subject) for s in unknowns],
    }
    return report


def report_exit_code(report: dict) -> int:
    if report["unknown_count"] > 0:
        return 4
    if report["replay"]["checked"] != report["replay"]["passed"]:
        return 1
    return 0


_BATCH = 4096  # parts joined into one piece, so no list holds every token
_int_repr = int.__repr__  # as json does: an IntEnum renders as its number
_END = object()
_STR = repeat(str)  # all(map(isinstance, d, _STR)): every key of d is a str
_INT = repeat(int)  # all(map(is_, _INT, map(type, xs))): every item of xs is an exact int
# the writer of each scalar, by exact type; a subclass takes the isinstance route
_SCALARS = {
    str: encode_basestring_ascii,
    int: _int_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _shared_containers(value: object) -> set[int]:
    """The ids of the non-empty lists, tuples and dicts reached at two or more places.

    A container is walked the first time it is reached only, so one inside a
    shared container is not counted again for each copy. Subclasses of list,
    tuple and dict are walked too, so every container that iter_report opens
    is walked: a container on a cycle is reached from its parent (or is the
    root) and again from inside itself, so it is in the set, and iter_report
    checks for cycles at these containers only. Beyond that the set only
    tells iter_report which texts to keep: a wrong entry costs time, never
    bytes, so dict keys are not checked, and a list of ints, which is
    written in one join wherever it is met, may be counted and not kept.
    """
    seen: set[int] = set()
    shared: set[int] = set()
    scalars = _SCALARS
    stack = [value]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is dict:
            items = value.values()
        elif kind is list or kind is tuple:
            items = value
        elif kind in scalars:
            continue
        elif isinstance(value, dict):
            items = value.values()
        elif isinstance(value, (list, tuple)):
            items = value
        else:
            continue
        ident = id(value)
        if ident in seen:
            shared.add(ident)
        elif value:
            seen.add(ident)
            stack.extend(items)
    return shared


def render_report(report: dict) -> str:
    """The pieces of iter_report joined: json.dumps(report, indent=2, sort_keys=True) + "\\n"."""
    return "".join(iter_report(report))


def iter_report(report: dict):
    """Canonical byte-stable JSON in pieces, so a writer need not hold it whole.

    With indent set, json.dumps runs a pure-Python encoder that nests one
    generator per container level, so every chunk is resumed through every
    enclosing level. This walk keeps the open containers on an explicit
    stack instead. Strings, ints, bools and None are written here, each by
    its exact type's writer in _SCALARS; a subclass of str or int takes the
    isinstance route that json.dumps takes. Anything else (floats, a dict
    with a non-str key, an unserializable object) is handed to json.dumps
    whole and re-indented, which is exact because encoded JSON holds no raw
    newline. Any JSON value renders, not only reports.

    While a container is open, the loop writes its scalar items in place and
    goes back to the top only for an item that is not one. A non-empty list
    of exact ints is written in one join.

    A report cites one certificate dict from many places. A container met
    at two or more places is written once: its text is kept, dedented to
    depth 0, and each later occurrence appends it re-indented to its own
    depth. The first occurrence is written in traversal order, so a cycle
    or an unserializable value raises just where json.dumps raises: every
    container on a cycle is shared, so only shared containers are checked.
    """
    shared = _shared_containers(report)
    written: dict[int, str] = {}  # id -> text at depth 0, for shared containers
    captures: list[int] = []  # index in parts where each open shared container starts
    newlines = ["\n", "\n  "]  # newlines[d] == "\n" + "  " * d, up to the depth of open items
    separators = [",\n", ",\n  "]  # "," + newlines[d]
    parts: list[str] = []
    append = parts.append
    encode = encode_basestring_ascii
    scalar = _SCALARS.get
    # one frame per open container: (iterator over its items, is a dict,
    # separator between items, id if shared for the cycle check, else None)
    stack: list[tuple] = []
    open_ids: set[int] = set()
    depth = 0
    value: object = report
    while True:
        if len(parts) >= _BATCH and not captures:
            yield "".join(parts)
            parts.clear()
        kind = type(value)
        if kind is list or kind is tuple:
            is_dict = False
        elif kind is dict or isinstance(value, dict):
            is_dict = all(map(isinstance, value, _STR)) or None  # None: json.dumps sorts the keys
        else:
            is_dict = False if isinstance(value, (list, tuple)) else None
        if is_dict is None:  # a scalar at the root, a subclass, or a value json.dumps writes
            write = scalar(kind)
            if write is not None:
                append(write(value))
            elif isinstance(value, str):
                append(encode(value))
            elif isinstance(value, int):
                append(_int_repr(value))
            else:
                append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newlines[depth]))
        elif not value:
            append("{}" if is_dict else "[]")
        elif kind is list and type(value[0]) is int and all(map(is_, _INT, map(type, value))):
            append("[" + newlines[depth + 1] + separators[depth + 1].join(map(_int_repr, value))
                   + newlines[depth] + "]")
        else:
            ident = id(value)
            if ident not in shared:
                ident = None
            elif ident in written:
                append(written[ident].replace("\n", newlines[depth]))  # depth >= 1: not the root
                if not captures:  # a reused text can be megabytes: it ends its piece
                    yield "".join(parts)
                    parts.clear()
                is_dict = None  # written: nothing to open
            elif ident in open_ids:
                raise ValueError("Circular reference detected")
            else:
                open_ids.add(ident)
                captures.append(len(parts))
            if is_dict is not None:
                depth += 1
                if depth + 1 == len(newlines):
                    newlines.append(newlines[-1] + "  ")
                    separators.append(separators[-1] + "  ")
                items = iter(sorted(value.items()) if is_dict else value)
                stack.append((items, is_dict, separators[depth], ident))
                if is_dict:
                    key, value = next(items)
                    head = "{" + newlines[depth] + encode(key) + ": "
                else:
                    value = next(items)
                    head = "[" + newlines[depth]
                write = scalar(type(value))
                if write is None:
                    append(head)
                    continue
                append(head + write(value))
        # the value is written: write the scalar items that follow it, closing
        # finished containers, up to the next item that is not a scalar
        while stack:
            items, is_dict, separator, ident = stack[-1]
            if is_dict:
                for key, value in items:
                    write = scalar(type(value))
                    if write is None:
                        append(separator + encode(key) + ": ")
                        break
                    append(separator + encode(key) + ": " + write(value))
                else:
                    value = _END
            else:
                for value in items:
                    write = scalar(type(value))
                    if write is None:
                        append(separator)
                        break
                    append(separator + write(value))
                else:
                    value = _END
            if value is not _END:
                break
            stack.pop()
            depth -= 1
            append(newlines[depth] + ("}" if is_dict else "]"))
            if ident is not None:
                open_ids.discard(ident)
                start = captures.pop()
                text = "".join(parts[start:])
                del parts[start:]
                append(text)
                written[ident] = text.replace(newlines[depth], "\n") if depth else text
        else:
            append("\n")
            yield "".join(parts)
            return


def summarize_report(report: dict) -> str:
    lines = [
        f"base: {report['base'] if isinstance(report['base'], str) else 'abstract'}",
        f"algebras: {len(report['algebras'])}",
        f"steps: {len(report['steps'])}",
        f"levels: {len(report['final_state']['levels'])}",
        f"replay: {report['replay']['passed']}/{report['replay']['checked']}",
        f"unknown required claims: {report['unknown_count']}",
    ]
    for step in report["steps"]:
        kind = step.get("kind")
        if kind == "pushing":
            lines.append(
                f"  pushing classes={step['classes']} adjoined={len(step['adjoined'])}"
            )
        elif kind == "linking":
            lines.append(f"  linking adjoined={len(step['adjoined'])}")
        elif kind == "iterate-pushing":
            lines.append(
                f"  iterate rounds={len(step['rounds'])} stabilized={step['stabilized']}"
            )
        elif kind == "alternating-truncation":
            lines.append(f"  alternate rounds={len(step['rounds'])}")
        elif kind == "adjoin":
            lines.append(f"  adjoin {step['form']}")
    return "\n".join(lines) + "\n"


def run_script_data(data: object, config: RunConfig) -> tuple[dict, int]:
    script = parse_script(data)
    report = execute_script(script, config)
    return report, report_exit_code(report)
