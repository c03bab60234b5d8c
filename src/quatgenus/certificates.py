"""Replayable anisotropy/isotropy certificates for tower constructions.

A certificate is a tree whose leaves are ground facts (R-BASE verdicts over
the rationals, R-ASSUME entries from an abstract ledger) and whose inner
nodes apply exactly two persistence principles plus bookkeeping:

  R-GENERIC   the adjoined form is isotropic over its own function field
  R-PFISTER   an anisotropic 2^n-dimensional Pfister form stays anisotropic
              across a 2^n-dimensional adjunction unless Witt-equivalent to
              it, ruled out by a discriminant mismatch
  R-HOFFMANN  dim(subject) <= 2^n < dim(adjoined) preserves anisotropy
  R-MONOTONE  isotropy persists up the tower
  R-CHAIN     anisotropy at the top level holds over the union of the chain
  R-BASE      Hasse-Minkowski over Q at level 0
  R-ASSUME    declared anisotropy in an abstract ledger at level 0

check_node() re-derives the facts one node consumed from its premises' stored
fields, and replay() checks each node of a tree once; neither trusts a stored
status. Both check against a ReplayContext, a ledger and a tower;
ReplayContext() is the rationals with no levels. Every node needs
0 <= level <= the tower height; R-GENERIC, R-PFISTER and R-HOFFMANN also need
1 <= level and their `adjoined` form adjoined at that level. A malformed node
gets False in bounded work: a stored exponent is bounded before 2 is raised to
it, and a coefficient that factoring gives up on (SearchExhausted) fails the
node. replay() checks each node object at most once across all its calls
with one context: a node whose whole subtree has passed is not walked again,
and a call on such a root returns at once.
That relies on certificates being frozen: a node's JSON-valued parameters
must not be mutated in place after a replay.

context_from_report() and certificates_in_report() read what replay needs from
a report's JSON, so a report is re-verified without the engine that wrote it.

Certificate.from_json() parses exactly JSON and nothing else: a tuple, bytes,
a subclass of a JSON type or a node key other than rule, status, subject,
level, parameters and premises is an InputError. It returns shared node
objects (hash-consing): a node whose own fields are written exactly as JSON
parsed before, with identical types and keys in the same order (2 is not 2.0,
1 is not true, a missing key is not null) and over the same premise objects,
parses to the node object built then, while anyone holds it. Its own fields
are validated once. So a from-JSON replay under one ReplayContext checks each
distinct node once, however often a report repeats it. Rendered reports and
to_json() write keys in one fixed order; a node whose keys were reordered by
hand parses apart and is checked apart, with the same verdict. A node is
shared only over the premise objects it was first parsed with: the same own
fields over other premises (a tampered premise, say) make a node apart, from
the fields already validated. A shared node must not be mutated, its
parameters included.

Certificates share premises: a statement's certificate is built on its
premises' objects, so one run's certificates form a DAG. Inside a
shared_json() block, to_json() returns the same dict for the same node
object, premises included, so a report holds each node's JSON once however
often it is cited. Outside such a block every call builds fresh dicts.
"""

from __future__ import annotations

import marshal
import weakref
from bisect import insort
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from operator import is_
from typing import Iterator, Union

from .arith import factor, squarefree_part
from .errors import InputError, SearchExhausted, _crosscheck, _is_int, _quoted
from .forms import (
    DiagonalForm,
    _memo,
    invariants,
    is_isotropic,
    is_isotropic_local,
    isotropy_failure,
    pfister_exponent,
)
from .symbolic import SymbolicClass, SymbolicForm
from .symbols import place_from_json

FormLike = Union[DiagonalForm, SymbolicForm]
DiscClass = Union[int, SymbolicClass]

RULES = (
    "R-BASE",
    "R-ASSUME",
    "R-GENERIC",
    "R-MONOTONE",
    "R-PFISTER",
    "R-HOFFMANN",
    "R-CHAIN",
)

# The most levels a tower may have. A certificate over such a tower nests at
# most MAX_LEVELS + 2 nodes deep: a level-0 leaf, one node per level, and an
# R-MONOTONE or R-CHAIN node on top. At that depth a whole report still
# parses within Python's default recursion limit: json.loads recurses once per
# nesting level, though from_json, to_json and rendering do not.
MAX_LEVELS = 256
MAX_DEPTH = MAX_LEVELS + 2
# Parameter values are small JSON (a form, a place, a list of classes) that
# nest a few levels at most; deeper nesting is refused, see _json_copy.
MAX_PARAM_NESTING = 32


class Status(Enum):
    ANISOTROPIC = "anisotropic"
    ISOTROPIC = "isotropic"
    UNKNOWN = "unknown"


def form_from_json(data: object) -> FormLike:
    if isinstance(data, list):
        return DiagonalForm.from_json(data)
    if isinstance(data, dict) and "symbolic" in data:
        return SymbolicForm.from_json(data)
    raise InputError(f"not a form: {_quoted(data)}")


def disc_to_json(d: DiscClass) -> object:
    return d if isinstance(d, int) else d.to_json()


def disc_from_json(data: object) -> DiscClass:
    if _is_int(data):
        return data
    return SymbolicClass.from_json(data)


def match_key(form: FormLike) -> object:
    """What R-GENERIC matches: a concrete form's isometry class over Q, a symbolic form itself."""
    return invariants(form).key if isinstance(form, DiagonalForm) else form


def form_pfister_exponent(form: FormLike) -> int | None:
    if isinstance(form, DiagonalForm):
        return pfister_exponent(form)
    return form.pfister_exponent()


@lru_cache(maxsize=4096)
def _class_vector(t: int) -> frozenset[int]:
    """t's square class as a vector over F_2: its primes of odd exponent, and -1 when t < 0."""
    f = factor(t)
    return frozenset([p for p, e in f.prime_powers if e % 2] + [-1] * (f.sign < 0))


def _in_int_span(d: int, classes: tuple[int, ...]) -> bool:
    """Is d's square class a product of some of the classes? Elimination over
    F_2, storing one reduced class per leading (largest) prime."""
    basis: dict[int, frozenset[int]] = {}
    for t in (*classes, d):  # d last: it is in the span when it reduces to nothing
        v = _class_vector(t)
        while v and (lead := max(v)) in basis:
            v ^= basis[lead]
        if v:
            basis[lead] = v
    return not v


def disc_mismatch(d1: DiscClass, d2: DiscClass, trivialized: tuple[int, ...]) -> bool:
    """Do the discriminants differ modulo the classes a dim-2 adjunction killed?"""
    if isinstance(d1, int) and isinstance(d2, int):
        return not _in_int_span(d1 * d2, trivialized)
    if isinstance(d1, SymbolicClass) and isinstance(d2, SymbolicClass):
        # no tower adjoins a symbolic binary form, so no symbolic class trivializes
        return d1 != d2
    return False


# id(node) -> (node, its dict) while a shared_json() block is open, else None;
# holding the node keeps its id from being reused
_built_json: ContextVar[dict[int, tuple["Certificate", dict]] | None] = ContextVar(
    "_built_json", default=None
)


@contextmanager
def shared_json() -> Iterator[None]:
    """Within the block, Certificate.to_json() returns one dict per node object.

    The dicts are shared, so they must not be mutated; the table is dropped
    when the block ends, whether or not it ends with an error.
    """
    token = _built_json.set({})
    try:
        yield
    finally:
        _built_json.reset(token)


@dataclass(frozen=True, eq=False, repr=False)
class Certificate:
    rule: str
    status: Status
    subject: FormLike
    level: int
    parameters: tuple[tuple[str, object], ...]
    premises: tuple["Certificate", ...]

    # Equality and hashing walk the tree with an explicit stack, comparing each
    # node's own fields and premise count, and repr shows only those: the
    # generated ones recurse once per level and overflow on a MAX_DEPTH chain.
    def _own_fields(self) -> tuple:
        return (self.rule, self.status, self.subject, self.level, self.parameters, len(self.premises))

    def __repr__(self) -> str:
        return (
            f"Certificate(rule={self.rule!r}, status={self.status!r}, subject={self.subject!r}, "
            f"level={self.level!r}, parameters={self.parameters!r}, "
            f"premises=<{len(self.premises)} certificates>)"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a._own_fields() != b._own_fields():
                    return False
                stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self) -> int:
        # parameters are left out: they may hold lists, and equal nodes still hash equally
        return hash(
            tuple(
                (n.rule, n.status, n.subject, n.level, len(n.premises))
                for n in iter_certificates(self)
            )
        )

    def param(self, key: str) -> object:
        for k, v in self.parameters:
            if k == key:
                return v
        return None

    def to_json(self) -> dict:
        # top down with an explicit stack: each node's dict is made with an
        # empty premise list, which its premises' dicts then fill in order.
        # Inside shared_json() a node whose dict exists is cited, not rebuilt.
        built = _built_json.get()
        if built is not None and id(self) in built:
            return built[id(self)][1]
        root = self._own_json()
        if built is not None:
            built[id(self)] = (self, root)
        stack = [(self, root["premises"])]
        while stack:
            node, premises = stack.pop()
            for premise in node.premises:
                known = None if built is None else built.get(id(premise))
                if known is not None:
                    premises.append(known[1])
                    continue
                data = premise._own_json()
                if built is not None:
                    built[id(premise)] = (premise, data)
                premises.append(data)
                stack.append((premise, data["premises"]))
        return root

    def _own_json(self) -> dict:
        return {
            "rule": self.rule,
            "status": self.status.value,
            "subject": self.subject.to_json(),
            "level": self.level,
            "parameters": {
                k: v if type(v) in _SCALAR_TYPES else _json_copy(v) for k, v in self.parameters
            },
            "premises": [],
        }

    @classmethod
    def from_json(cls, data: object) -> "Certificate":
        """The certificate a JSON tree encodes, built from the table of parsed nodes.

        Equal node JSON parses to one shared node object: equal own fields,
        with identical types and key sets, over the same premise objects.
        """
        # depth first with an explicit stack of open nodes, each with its
        # own-fields entry, an iterator over its raw premises and the premises
        # built so far: each node's own fields are validated (or found valid in
        # the table) before its premises, left to right, so the first error
        # reported is the first in preorder. A node with no premises is built
        # as soon as it is opened, and never stacked.
        entry, raw = _open_node(data, 1)
        if not raw:
            return _node_of(entry, ())
        stack = [(entry, iter(raw), [])]
        while True:
            open_entry, pending, premises = stack[-1]
            for child in pending:
                entry, raw = _open_node(child, len(stack) + 1)
                if raw:
                    stack.append((entry, iter(raw), []))
                    break
                premises.append(_node_of(entry, ()))
            else:
                stack.pop()
                node = _node_of(open_entry, tuple(premises))
                if not stack:
                    return node
                stack[-1][2].append(node)


# The table of parsed nodes (hash-consing: each distinct value is built once,
# then shared): _PARSED maps an own-fields code to a node with those own
# fields, whose fields need no second validation, and which is the node they
# make over its own premise objects. Those fields over other premise objects
# make a node apart, unshared. Its values are weak references to nodes, so an
# entry goes when no one holds its node.
# The own fields are everything but "premises", and their code is their
# marshal bytes exactly as written, keys in the order given. Only fields that
# validation found exactly JSON are entered: dicts with str keys, lists, str,
# int, float, bool and None, no subclass. marshal writes 2 and 2.0, 1 and true,
# a missing key and null, and a list and a tuple apart, and writes no other
# value (bytes, a tuple) the way it writes a JSON one, so a hit is exactly JSON
# equal to what was entered, with identical types and key order.
_PARSED: dict[bytes, weakref.ref] = {}
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_OWN_KEYS = frozenset({"rule", "status", "subject", "level", "parameters"})
_STR = frozenset({str})
_STATUS_OF = {status.value: status for status in Status}


def _open_node(data: object, depth: int) -> tuple[tuple, list]:
    """A node's entry and its list of raw premises. The entry is the
    own-fields code, a live node with those own fields or None, and the
    validated own fields when there is none."""
    if type(data) is not dict:
        raise InputError(f"not a certificate: {_quoted(data)}")
    if depth > MAX_DEPTH:
        raise InputError(f"certificate nests deeper than {MAX_DEPTH} nodes")
    own = data.copy()
    raw_premises = own.pop("premises", [])
    try:
        code = marshal.dumps(own, 2)
    except ValueError:  # not JSON, or nested past any bound: validation refuses it
        code = None
    ref = _PARSED.get(code)
    known = ref and ref()
    fields = None if known is not None else _validated_fields(own)
    if type(raw_premises) is not list:
        raise InputError(
            f"malformed certificate: certificate premises must be a list: {_quoted(raw_premises)}"
        )
    return (code, known, fields), raw_premises


def _node_of(entry: tuple, premises: tuple[Certificate, ...]) -> Certificate:
    """The one node with the entry's own fields over these premise objects."""
    code, known, fields = entry
    if known is not None:
        if len(known.premises) == len(premises) and all(map(is_, known.premises, premises)):
            return known
        return replace(known, premises=premises)  # over other premises: built apart, unshared
    node = Certificate(*fields, premises)
    if code is not None:
        _remember(_PARSED, code, node)
    return node


def _remember(table: dict, key: object, node: Certificate) -> None:
    def forget(ref: weakref.ref) -> None:  # holds the table: it may run at exit
        if table.get(key) is ref:
            table.pop(key, None)

    table[key] = weakref.ref(node, forget)


def _validated_fields(own: dict) -> tuple:
    """A node's own fields, validated: rule, status, subject, level and parameters.

    InputError unless the fields are exactly JSON, under no other key.
    """
    try:
        raw_status = own["status"]
        status = _STATUS_OF.get(raw_status) if type(raw_status) is str else None
        if status is None:  # refused, or an equal str subclass that the copy refuses
            status = Status(raw_status)
        raw_subject = own["subject"]
        subject = form_from_json(raw_subject)
        level = own["level"]
        if not _is_int(level):
            raise InputError(f"certificate level must be an integer: {_quoted(level)}")
        params = own.get("parameters", {})
        if (
            type(raw_status) is str
            and type(level) is int
            and type(raw_subject) is list
            and type(own.get("rule")) in _SCALAR_TYPES
            and type(params) is dict
            and own.keys() <= _OWN_KEYS
            and _STR.issuperset(map(type, own))
        ):
            # every other field is an exact scalar, or an exact list that
            # DiagonalForm.from_json found to hold exact ints: parameters are
            # the one raw value a node keeps, and the one copied, each value
            # from depth 1 as in the full copy below
            params = _json_copy(params, 0)
        else:
            # the full copy refuses what is not exactly JSON, and reports the
            # first such value in key order; the node's dict sits at depth -1
            own = _json_copy(own, -1)
            unknown = own.keys() - _OWN_KEYS
            if unknown:
                raise InputError(f"unknown certificate field: {_quoted(min(unknown))}")
            params = own.get("parameters", {})
            if type(params) is not dict:
                raise InputError(f"certificate parameters must be an object: {_quoted(params)}")
        return own["rule"], status, subject, level, tuple(sorted(params.items()))
    except (KeyError, ValueError, TypeError, SearchExhausted) as exc:
        raise InputError(f"malformed certificate: {exc}") from exc


def _json_copy(value: object, depth: int = 1) -> list | dict:
    """A list or dict value with fresh lists and dicts all the way down, so a
    caller's edit cannot reach the node; InputError unless it is exactly JSON
    (a tuple, bytes or a subclass is refused).

    Nesting past MAX_PARAM_NESTING is an InputError, so a copy of untrusted
    JSON recurses a bounded number of frames. Scalars are tested in line, not
    called on: a call per scalar would make parsing a report measurably slower,
    and a list that holds only scalars is tested and copied in one step each.
    """
    if depth > MAX_PARAM_NESTING:
        raise InputError(f"certificate value nests deeper than {MAX_PARAM_NESTING} levels")
    kind = type(value)
    if kind is list:
        if _SCALAR_TYPES.issuperset(map(type, value)):
            return value.copy()
        return [x if type(x) in _SCALAR_TYPES else _json_copy(x, depth + 1) for x in value]
    if kind is dict and _STR.issuperset(map(type, value)):
        return {
            k: x if type(x) in _SCALAR_TYPES else _json_copy(x, depth + 1)
            for k, x in value.items()
        }
    raise InputError(f"not exactly JSON: {_quoted(value)}")


def _params(**kwargs: object) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


def base_certificate(subject: DiagonalForm) -> Certificate:
    """Ground Hasse-Minkowski verdict over Q."""
    failing = isotropy_failure(subject)
    if failing is None:
        return Certificate(
            "R-BASE", Status.ISOTROPIC, subject, 0, _params(verdict="isotropic"), ()
        )
    return Certificate(
        "R-BASE",
        Status.ANISOTROPIC,
        subject,
        0,
        _params(verdict="anisotropic", failing_place=failing.to_json()),
        (),
    )


def assume_certificate(subject: FormLike, assumption_id: str) -> Certificate:
    return Certificate(
        "R-ASSUME",
        Status.ANISOTROPIC,
        subject,
        0,
        _params(assumption_id=assumption_id),
        (),
    )


def generic_certificate(subject: FormLike, adjoined: FormLike, level: int) -> Certificate:
    return Certificate(
        "R-GENERIC",
        Status.ISOTROPIC,
        subject,
        level,
        _params(adjoined=adjoined.to_json()),
        (),
    )


def monotone_certificate(premise: Certificate, level: int) -> Certificate:
    _crosscheck(
        premise.status is Status.ISOTROPIC and premise.level < level,
        "R-MONOTONE carries an isotropic premise up from a lower level",
    )
    return Certificate(
        "R-MONOTONE",
        Status.ISOTROPIC,
        premise.subject,
        level,
        _params(from_level=premise.level),
        (premise,),
    )


def pfister_certificate(
    premise: Certificate,
    adjoined: FormLike,
    level: int,
    exponent: int,
    trivialized: tuple[int, ...],
) -> Certificate:
    return Certificate(
        "R-PFISTER",
        Status.ANISOTROPIC,
        premise.subject,
        level,
        _params(
            exponent=exponent,
            adjoined=adjoined.to_json(),
            subject_disc=disc_to_json(premise.subject.signed_disc()),
            adjoined_disc=disc_to_json(adjoined.signed_disc()),
            disc_context=sorted(trivialized),
        ),
        (premise,),
    )


def hoffmann_certificate(
    premise: Certificate, adjoined: FormLike, level: int, exponent: int
) -> Certificate:
    return Certificate(
        "R-HOFFMANN",
        Status.ANISOTROPIC,
        premise.subject,
        level,
        _params(exponent=exponent, adjoined=adjoined.to_json()),
        (premise,),
    )


def chain_certificate(premise: Certificate) -> Certificate:
    _crosscheck(premise.status is Status.ANISOTROPIC, "R-CHAIN restates an anisotropic premise")
    return Certificate(
        "R-CHAIN",
        Status.ANISOTROPIC,
        premise.subject,
        premise.level,
        _params(levels=premise.level),
        (premise,),
    )


@dataclass(frozen=True)
class ReplayContext:
    """The abstract ledger and the tower's adjunctions a certificate is checked
    against; the defaults are the rationals with no levels."""

    assumptions: tuple[tuple[str, FormLike], ...] = ()
    adjunctions: tuple[FormLike, ...] = ()
    # id(node) -> node for every node whose whole subtree has passed replay()
    # under this context; holding the node keeps its id from being reused
    _passed: dict[int, Certificate] = field(
        default_factory=dict, init=False, compare=False, repr=False, hash=False
    )

    def assumption_subject(self, ident: str) -> FormLike | None:
        for k, f in self.assumptions:
            if k == ident:
                return f
        return None

    @_memo
    def _killed_prefixes(self) -> tuple[tuple[int, ...], ...]:
        """Entry k: the sorted classes killed by the binary forms among the first k adjunctions."""
        killed: list[int] = []
        current: tuple[int, ...] = ()
        prefixes = [current]
        for phi in self.adjunctions:
            if isinstance(phi, DiagonalForm) and phi.dim == 2:
                insort(killed, squarefree_part(-phi.coefficients[0] * phi.coefficients[1]))
                current = tuple(killed)
            prefixes.append(current)
        return tuple(prefixes)

    def trivialized_below(self, level: int) -> tuple[int, ...]:
        prefixes = self._killed_prefixes
        return prefixes[min(max(level - 1, 0), len(prefixes) - 1)]


_ABSENT = object()


def _member(data: object, key: str, kind: type = object) -> object:
    """data[key]; InputError unless data is a dict holding a value of type kind under key."""
    value = data.get(key, _ABSENT) if isinstance(data, dict) else _ABSENT
    if value is _ABSENT or not isinstance(value, kind):
        raise InputError(f"malformed report: no {kind.__name__} at {key!r}")
    return value


def context_from_report(report: object) -> ReplayContext:
    """Rebuild the replay surroundings from a report alone; InputError if it is
    malformed, or if a level's function field is not certified defined.

    A form of dimension at least 3 always has a function field (see the tower
    docstring); a binary form <a, b> has one only while -ab is not a square.
    So a level of dimension below 2, a symbolic binary level (the symbolic
    class it kills is tracked nowhere), and a concrete binary level with -ab
    in the span of the classes killed below it are refused. A coefficient that
    factoring gives up on raises SearchExhausted.
    """
    base = _member(report, "base")
    assumptions: tuple[tuple[str, FormLike], ...] = ()
    if isinstance(base, dict):
        assumptions = tuple(
            (_member(a, "id", str), form_from_json(_member(a, "anisotropic")))
            for a in _member(base, "assumptions", list)
        )
    levels = _member(_member(report, "final_state", dict), "levels", list)
    adjunctions = tuple(form_from_json(_member(level, "form")) for level in levels)
    context = ReplayContext(assumptions=assumptions, adjunctions=adjunctions)
    for level, phi in enumerate(adjunctions, start=1):
        if phi.dim < 2 or (phi.dim == 2 and (
            isinstance(phi, SymbolicForm)
            or not disc_mismatch(phi.signed_disc(), 1, context.trivialized_below(level))
        )):
            raise InputError(f"malformed report: the function field of {phi} at level {level} "
                             "is not certified defined")
    return context


def certificates_in_report(report: object):
    """Yield every top-level certificate JSON object embedded in a report, in
    document order. Walked with an explicit stack, so nesting does not recurse;
    only dicts and lists are pushed, never the scalars beside them, and a list
    of JSON scalars (a form, a class list) is passed over in one test."""
    stack = [report]
    push = stack.append
    containers = (dict, list)
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "rule" in node and "status" in node and "subject" in node:
                yield node
                continue
            node = node.values()
        elif not isinstance(node, list) or _SCALAR_TYPES.issuperset(map(type, node)):
            continue  # a scalar report, or a list that holds no container
        for value in reversed(node):
            if isinstance(value, containers):
                push(value)


def replay(cert: Certificate, context: ReplayContext) -> bool:
    """Re-derive every fact the certificate tree consumed; False on any mismatch.

    A node whose whole subtree already passed under the context is skipped,
    and a call on such a root returns True at once. Nodes are recorded only
    when the whole call passes.
    """
    passed = context._passed
    if id(cert) in passed:
        return True
    visited = []
    stack = [cert]
    while stack:
        node = stack.pop()
        if id(node) in passed:
            continue
        if not check_node(node, context):
            return False
        visited.append(node)
        stack.extend(reversed(node.premises))
    for node in visited:
        passed[id(node)] = node
    return True


def check_node(cert: Certificate, context: ReplayContext) -> bool:
    """Check one node's rule against the stored fields of its premises, not their proofs."""
    try:
        return _check_node(cert, context)
    except (InputError, AssertionError, SearchExhausted):
        return False


def _sole_premise(cert: Certificate, status: Status) -> Certificate | None:
    """The node's one premise, when the node and it both have the status and one subject."""
    if cert.status is not status or len(cert.premises) != 1:
        return None
    premise = cert.premises[0]
    if premise.status is not status or premise.subject != cert.subject:
        return None
    return premise


def _adjoined(cert: Certificate, context: ReplayContext) -> FormLike | None:
    """The node's parsed `adjoined` form, when 1 <= level and the tower adjoined
    that form at the level; _check_node has bounded the level by the tower height."""
    if cert.level < 1:
        return None
    adjoined = form_from_json(cert.param("adjoined"))
    return adjoined if context.adjunctions[cert.level - 1] == adjoined else None


def _check_node(cert: Certificate, context: ReplayContext) -> bool:
    # a tuple test first: a rule read from JSON may be an unhashable list
    if cert.rule not in RULES or not 0 <= cert.level <= len(context.adjunctions):
        return False
    if cert.status is Status.UNKNOWN:
        return False
    if cert.rule == "R-BASE":
        if cert.level != 0 or cert.premises or not isinstance(cert.subject, DiagonalForm):
            return False
        verdict = cert.param("verdict")
        if verdict != cert.status.value:
            return False
        if is_isotropic(cert.subject) != (cert.status is Status.ISOTROPIC):
            return False
        if cert.status is Status.ANISOTROPIC:
            raw = cert.param("failing_place")
            if raw is None:
                return False
            place = place_from_json(raw)
            if is_isotropic_local(cert.subject, place):
                return False
        return True
    if cert.rule == "R-ASSUME":
        if cert.level != 0 or cert.premises or cert.status is not Status.ANISOTROPIC:
            return False
        ident = cert.param("assumption_id")
        if not isinstance(ident, str):
            return False
        declared = context.assumption_subject(ident)
        return declared is not None and declared == cert.subject
    if cert.rule == "R-GENERIC":
        if cert.premises or cert.status is not Status.ISOTROPIC:
            return False
        adjoined = _adjoined(cert, context)
        return adjoined is not None and match_key(cert.subject) == match_key(adjoined)
    if cert.rule == "R-MONOTONE":
        premise = _sole_premise(cert, Status.ISOTROPIC)
        from_level = cert.param("from_level")
        return (
            premise is not None
            and premise.level < cert.level
            and _is_int(from_level)
            and from_level == premise.level
        )
    premise = _sole_premise(cert, Status.ANISOTROPIC)
    if premise is None:
        return False
    if cert.rule == "R-CHAIN":
        levels = cert.param("levels")
        return premise.level == cert.level and _is_int(levels) and levels == cert.level
    # R-PFISTER and R-HOFFMANN carry the premise up one level, across the adjunction
    n = cert.param("exponent")
    adjoined = _adjoined(cert, context)
    if premise.level != cert.level - 1 or adjoined is None or not _is_int(n):
        return False
    if cert.rule == "R-HOFFMANN":
        # 2**n < adjoined.dim implies n < adjoined.dim, so n is bounded before the power
        return 0 <= n < adjoined.dim and cert.subject.dim <= 2**n < adjoined.dim
    # R-PFISTER; the subject's own Pfister exponent bounds n before the power
    if form_pfister_exponent(cert.subject) != n:
        return False
    if adjoined.dim != 2**n:
        return False
    stored_sd = disc_from_json(cert.param("subject_disc"))
    stored_ad = disc_from_json(cert.param("adjoined_disc"))
    if cert.subject.signed_disc() != stored_sd or adjoined.signed_disc() != stored_ad:
        return False
    raw_ctx = cert.param("disc_context")
    if not isinstance(raw_ctx, list) or not all(map(_is_int, raw_ctx)):
        return False
    trivialized = tuple(raw_ctx)
    if trivialized != context.trivialized_below(cert.level):
        return False
    return disc_mismatch(stored_sd, stored_ad, trivialized)


def iter_certificates(cert: Certificate):
    """The node and all descendants, preorder."""
    stack = [cert]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.premises))


def tamper(cert_json: dict) -> dict:
    """A rule-specific mutation that a faithful replay must reject.

    Only the root's own fields are copied: the result holds a new premises
    list over the input's premise dicts, so a chain of any depth is tampered
    without walking it.
    """
    params = _json_copy(cert_json.get("parameters", {}))
    mutated = {**cert_json, "parameters": params, "premises": list(cert_json.get("premises", []))}
    rule = mutated.get("rule")
    if rule == "R-BASE":
        flipped = "isotropic" if mutated["status"] == "anisotropic" else "anisotropic"
        mutated["status"] = flipped
        params["verdict"] = flipped
        params.pop("failing_place", None)
        if flipped == "anisotropic":
            params["failing_place"] = 2
    elif rule == "R-ASSUME":
        params["assumption_id"] = str(params.get("assumption_id", "")) + "-missing"
    elif rule == "R-GENERIC":
        subject = mutated["subject"]
        if isinstance(subject, list):
            params["adjoined"] = subject + [7]
        else:
            params["adjoined"] = {
                "symbolic": subject["symbolic"] + [{"sign": 1, "symbols": ["tampered"]}]
            }
    elif rule == "R-MONOTONE":
        params["from_level"] = mutated["level"] + 1
    elif rule == "R-PFISTER":
        disc = params.get("adjoined_disc")
        if isinstance(disc, int):
            params["adjoined_disc"] = squarefree_part(disc * 29)
        else:
            params["adjoined_disc"] = {"sign": -disc["sign"], "symbols": disc["symbols"]}
    elif rule == "R-HOFFMANN":
        params["exponent"] = 60
    elif rule == "R-CHAIN":
        params["levels"] = mutated["level"] + 3
    else:
        raise InputError(f"unknown rule: {_quoted(rule)}")
    return mutated
