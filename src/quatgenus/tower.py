"""Finite truncations of function-field towers over Q or an abstract base.

A tower state is a base plus an ordered list of adjoined forms, each level
standing for the function field of the previous level's quadric. A form's
status at a state is derived once per state, walking the levels with
exactly the certificate rules; everything a step claims is backed by a
replayable certificate, and anything underivable is an honest UNKNOWN.

Multi-form steps (pushing, linking) certify each adjoined form's anisotropy
over the step's base state and record that gate; direct adjunctions outside
a step use the strict gate over the whole current tower. Every level's
function field is defined whether or not the form stays anisotropic up to
it: a regular form in three or more variables is an irreducible polynomial,
so its function field is a field, and if the form is isotropic that field is
purely transcendental over the level below, where every anisotropic form
stays anisotropic (Lam, Introduction to Quadratic Forms over Fields, Ch. X).
The subform theorem and Hoffmann's theorem (Math. Z. 220, 1995) behind
R-PFISTER and R-HOFFMANN then hold at such a level too. The steps adjoin
only 4-dimensional membership forms and 6-dimensional Albert forms. A binary
form <a, b> is reducible exactly when -ab is a square; it enters only
through adjoin, whose gate certifies it anisotropic, and only when it is
concrete, so that the replay context tracks the class it kills.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

from .arith import squarefree_part
from .certificates import (
    MAX_LEVELS,
    Certificate,
    FormLike,
    ReplayContext,
    Status,
    assume_certificate,
    base_certificate,
    chain_certificate,
    disc_mismatch,
    form_pfister_exponent,
    generic_certificate,
    hoffmann_certificate,
    match_key,
    monotone_certificate,
    pfister_certificate,
)
from .errors import InputError, PreconditionError, TruncationError, _crosscheck
from .forms import DiagonalForm, _memo
from .quaternion import (
    QuaternionAlgebra,
    connecting_algebra,
    is_division,
    is_isomorphic,
    is_linked,
)
from .symbolic import SymbolicAlgebra, SymbolicForm, symbolic_albert_form


@dataclass(frozen=True)
class RationalBase:
    def to_json(self) -> str:
        return "rationals"


@dataclass(frozen=True)
class Assumption:
    ident: str
    subject: FormLike

    def to_json(self) -> dict:
        return {"id": self.ident, "anisotropic": self.subject.to_json()}


@dataclass(frozen=True)
class AbstractBase:
    symbols: tuple[str, ...]
    assumptions: tuple[Assumption, ...]

    def find(self, subject: FormLike) -> Assumption | None:
        for a in self.assumptions:
            if a.subject == subject:
                return a
        return None

    def to_json(self) -> dict:
        return {
            "symbols": list(self.symbols),
            "assumptions": [a.to_json() for a in self.assumptions],
        }


Base = RationalBase | AbstractBase


@dataclass(frozen=True)
class TowerState:
    base: Base
    adjunctions: tuple[FormLike, ...] = ()
    tracked: tuple[FormLike, ...] = ()
    # subject -> derive_status(self, subject); a status reads only the base and
    # the adjunctions, so each one is derived once, and track shares the table
    _statements: dict[FormLike, "TrackedStatement"] = field(
        default_factory=dict, init=False, compare=False, repr=False, hash=False
    )

    @property
    def top_level(self) -> int:
        return len(self.adjunctions)

    @_memo
    def _replay_context(self) -> ReplayContext:
        assumptions: tuple[tuple[str, FormLike], ...] = ()
        if isinstance(self.base, AbstractBase):
            assumptions = tuple((a.ident, a.subject) for a in self.base.assumptions)
        return ReplayContext(assumptions=assumptions, adjunctions=self.adjunctions)

    def replay_context(self) -> ReplayContext:
        """The state's one context, so its killed-class table is built once."""
        return self._replay_context

    def trivialized_below(self, level: int) -> tuple[int, ...]:
        return self._replay_context.trivialized_below(level)

    @_memo
    def _first_levels(self) -> dict[object, int]:
        """match_key -> the first level that adjoins a form with that key."""
        first: dict[object, int] = {}
        for level, phi in enumerate(self.adjunctions, start=1):
            first.setdefault(match_key(phi), level)
        return first

    def statement(self, subject: FormLike) -> "TrackedStatement":
        """The subject's status at this state, derived on the first request."""
        stmt = self._statements.get(subject)
        if stmt is None:
            stmt = self._statements[subject] = derive_status(self, subject)
        return stmt

    def track(self, *forms: FormLike) -> "TowerState":
        state = TowerState(self.base, self.adjunctions, tuple(dict.fromkeys(self.tracked + forms)))
        object.__setattr__(state, "_statements", self._statements)  # no status reads `tracked`
        return state

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "levels": [
                {"index": i + 1, "form": phi.to_json()}
                for i, phi in enumerate(self.adjunctions)
            ],
        }


@dataclass(frozen=True)
class TrackedStatement:
    subject: FormLike
    level: int
    certificate: Certificate | None
    blocked: tuple[int, FormLike | None] | None

    @property
    def status(self) -> Status:
        """The certificate's status; with no certificate, UNKNOWN."""
        return Status.UNKNOWN if self.certificate is None else self.certificate.status

    def to_json(self) -> dict:
        blocked = None
        if self.blocked is not None:
            lvl, phi = self.blocked
            blocked = {"level": lvl, "adjoined": None if phi is None else phi.to_json()}
        return {
            "subject": self.subject.to_json(),
            "level": self.level,
            "status": self.status.value,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "blocked": blocked,
        }


def _hoffmann_exponent(dim_subject: int, dim_adjoined: int) -> int | None:
    n = 0
    while 2**n < dim_subject:
        n += 1
    return n if 2**n < dim_adjoined else None


def derive_status(state: TowerState, subject: FormLike) -> TrackedStatement:
    """Apply the certificate rules from the base up: R-PFISTER or R-HOFFMANN
    carry an anisotropic start until a level neither covers, and R-GENERIC fires
    at the first level whose adjoined form matches the subject (one lookup by
    match_key), whatever happened below: that form is isotropic over its own
    function field."""
    top = state.top_level
    cert: Certificate | None = None
    if isinstance(state.base, RationalBase):
        if isinstance(subject, DiagonalForm):
            cert = base_certificate(subject)
    elif (found := state.base.find(subject)) is not None:
        cert = assume_certificate(subject, found.ident)
    blocked: tuple[int, FormLike | None] | None = None if cert is not None else (0, None)
    match = None
    if cert is None or cert.status is not Status.ISOTROPIC:
        match = state._first_levels.get(match_key(subject))
    # only an anisotropic start ever reaches the Pfister rule
    n = None
    if cert is not None and cert.status is Status.ANISOTROPIC and state.adjunctions:
        n = form_pfister_exponent(subject)
    below = top if match is None else match - 1
    for level, phi in enumerate(state.adjunctions[:below], start=1):
        if cert is None or cert.status is not Status.ANISOTROPIC:
            break
        trivialized = state.trivialized_below(level)
        if (
            n is not None
            and phi.dim == 2**n
            and disc_mismatch(subject.signed_disc(), phi.signed_disc(), trivialized)
        ):
            cert = pfister_certificate(cert, phi, level, n, trivialized)
            continue
        nh = _hoffmann_exponent(subject.dim, phi.dim)
        if nh is not None:
            cert = hoffmann_certificate(cert, phi, level, nh)
            continue
        blocked = (level, phi)
        cert = None
    if match is not None:
        cert = generic_certificate(subject, state.adjunctions[match - 1], match)
        blocked = None
    if cert is not None and cert.status is Status.ISOTROPIC and cert.level < top:
        cert = monotone_certificate(cert, top)
    return TrackedStatement(subject, top, cert, blocked)


def _append_level(state: TowerState, phi: FormLike) -> TowerState:
    """state with phi adjoined as a new top level, and tracked."""
    if phi.dim < 2:
        raise InputError("adjoined forms must have dimension at least 2")
    if state.top_level >= MAX_LEVELS:
        raise TruncationError(
            f"refusing to adjoin {phi}: the tower already has {MAX_LEVELS} levels, "
            "the most a report can hold"
        )
    return TowerState(state.base, state.adjunctions + (phi,), state.tracked).track(phi)


def adjoin(state: TowerState, phi: FormLike) -> tuple[TowerState, TrackedStatement]:
    """Strict adjunction: phi must be certified anisotropic over the whole tower."""
    if isinstance(phi, SymbolicForm) and phi.dim == 2:
        raise InputError(
            f"refusing to adjoin {phi}: a symbolic binary form kills a symbolic class "
            "that no certificate rule tracks"
        )
    new_state = _append_level(state, phi)
    gate = state.statement(phi)
    if gate.status is Status.ISOTROPIC:
        raise InputError(f"refusing to adjoin {phi}: isotropic over the current tower")
    if gate.status is Status.UNKNOWN:
        raise TruncationError(
            f"cannot certify {phi} anisotropic over the current tower"
        )
    return new_state, gate


def membership_form(c: int, alg: QuaternionAlgebra) -> DiagonalForm:
    """<c, -a, -b, ab>: anisotropic exactly when sqrt(c) generates no subfield."""
    return DiagonalForm.of([c, -alg.a, -alg.b, alg.a * alg.b])


def _validate_classes(classes: list[int]) -> list[int]:
    out: list[int] = []
    for c in classes:
        if c == 0:
            raise InputError("0 is not a square class")
        s = squarefree_part(c)
        if s == 1:
            raise InputError("c = 1 generates no quadratic extension")
        if s not in out:
            out.append(s)
    return out


@dataclass(frozen=True)
class Family:
    """Concrete division algebras, pairwise non-isomorphic, checked on construction.

    The connecting algebra of each pair is searched for on first use of
    `pairs` and kept on the value, so every step over the family shares it.
    """

    algebras: tuple[QuaternionAlgebra, ...]

    def __post_init__(self) -> None:
        for alg in self.algebras:
            if not is_division(alg):
                raise PreconditionError(f"{alg} is split; the family must be division algebras")
        for (i, a1), (j, a2) in combinations(enumerate(self.algebras), 2):
            if is_isomorphic(a1, a2):
                raise PreconditionError(
                    f"family members {i} and {j} are isomorphic; the family must be a set"
                )
            # over Q every division pair is linked
            _crosscheck(is_linked(a1, a2), f"family members {i} and {j} are linked")

    @classmethod
    def of(cls, algebras: Iterable[QuaternionAlgebra]) -> "Family":
        return cls(tuple(algebras))

    @_memo
    def pairs(self) -> tuple[tuple[tuple[int, int], QuaternionAlgebra], ...]:
        """((i, j), connecting algebra) for every pair i < j, in order."""
        return tuple(
            ((i, j), connecting_algebra(a1, a2))
            for (i, a1), (j, a2) in combinations(enumerate(self.algebras), 2)
        )


@dataclass(frozen=True)
class AdjoinedRecord:
    level: int
    klass: int | None
    algebra: int | None
    pair: tuple[int, int] | None
    gate: TrackedStatement

    @property
    def form(self) -> FormLike:
        """The adjoined form: the subject its gate certifies anisotropic."""
        return self.gate.subject

    def to_json(self) -> dict:
        out: dict = {"level": self.level, "form": self.form.to_json()}
        if self.klass is not None:
            out["class"] = self.klass
        if self.algebra is not None:
            out["algebra"] = self.algebra
        if self.pair is not None:
            out["pair"] = list(self.pair)
        out["gate"] = self.gate.to_json()
        return out


@dataclass(frozen=True)
class InjectivityBlock:
    norm_forms: tuple[tuple[int, TrackedStatement], ...]
    pair_forms: tuple[tuple[tuple[int, int], QuaternionAlgebra, TrackedStatement], ...]

    def to_json(self) -> dict:
        return {
            "norm_forms": [
                {"algebra": i, "statement": s.to_json()} for i, s in self.norm_forms
            ],
            "pair_forms": [
                {
                    "pair": list(p),
                    "connecting": alg.to_json(),
                    "statement": s.to_json(),
                }
                for p, alg, s in self.pair_forms
            ],
        }

    def statements(self) -> list[TrackedStatement]:
        return [s for _, s in self.norm_forms] + [s for _, _, s in self.pair_forms]

    @_memo
    def chain(self) -> tuple[Certificate, ...]:
        """R-CHAIN over the union of the tower for every statement certified anisotropic;
        kept, so that shared_json cites the same certificate objects each time."""
        return tuple(
            chain_certificate(s.certificate)
            for s in self.statements()
            if s.status is Status.ANISOTROPIC and s.certificate is not None
        )


@dataclass(frozen=True)
class PushingStep:
    at_base: WindowReport  # membership of the step's classes at its base
    adjoined: tuple[AdjoinedRecord, ...]
    injectivity: InjectivityBlock
    embeddings: tuple[WindowEntry, ...]

    @property
    def notes(self) -> tuple[str, ...]:
        pushed = {r.klass for r in self.adjoined}
        return tuple(
            f"class {c} already embeds everywhere; nothing to adjoin"
            for c in self.at_base.window
            if c not in pushed
        )

    def to_json(self) -> dict:
        return {
            "kind": "pushing",
            "classes": list(self.at_base.window),
            "membership_at_base": [e.membership_json() for e in self.at_base.entries],
            "adjoined": [r.to_json() for r in self.adjoined],
            "injectivity": self.injectivity.to_json(),
            "embeddings": [e.membership_json() for e in self.embeddings],
            "notes": list(self.notes),
        }

    def required_statements(self) -> list[TrackedStatement]:
        out = [e.statement for e in self.at_base.entries]
        out += [r.gate for r in self.adjoined]
        out += self.injectivity.statements()
        out += [e.statement for e in self.embeddings]
        return out


def _injectivity_block(state: TowerState, family: Family) -> InjectivityBlock:
    norms = tuple(
        (i, state.statement(alg.norm_form())) for i, alg in enumerate(family.algebras)
    )
    pairs = tuple(
        (pair, conn, state.statement(conn.norm_form())) for pair, conn in family.pairs
    )
    return InjectivityBlock(norms, pairs)


def step_pushing_extension(
    state: TowerState,
    family: Family,
    classes: list[int],
) -> tuple[TowerState, PushingStep]:
    """Adjoin the function field of <c,-a,-b,ab> for every non-member pair.

    Afterwards every class in `classes` embeds in every family member over
    the extension, while norm forms and connecting-pair norm forms stay
    anisotropic; each claim carries its certificate.
    """
    if not isinstance(state.base, RationalBase):
        raise PreconditionError("the pushing step needs a concrete base")
    if not family.algebras:
        raise PreconditionError("the family must be nonempty")
    at_base = compute_window(state, family, classes)
    for e in at_base.entries:
        if e.status == "unresolved":
            raise TruncationError(
                f"membership of {e.klass} in algebra {e.algebra} is UNKNOWN at the step base"
            )
    current = state
    adjoined: list[AdjoinedRecord] = []
    for e in at_base.entries:
        if e.status == "non-member":
            current = _append_level(current, e.statement.subject)
            record = AdjoinedRecord(current.top_level, e.klass, e.algebra, None, e.statement)
            adjoined.append(record)
    for alg in family.algebras:
        current = current.track(alg.norm_form())
    injectivity = _injectivity_block(current, family)
    embeddings = compute_window(current, family, list(at_base.window)).entries
    return current, PushingStep(at_base, tuple(adjoined), injectivity, embeddings)


@dataclass(frozen=True)
class LinkingStep:
    adjoined: tuple[AdjoinedRecord, ...]
    linked_now: tuple[TrackedStatement, ...]  # one per adjoined record, about its form
    preserved: tuple[tuple[int, TrackedStatement], ...]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "kind": "linking",
            "adjoined": [r.to_json() for r in self.adjoined],
            "linked_now": [
                {"pair": list(r.pair), "statement": s.to_json()}
                for r, s in zip(self.adjoined, self.linked_now)
            ],
            "preserved": [
                {"algebra": i, "statement": s.to_json()} for i, s in self.preserved
            ],
            "notes": list(self.notes),
        }

    def required_statements(self) -> list[TrackedStatement]:
        out = [r.gate for r in self.adjoined]
        out += self.linked_now
        out += [s for _, s in self.preserved]
        return out


def step_linking_extension(
    state: TowerState,
    algebras: Family | list[SymbolicAlgebra],
) -> tuple[TowerState, LinkingStep]:
    """Adjoin the function field of each unlinked pair's 6-dimensional form.

    Over Q every division pair is already linked and the step is the
    identity. Over an abstract base each pair needs a declared anisotropy
    assumption for its linkage form; norm forms persist by the dimension
    rule (4 <= 4 < 6 at every new level).
    """
    if isinstance(algebras, Family):
        if not algebras.algebras:
            raise PreconditionError("the family must be nonempty")
        if not isinstance(state.base, RationalBase):
            raise PreconditionError("concrete algebras need the rational base")
        notes = ("all pairs are already linked over the base; no extension needed",)
        preserved = tuple(
            (i, state.statement(alg.norm_form())) for i, alg in enumerate(algebras.algebras)
        )
        return state, LinkingStep((), (), preserved, notes)
    if not algebras:
        raise PreconditionError("the family must be nonempty")
    if not all(isinstance(a, SymbolicAlgebra) for a in algebras):
        raise InputError("a concrete family must be a Family; an abstract one, SymbolicAlgebras")
    if not isinstance(state.base, AbstractBase):
        raise PreconditionError("abstract algebras need an abstract base")
    current = state
    adjoined: list[AdjoinedRecord] = []
    notes: list[str] = []
    for i in range(len(algebras)):
        for j in range(i + 1, len(algebras)):
            phi = symbolic_albert_form(algebras[i], algebras[j])
            gate = state.statement(phi)
            if gate.status is Status.UNKNOWN:
                raise InputError(
                    f"no anisotropy assumption covers the linkage form of pair ({i},{j}); "
                    "declare one in the base ledger"
                )
            if gate.status is Status.ISOTROPIC:
                notes.append(f"pair ({i},{j}) is already linked; nothing to adjoin")
                continue
            current = _append_level(current, phi)
            adjoined.append(AdjoinedRecord(current.top_level, None, None, (i, j), gate))
    for alg in algebras:
        current = current.track(alg.norm_form())
    linked_now = tuple(current.statement(rec.form) for rec in adjoined)
    preserved = [(i, current.statement(alg.norm_form())) for i, alg in enumerate(algebras)]
    return current, LinkingStep(
        tuple(adjoined), linked_now, tuple(preserved), tuple(notes)
    )


_MEMBERSHIP = {Status.ISOTROPIC: "member", Status.ANISOTROPIC: "non-member"}


@dataclass(frozen=True)
class WindowEntry:
    klass: int
    algebra: int
    statement: TrackedStatement

    @property
    def status(self) -> str:
        """member | non-member | unresolved, as the statement's status reads."""
        return _MEMBERSHIP.get(self.statement.status, "unresolved")

    def to_json(self) -> dict:
        return {
            "class": self.klass,
            "algebra": self.algebra,
            "status": self.status,
            "statement": self.statement.to_json(),
        }

    def membership_json(self) -> dict:
        """The entry as a pushing step records it: a member bool in place of the status."""
        out = self.to_json()
        out["member"] = out.pop("status") == "member"
        return out


@dataclass(frozen=True)
class WindowReport:
    window: tuple[int, ...]
    entries: tuple[WindowEntry, ...]

    @_memo
    def _splits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(distinguishing, unresolved) from one pass over the entries: the classes
        certified in one algebra and out of another; of the rest, those left UNKNOWN."""
        seen: dict[int, set[Status]] = {}
        for e in self.entries:
            seen.setdefault(e.klass, set()).add(e.statement.status)
        split = {Status.ISOTROPIC, Status.ANISOTROPIC}
        return (
            tuple(c for c, got in seen.items() if split <= got),
            tuple(c for c, got in seen.items() if Status.UNKNOWN in got and not split <= got),
        )

    @property
    def distinguishing(self) -> tuple[int, ...]:
        return self._splits[0]

    @property
    def unresolved(self) -> tuple[int, ...]:
        return self._splits[1]

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "entries": [e.to_json() for e in self.entries],
            "distinguishing": list(self.distinguishing),
            "unresolved": list(self.unresolved),
        }


def compute_window(state: TowerState, family: Family, window: list[int]) -> WindowReport:
    """Certified membership matrix over the window; S = certified splits only."""
    if not isinstance(state.base, RationalBase):
        raise PreconditionError("window membership needs a concrete base")
    wanted = tuple(_validate_classes(window))
    entries = tuple(
        WindowEntry(c, ai, state.statement(membership_form(c, alg)))
        for c in wanted
        for ai, alg in enumerate(family.algebras)
    )
    return WindowReport(wanted, entries)


@dataclass(frozen=True)
class IterateRound:
    window: WindowReport
    step: PushingStep

    def to_json(self, number: int) -> dict:
        return {
            "round": number,
            "window": self.window.to_json(),
            "step": self.step.to_json(),
        }


@dataclass(frozen=True)
class IterateReport:
    rounds: tuple[IterateRound, ...]
    final_window: WindowReport
    final_injectivity: InjectivityBlock

    @property
    def window(self) -> tuple[int, ...]:
        return self.final_window.window

    @property
    def stabilized(self) -> bool:
        return not self.final_window.distinguishing

    @property
    def notes(self) -> tuple[str, ...]:
        if self.stabilized:
            return (_WINDOW_NOTE,)
        return (_WINDOW_NOTE, "round budget exhausted before stabilization")

    def to_json(self) -> dict:
        return {
            "kind": "iterate-pushing",
            "window": list(self.window),
            "rounds": [r.to_json(i) for i, r in enumerate(self.rounds, 1)],
            "stabilized": self.stabilized,
            "final_window": self.final_window.to_json(),
            "final_injectivity": self.final_injectivity.to_json(),
            "chain": [c.to_json() for c in self.final_injectivity.chain],
            "notes": list(self.notes),
        }

    def required_statements(self) -> list[TrackedStatement]:
        out: list[TrackedStatement] = []
        for r in self.rounds:
            out += r.step.required_statements()
        out += self.final_injectivity.statements()
        return out


_WINDOW_NOTE = (
    "square-class identities are compared over the base field; binary adjunctions "
    "would shrink the class group, and the engine refuses discriminant evidence "
    "inside the affected span"
)


def iterate_pushing(
    state: TowerState,
    family: Family,
    window: list[int],
    max_rounds: int,
) -> tuple[TowerState, IterateReport]:
    """Alternate window measurement and pushing until no certified split remains."""
    if max_rounds < 0:
        raise InputError("max_rounds must be nonnegative")
    rounds: list[IterateRound] = []
    current = state
    while True:
        report = compute_window(current, family, window)
        if not report.distinguishing or len(rounds) >= max_rounds:
            break
        current, step = step_pushing_extension(current, family, list(report.distinguishing))
        rounds.append(IterateRound(report, step))
    return current, IterateReport(tuple(rounds), report, _injectivity_block(current, family))


@dataclass(frozen=True)
class AlternatingRound:
    linking: LinkingStep
    pushing: IterateReport

    def to_json(self, number: int) -> dict:
        return {
            "round": number,
            "linking": self.linking.to_json(),
            "pushing": self.pushing.to_json(),
        }


@dataclass(frozen=True)
class AlternatingReport:
    rounds: tuple[AlternatingRound, ...]
    distinctness: InjectivityBlock
    notes = (_WINDOW_NOTE,)

    def to_json(self) -> dict:
        return {
            "kind": "alternating-truncation",
            "rounds": [r.to_json(i) for i, r in enumerate(self.rounds, 1)],
            "distinctness": self.distinctness.to_json(),
            "chain": [c.to_json() for c in self.distinctness.chain],
            "notes": list(self.notes),
        }

    def required_statements(self) -> list[TrackedStatement]:
        out: list[TrackedStatement] = []
        for r in self.rounds:
            out += r.linking.required_statements()
            out += r.pushing.required_statements()
        out += self.distinctness.statements()
        return out


def run_alternating_truncation(
    state: TowerState,
    family: Family,
    window: list[int],
    rounds: int,
    max_rounds_per_iterate: int,
) -> tuple[TowerState, AlternatingReport]:
    """Alternate linking and pushing rounds; certify images stay pairwise distinct."""
    if not isinstance(state.base, RationalBase):
        raise PreconditionError("the alternating truncation needs a concrete base")
    if rounds < 0:
        raise InputError("rounds must be nonnegative")
    if rounds > MAX_LEVELS:
        # every round that adjoins a form adds a level, and a round that
        # adjoins nothing repeats the round before it
        raise InputError(f"rounds must be at most {MAX_LEVELS}")
    out_rounds: list[AlternatingRound] = []
    current = state
    for _ in range(rounds):
        current, link = step_linking_extension(current, family)
        current, push = iterate_pushing(current, family, window, max_rounds_per_iterate)
        out_rounds.append(AlternatingRound(link, push))
    return current, AlternatingReport(tuple(out_rounds), _injectivity_block(current, family))
