"""Quaternion algebras (a,b) over Q through their norm forms.

Every structural question is answered two ways where a cheap dual route
exists: ramification from Hilbert symbols on one side, norm-form isotropy
on the other, with the agreement checked. An algebra's ramification and
division verdict are computed once per algebra object, on first read.
Subfield membership is read from ramification alone: Q(sqrt(c)) embeds
exactly when c is a nonsquare at every ramified place (the local-global
criterion, Voight, Quaternion Algebras, GTM 288, Ch. 14); selftest's
linkage-q and genus-q suites check those verdicts against the residue
search. Witness searches run in the canonical square-class order so
results are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, islice
from math import prod

from .arith import Rational, is_prime, iter_witnesses, squarefree_part
from .errors import InputError, PreconditionError, SearchExhausted, _crosscheck, _quoted
from .forms import DiagonalForm, _memo, is_isotropic, isometric, witt_index
from .symbols import INFINITE_PLACE, Place, _class_reps, _local_class, finite_place
from .symbols import hasse_invariants, hilbert_symbol


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b) with square-free nonzero integer symbol entries."""

    a: int
    b: int

    @classmethod
    def of(cls, a: int | Rational, b: int | Rational) -> "QuaternionAlgebra":
        for x in (a, b):  # the type test comes first: False == 0 and 0.0 == 0
            if type(x) is not int and not isinstance(x, Rational):
                raise InputError(f"not an integer or a fraction: {_quoted(x)}")
        if a == 0 or b == 0:
            raise PreconditionError("quaternion symbols must be nonzero")
        return cls(squarefree_part(a), squarefree_part(b))

    def norm_form(self) -> DiagonalForm:
        return DiagonalForm.of([1, -self.a, -self.b, self.a * self.b])

    def pure_form(self) -> DiagonalForm:
        # squares of pure quaternions: (xi + yj + zij)^2 = ax^2 + by^2 - ab z^2
        return DiagonalForm.of([self.a, self.b, -self.a * self.b])

    def to_json(self) -> list[int]:
        return [self.a, self.b]

    def __str__(self) -> str:
        return f"({self.a},{self.b})"

    def __reduce__(self):  # copy and pickle rebuild from the symbols, without the memos
        return (QuaternionAlgebra, (self.a, self.b))

    @_memo
    def _ramification(self) -> tuple[Place, ...]:
        ram = tuple(v for v, e in hasse_invariants([self.a, self.b]) if e == -1)
        _crosscheck(len(ram) % 2 == 0, "Hilbert reciprocity: an even number of places ramify")
        return ram

    @_memo
    def _division(self) -> bool:
        by_symbols = len(ramification(self)) > 0
        by_norm = not is_isotropic(self.norm_form())
        _crosscheck(by_symbols == by_norm, "ramification and norm form agree on division")
        return by_symbols


def ramification(alg: QuaternionAlgebra) -> tuple[Place, ...]:
    """Places v where (a, b)_v, the Hasse symbol of <a, b>, is -1; always an even number.
    Computed on the algebra's first read and kept on it."""
    return alg._ramification


def is_division(alg: QuaternionAlgebra) -> bool:
    """Division over Q; ramification and norm-form anisotropy must agree. Decided on the
    algebra's first read and kept on it."""
    return alg._division


def is_isomorphic(a1: QuaternionAlgebra, a2: QuaternionAlgebra) -> bool:
    """Equality of ramification sets; cross-checked against norm-form isometry."""
    by_ram = ramification(a1) == ramification(a2)
    by_norm = isometric(a1.norm_form(), a2.norm_form())
    _crosscheck(by_ram == by_norm, "ramification and norm forms agree on isomorphism")
    return by_ram


def albert_form(a1: QuaternionAlgebra, a2: QuaternionAlgebra) -> DiagonalForm:
    """<a, b, -ab, -a', -b', a'b'>, the 6-dimensional linkage form."""
    return DiagonalForm.of(
        [a1.a, a1.b, -a1.a * a1.b, -a2.a, -a2.b, a2.a * a2.b]
    )


def is_linked(a1: QuaternionAlgebra, a2: QuaternionAlgebra) -> bool:
    """Do the two division algebras share a common quadratic splitting field?

    The Albert form's isotropy decides it. The second route is the Witt index
    of the norm-form difference, read from that form's invariants: it is at
    least 2 exactly when the algebras are linked.
    """
    for alg in (a1, a2):
        if not is_division(alg):
            raise PreconditionError(f"{alg} is split; linkage needs division algebras")
    linked = is_isotropic(albert_form(a1, a2))
    diff = a1.norm_form().perp(a2.norm_form().negated())
    _crosscheck(
        linked == (witt_index(diff) >= 2),
        "Albert form and norm-form difference agree on linkage",
    )
    return linked


def contains_subfield(alg: QuaternionAlgebra, c: int | Rational) -> bool:
    """Is Q(sqrt(c)) a subfield of the algebra (c not a square)? Exactly when c is not a
    local square at any place where the algebra ramifies."""
    s = squarefree_part(c)
    if s == 1:
        raise PreconditionError("c must generate a quadratic extension; got a square")
    return not any(_local_class(s, v) == (0, 1) for v in ramification(alg))


def _check_limit(limit: int) -> None:
    """Refuse a witness limit below 1: no class has |c| <= 0, so no search could answer."""
    if limit < 1:
        raise InputError(f"witness limit must be positive; got {limit}")


def common_subfield_witness(
    a1: QuaternionAlgebra, a2: QuaternionAlgebra, limit: int = 1000
) -> int:
    """First square class embedding in both algebras, in canonical witness order."""
    _check_limit(limit)
    for alg in (a1, a2):
        if not is_division(alg):
            raise PreconditionError(f"{alg} is split; subfield search needs division algebras")
    for c in iter_witnesses(limit):
        if contains_subfield(a1, c) and contains_subfield(a2, c):
            return c
    raise SearchExhausted(
        f"no common subfield witness with |c| <= {limit}; raise the limit"
    )


def distinguishing_witness(
    a1: QuaternionAlgebra, a2: QuaternionAlgebra, limit: int = 1000
) -> int:
    """First square class embedding in exactly one of two non-isomorphic division algebras."""
    _check_limit(limit)
    for alg in (a1, a2):
        if not is_division(alg):
            raise PreconditionError(f"{alg} is split; genus comparison needs division algebras")
    if is_isomorphic(a1, a2):
        raise PreconditionError("the algebras are isomorphic; no distinguishing witness exists")
    for c in iter_witnesses(limit):
        if contains_subfield(a1, c) != contains_subfield(a2, c):
            return c
    raise SearchExhausted(
        f"no distinguishing witness with |c| <= {limit}; raise the limit"
    )


@lru_cache(maxsize=4)
def _ranked_classes(limit_rank: int) -> tuple[int, ...]:
    """The first limit_rank + 1 square classes, 1 first; at least that many have
    |c| <= limit_rank."""
    return tuple(islice(chain((1,), iter_witnesses(limit_rank)), limit_rank + 1))


@lru_cache(maxsize=256)
def _partner_ranks(limit_rank: int, m: int) -> tuple[int, ...]:
    """The ranks, ascending, of the first limit_rank + 1 square classes that m divides;
    for m = 1 every rank."""
    return tuple(r for r, c in enumerate(_ranked_classes(limit_rank)) if c % m == 0)


def _shell_pairs(limit_rank: int, odd_primes: list[int]):
    """The symbol pairs (a, b) of rank at most limit_rank whose product every odd prime
    given divides: in shell order by max rank, then lex by (rank a, rank b).

    A shell class x pairs only with the ranks that m divides, m the product of the
    primes that do not divide x; a bisect cuts that index at the shell.
    """
    seq = _ranked_classes(limit_rank)
    for shell in range(1, len(seq)):
        x = seq[shell]
        partners = _partner_ranks(limit_rank, prod(p for p in odd_primes if x % p))
        for k in range(bisect_left(partners, shell)):
            yield seq[partners[k]], x
        for k in range(bisect_right(partners, shell)):
            yield x, seq[partners[k]]


_CONNECTING_RANK = 400  # connecting_algebra tries symbol pairs up to this rank
_CONSTRUCT_TRIES = 1 << 14  # candidates the constructed fallback tries before giving up


def _constructed(target: set[Place]) -> tuple[int, int]:
    """The first (a, b) ramified exactly at the target: q over the primes ascending,
    a in (P, -P, 2P, -2P) for P the product of the target's odd primes, b in (q, -q).

    Only the real place, 2, P's primes and q can ramify. At all but q, (a, b)_v
    is -1 exactly on the target when b's square class is allowed; then at q it
    is 1, by reciprocity. Such a q exists by Dirichlet's theorem.
    """
    places = sorted(target | {INFINITE_PLACE, finite_place(2)})
    p = prod(v.prime for v in places[2:])
    wanted = [(v, -1 if v in target else 1) for v in places]
    allowed = {
        a: [{_local_class(c, v) for c in _class_reps(v) if hilbert_symbol(a, c, v) == e}
            for v, e in wanted]
        for a in (p, -p, 2 * p, -2 * p)
    }
    primes = (q for q in count(2) if is_prime(q))
    candidates = ((a, b) for q in primes for a in allowed for b in (q, -q))
    for a, b in islice(candidates, _CONSTRUCT_TRIES):
        if all(_local_class(b, v) in classes for v, classes in zip(places, allowed[a])):
            return a, b
    raise SearchExhausted(
        f"no connecting algebra among the symbol pairs of rank at most {_CONNECTING_RANK}"
        f" or the first {_CONSTRUCT_TRIES} constructed candidates"
    )


def connecting_algebra(a1: QuaternionAlgebra, a2: QuaternionAlgebra) -> QuaternionAlgebra:
    """The algebra ramified exactly at the symmetric difference of the two sets.

    The answer is the first match among the symbol pairs of rank at most
    _CONNECTING_RANK in shell order. (a, b) can ramify at an odd prime only if
    the prime divides ab, so each shell class is paired only with the classes
    that the target's odd primes outside it all divide, read from a cached
    partner index; a pair whose signs cannot give the target's real place is
    skipped before its ramification is computed. When none matches, the
    answer is _constructed from the target's local square classes.
    """
    if is_isomorphic(a1, a2):
        raise PreconditionError("isomorphic algebras have no connecting algebra")
    target = set(ramification(a1)) ^ set(ramification(a2))
    _crosscheck(
        bool(target) and len(target) % 2 == 0,
        "the connecting algebra ramifies at a nonempty, even set of places",
    )
    # (a, b) ramifies at the real place iff a, b < 0
    real = INFINITE_PLACE in target
    odd = sorted(v.prime for v in target if v.prime not in (None, 2))
    for a, b in _shell_pairs(_CONNECTING_RANK, odd):
        if (a < 0 and b < 0) != real:
            continue
        cand = QuaternionAlgebra.of(a, b)
        if set(ramification(cand)) == target:
            return cand
    cand = QuaternionAlgebra(*_constructed(target))
    _crosscheck(set(ramification(cand)) == target, "the constructed algebra ramifies at the target")
    return cand


@dataclass(frozen=True)
class GenusEntry:
    pair: tuple[int, int]
    isomorphic: bool
    witness: int | None

    def to_json(self) -> dict:
        return {
            "pair": list(self.pair),
            "isomorphic": self.isomorphic,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class GenusReport:
    algebras: tuple[QuaternionAlgebra, ...]
    entries: tuple[GenusEntry, ...]

    def to_json(self) -> dict:
        return {
            "algebras": [alg.to_json() for alg in self.algebras],
            "entries": [e.to_json() for e in self.entries],
        }


def genus_report(algebras: list[QuaternionAlgebra], limit: int = 1000) -> GenusReport:
    """Pairwise verdicts for a family of division algebras, with witnesses."""
    _check_limit(limit)
    for alg in algebras:
        if not is_division(alg):
            raise PreconditionError(f"{alg} is split; the genus report needs division algebras")
    entries = []
    for i in range(len(algebras)):
        for j in range(i + 1, len(algebras)):
            if is_isomorphic(algebras[i], algebras[j]):
                entries.append(GenusEntry((i, j), True, None))
            else:
                w = distinguishing_witness(algebras[i], algebras[j], limit)
                entries.append(GenusEntry((i, j), False, w))
    return GenusReport(tuple(algebras), tuple(entries))
