"""Regular diagonal quadratic forms over Q, exactly.

Coefficients are stored as square-free integers (the square class of each
diagonal entry), so isometry invariants read off arithmetically. Global
isotropy is decided place by place over the relevant places; witnesses
come from the bounded enumeration search, and Witt decomposition builds the
splitting vectors the search cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice, product
from math import gcd
from typing import Iterable, Sequence

from .arith import Rational, is_prime, iter_witnesses, squarefree_part, squarefree_product
from .errors import InputError, SearchExhausted, _crosscheck, _quoted
from .symbols import Place, _class_reps, _hasse_of_classes, _hasse_squarefree, _local_class


_INT = {int}


class _memo:
    """A cached_property without the lock that CPython 3.11's takes on every first
    read: the first read computes the value and stores it in the instance's
    __dict__ under the property's name, where every later read finds it first.
    Two threads may both compute it; they store equal values."""

    def __init__(self, compute):
        self._compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._compute(obj)
        return value


@dataclass(frozen=True, init=False)
class DiagonalForm:
    """<a_1, ..., a_n> with square-free nonzero integer entries; _form_of_ints builds each."""

    coefficients: tuple[int, ...]

    def __new__(cls, coefficients: tuple[int, ...]) -> "DiagonalForm":
        # the type test comes first: True == 1 and 2.0 == 2 would find an int's entry
        if type(coefficients) is not tuple or not set(map(type, coefficients)) <= _INT:
            raise InputError(f"not a tuple of integer coefficients: {_quoted(coefficients)}")
        form = _form_of_ints(coefficients)
        if form.coefficients != coefficients:
            c = next(c for c, r in zip(coefficients, form.coefficients) if c != r)
            raise InputError(f"coefficient {c} is not a nonzero square-free integer")
        return form

    def __reduce__(self):  # copy and pickle rebuild through __new__, which needs the entries
        return (DiagonalForm, (self.coefficients,))

    @classmethod
    def of(cls, values: Iterable[int | Rational]) -> "DiagonalForm":
        values = tuple(values)
        if set(map(type, values)) <= _INT:
            return _form_of_ints(values)
        reduced = []
        for v in values:
            if v == 0:
                raise InputError("zero coefficient makes the form degenerate")
            reduced.append(squarefree_part(v))
        return _form_of_ints(tuple(reduced))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    @_memo
    def _invariants(self) -> "FormInvariants":
        coefficients = self.coefficients
        n = len(coefficients)
        det = squarefree_product(coefficients)
        pos = sum(1 for c in coefficients if c > 0)
        return FormInvariants(
            dimension=n,
            determinant=det,
            signed_discriminant=_disc_sign(n) * det,
            hasse=_hasse_of_classes(coefficients),
            signature=(pos, n - pos),
        )

    def det(self) -> int:
        return self._invariants.determinant

    def signed_disc(self) -> int:
        return self._invariants.signed_discriminant

    def perp(self, other: "DiagonalForm") -> "DiagonalForm":
        return DiagonalForm(self.coefficients + other.coefficients)

    def scaled(self, s: int | Rational) -> "DiagonalForm":
        return DiagonalForm.of(Fraction(s) * c for c in self.coefficients)

    def negated(self) -> "DiagonalForm":
        return DiagonalForm(tuple(-c for c in self.coefficients))

    def evaluate(self, vector: Sequence[Rational | int]) -> Rational:
        if len(vector) != self.dim:
            raise InputError("vector length does not match the form dimension")
        return sum((Fraction(x) * x * c for c, x in zip(self.coefficients, vector)), Fraction(0))

    def to_json(self) -> list[int]:
        return list(self.coefficients)

    @classmethod
    def from_json(cls, data: object) -> "DiagonalForm":
        if not isinstance(data, list) or not set(map(type, data)) <= _INT:
            raise InputError(f"not a diagonal form: {_quoted(data)}")
        return _form_of_ints(tuple(data))

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.coefficients) + ">"


# The one table of forms, keyed by exact ints (callers test the type): a tuple and its
# reduction give one object. Reports repeat forms at every node, represents its q + <-c>.
@lru_cache(maxsize=1024)
def _form_of_ints(values: tuple[int, ...]) -> DiagonalForm:
    if not values:
        raise InputError("a form needs at least one coefficient")
    if 0 in values:
        raise InputError("zero coefficient makes the form degenerate")
    reduced = tuple(map(squarefree_part, values))
    if reduced != values:
        return _form_of_ints(reduced)
    form = object.__new__(DiagonalForm)
    object.__setattr__(form, "coefficients", values)
    return form


HYPERBOLIC_PLANE = DiagonalForm((1, -1))


def _disc_sign(n: int) -> int:
    """(-1)^(n(n-1)/2), the sign that turns the determinant into the discriminant."""
    return -1 if (n * (n - 1) // 2) % 2 else 1


@dataclass(frozen=True)
class FormInvariants:
    """Classifying data over Q: dimension, determinant class, Hasse symbols, signature."""

    dimension: int
    determinant: int
    signed_discriminant: int
    hasse: tuple[tuple[Place, int], ...]
    signature: tuple[int, int]

    @_memo
    def key(self) -> tuple[int, int, tuple[int, int], frozenset[Place]]:
        """Equal exactly for isometric forms (Hasse-Minkowski): dimension, determinant,
        signature and the places where the Hasse symbol is -1."""
        return (self.dimension, self.determinant, self.signature,
                frozenset(v for v, e in self.hasse if e == -1))

    @_memo
    def _failure(self) -> Place | None:
        """The first listed place (the real place first) where the casework says
        anisotropic, or None: the places are walked once per invariants object."""
        return next((v for v in self.places() if not _local_isotropic_from_data(self, v)), None)

    def hasse_at(self, place: Place) -> int:
        return -1 if place in self.key[3] else 1

    def places(self) -> tuple[Place, ...]:
        return tuple(v for v, _ in self.hasse)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "determinant": self.determinant,
            "signed_discriminant": self.signed_discriminant,
            "hasse": [[v.to_json(), e] for v, e in self.hasse],
            "signature": list(self.signature),
        }


def relevant_places(q: DiagonalForm) -> list[Place]:
    """The real place, 2, and odd primes dividing some coefficient."""
    return list(invariants(q).places())


def invariants(q: DiagonalForm) -> FormInvariants:
    """The form's classifying data, computed once per form object."""
    return q._invariants


def _local_isotropic_from_data(inv: FormInvariants, place: Place) -> bool:
    """Local isotropy from classifying data; exact casework by dimension. The
    determinant is square-free, so the symbols (-1, -d) and (-1, -1) are read from
    the one-pass closed form and squareness from the local class, neither reduced
    again."""
    if inv.dimension <= 1:
        return False
    p = place.prime
    if p is None:
        return inv.signature[0] >= 1 and inv.signature[1] >= 1
    if inv.dimension == 2:
        return _local_class(-inv.determinant, place) == (0, 1)
    if inv.dimension == 3:
        return inv.hasse_at(place) == _hasse_squarefree((-1, -inv.determinant), p)
    if inv.dimension == 4:
        if _local_class(inv.determinant, place) != (0, 1):
            return True
        return inv.hasse_at(place) != -_hasse_squarefree((-1, -1), p)
    return True


def is_isotropic_local(q: DiagonalForm, place: Place) -> bool:
    """Isotropy at one place; off the relevant places the Hasse symbol is 1."""
    return _local_isotropic_from_data(invariants(q), place)


def isotropy_failure(q: DiagonalForm) -> Place | None:
    """First place (real place first, then primes ascending) where q is anisotropic."""
    return invariants(q)._failure


def is_isotropic(q: DiagonalForm) -> bool:
    """Global isotropy: isotropic at every place (checked over the relevant ones)."""
    return isotropy_failure(q) is None


def represents(q: DiagonalForm, c: int | Rational) -> bool:
    """Does q represent the nonzero rational c over Q?"""
    if c == 0:
        raise InputError("representation of zero is the isotropy question")
    s = squarefree_part(c)
    return is_isotropic(DiagonalForm(q.coefficients + (-s,)))


def isotropic_vector(q: DiagonalForm, bound: int) -> tuple[int, ...] | None:
    """Enumeration-order-minimal integer zero with max-norm <= bound, or None.

    SearchExhausted when the search's table budget ends it before the bound.
    """
    if bound < 1:
        raise InputError("search bound must be positive")
    if q.dim < 2:
        return None
    pos, neg = invariants(q).signature
    if pos == 0 or neg == 0:
        return None
    from .search import isotropic_vector_search

    vec = isotropic_vector_search(q.coefficients, bound)
    if vec is not None:
        _crosscheck(
            sum(c * x * x for c, x in zip(q.coefficients, vec)) == 0,
            "the search returns a zero of the form",
        )
    return vec


def isometric(q1: DiagonalForm, q2: DiagonalForm) -> bool:
    """Isometry over Q: equal dimension, determinant class, signature, all Hasse symbols."""
    return invariants(q1).key == invariants(q2).key


@dataclass(frozen=True)
class WittDecomposition:
    witt_index: int
    anisotropic_part: DiagonalForm | None
    witnesses: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "witt_index": self.witt_index,
            "anisotropic_part": None
            if self.anisotropic_part is None
            else self.anisotropic_part.to_json(),
            "witnesses": [list(w) for w in self.witnesses],
        }


def _peel_invariants(inv: FormInvariants) -> FormInvariants:
    """Invariants of q' where q = H perp q', via the orthogonal-sum rule."""
    det2 = -inv.determinant  # square-free, as every determinant is
    hasse2 = tuple((v, e * _hasse_squarefree((-1, det2), v.prime)) for v, e in inv.hasse)
    n2 = inv.dimension - 2
    return FormInvariants(
        dimension=n2,
        determinant=det2,
        signed_discriminant=_disc_sign(n2) * det2,
        hasse=hasse2,
        signature=(inv.signature[0] - 1, inv.signature[1] - 1),
    )


def _split_hyperbolic(q: DiagonalForm, vec: tuple[int, ...]) -> DiagonalForm | None:
    """Split off the hyperbolic plane through an isotropic vector; diagonalize the rest.

    With i < k the first two nonzero coordinates of v, the vectors
    e_f - (a_f v_f)/(a_k v_k) e_k for f != i, k (ascending) span the plane's
    complement, so its Gram matrix is diag(a_f) + u u^T/T with u_f = a_f v_f and
    T = a_k v_k^2 (Lam, Ch. I). Gaussian elimination takes as pivot the first
    index r left with a nonzero diagonal entry a_r (T + a_r v_r^2)/T, of class
    a_r T (T + a_r v_r^2), and leaves the same shape on the other indices with
    T + a_r v_r^2 for T. When every entry left is zero, the first two indices
    r, s fold (row and column s added to r) into the pivots 2p/T^2 and -p/(2T^2),
    p = u_r u_s T, and leave -T for T. The complement of a hyperbolic plane in a
    regular form is regular, so a fold has two indices. Each class is a product
    of square classes, so only the values of T are factored. None when the plane
    is the whole form.
    """
    a = q.coefficients
    lead = [j for j, x in enumerate(vec) if x][:2]
    free = [f for f in range(q.dim) if f not in lead]
    if not free:
        return None
    t = a[lead[1]] * vec[lead[1]] ** 2
    t_class = a[lead[1]]
    classes: list[int] = []
    while free:
        r = next((r for r in free if t + a[r] * vec[r] ** 2), None)
        if r is None:
            r, s = free[:2]
            c = squarefree_product(
                (2, a[r], a[s], squarefree_part(vec[r]), squarefree_part(vec[s]), t_class)
            )
            classes += [c, -c]
            del free[:2]
            t, t_class = -t, -t_class
            continue
        free.remove(r)
        t_next = t + a[r] * vec[r] ** 2
        t_next_class = squarefree_part(t_next)
        classes.append(squarefree_product((a[r], t_class, t_next_class)))
        t, t_class = t_next, t_next_class
    return DiagonalForm.of(classes)


_SYNTH_BUDGET = 1 << 16  # candidate forms _synthesize tries before SearchExhausted


def _synthesize(target: FormInvariants, q: DiagonalForm) -> DiagonalForm | None:
    """Search small diagonal forms realizing the target invariants, in lexicographic
    order over squarefree_classes(limit), listed lazily as far as the budget reaches.
    Only targets of one or two entries can run the pool (78 classes or more) out first:
    a binary kernel <a, a det> is then searched over a alone, past the pool, and a
    one-entry kernel is refused (ROADMAP item 4)."""
    if target.dimension == 0:
        return None
    limit = max(64, max(abs(x) for x in q.coefficients) * 4)
    # one class past the budget: a longer pool must end in SearchExhausted, not run out
    pool = list(islice(chain((1,), iter_witnesses(limit)), _SYNTH_BUDGET + 1))
    for tried, combo in enumerate(product(pool, repeat=target.dimension)):
        if tried == _SYNTH_BUDGET:
            raise SearchExhausted(f"no anisotropic part of {q} among {tried} candidate forms")
        cand = DiagonalForm(combo)
        if invariants(cand).key == target.key:
            return cand
    if target.dimension == 1:
        return None
    firsts = chain((1,), iter_witnesses(1 << 62))  # the table grows only as far as read
    for a in islice(firsts, _SYNTH_BUDGET):
        cand = DiagonalForm((a, squarefree_product((a, target.determinant))))
        if invariants(cand).key == target.key:
            return cand
    raise SearchExhausted(f"no anisotropic part of {q} among {_SYNTH_BUDGET} binary forms")


_SPLIT_BOUND = 200  # max-norm of the isotropic vectors witt_decompose searches for
_PIVOT_TRIES = 1 << 12  # members of the progression _split_value tries before SearchExhausted


def _split_value(head: tuple[int, ...], rest: tuple[int, ...]) -> int:
    """A square-free t with <head,-t> and rest + <t> isotropic, for an isotropic
    head + rest with two coefficients in head.

    At each relevant place some square classes of t work locally. t = s q: s
    holds the sign and the primes at which no working class is a unit, and q
    is 1 or a prime off the relevant places giving s q working unit classes:
    the least below 2**14, else the first in the progression that fixes q's
    residue at each relevant prime (it holds primes, by Dirichlet's theorem).
    Off those places and q both forms have unit coefficients, so are
    isotropic; at q a ternary form is isotropic too, being anisotropic at an
    even number of places, and a larger one has three unit coefficients.
    """
    places = relevant_places(DiagonalForm(head + rest))
    allowed = {
        v: {
            _local_class(c, v)
            for c in _class_reps(v)
            if is_isotropic_local(DiagonalForm(head + (-c,)), v)
            and is_isotropic_local(DiagonalForm(rest + (c,)), v)
        }
        for v in places
    }
    s = 1 if (0, 1) in allowed[places[0]] else -1
    for v in places[1:]:
        if all(e for e, _ in allowed[v]):
            s *= v.prime
    r, m = 0, 1  # q = r mod m, by the Chinese remainder theorem
    for v in places[1:]:
        p = v.prime
        assert p is not None
        mod = 8 if p == 2 else p
        u = next(u for u in range(1, mod) if u % p and _local_class(s * u, v) in allowed[v])
        r += m * ((u - r) * pow(m, -1, mod) % mod)
        m *= mod
    bad = {v.prime for v in places}
    small = (q for q in range(3, 1 << 14, 2) if q not in bad)
    for q in chain((1,), small, islice(count(r, m), _PIVOT_TRIES)):
        if (q == 1 or is_prime(q)) and all(_local_class(s * q, v) in allowed[v] for v in places):
            return s * q
    raise SearchExhausted(f"no value splits <{head + rest}> among {_PIVOT_TRIES} candidates")


def _constructed_vector(coefficients: tuple[int, ...]) -> tuple[int, ...]:
    """An isotropic vector of an isotropic form of dimension 3 or more, built.

    Three variables: Legendre's descent. More: head <a1,a2> and the rest are
    split through a value t from _split_value, and zeros
    a1 x1^2 + a2 x2^2 = t z^2 and rest(y) = -t w^2 give (w x1, w x2, z y).
    """
    if len(coefficients) == 3:
        from .conics import ternary_zero

        found = ternary_zero(*coefficients)
        _crosscheck(found is not None, "an isotropic ternary form has a zero")
        assert found is not None
        return found
    head, rest = coefficients[:2], coefficients[2:]
    t = _split_value(head, rest)
    x1, x2, z = _constructed_vector(head + (-t,))
    *y, w = _constructed_vector(rest + (t,))
    if z == 0:  # <a1,a2> is itself isotropic
        return (x1, x2) + (0,) * len(rest)
    if w == 0:
        return (0, 0) + tuple(y)
    vec = (w * x1, w * x2, *(z * v for v in y))
    k = gcd(*vec)
    return tuple(v // k for v in vec)


def _peel(q: DiagonalForm) -> tuple[int, FormInvariants]:
    """Witt index and the anisotropic part's invariants, from invariants alone."""
    target = invariants(q)
    index = 0
    while target._failure is None:
        target = _peel_invariants(target)
        index += 1
    return index, target


def witt_index(q: DiagonalForm) -> int:
    """Number of hyperbolic planes q splits off; no vector is searched for."""
    return _peel(q)[0]


def witt_decompose(q: DiagonalForm) -> WittDecomposition:
    """Witt index, anisotropic kernel, and the splitting witnesses used."""
    index, target = _peel(q)
    # explicit splitting builds a concrete anisotropic part alongside the count
    current: DiagonalForm | None = q
    witnesses: list[tuple[int, ...]] = []
    built = False
    for i in range(index):
        assert current is not None
        try:
            vec = isotropic_vector(current, _SPLIT_BOUND)
        except SearchExhausted:  # the table budget ended the search first
            vec = None
        if vec is None:
            # the remainder's coefficients grow with each split, past the search's reach
            try:
                vec = _constructed_vector(current.coefficients)
            except SearchExhausted:
                current = None
                break
            _crosscheck(
                sum(c * x * x for c, x in zip(current.coefficients, vec)) == 0,
                "the constructed vector is a zero of the form",
            )
            built = True
        witnesses.append(vec)
        if built and i == index - 1:
            break  # the kernel comes from _synthesize below; its large complement is not needed
        try:
            current = _split_hyperbolic(current, vec)
        except SearchExhausted:  # factoring the complement of a built vector
            current = None
            break
    part: DiagonalForm | None
    if target.dimension == 0:
        part = None
    # a built vector is large, and so are the coefficients of what it splits off;
    # the kernel shown is then the small form _synthesize finds, as without it
    elif current is not None and current.dim == target.dimension and not built:
        part = current
        _crosscheck(
            invariants(part).key == target.key,
            "the split-off kernel has the anisotropic part's invariants",
        )
    else:
        part = _synthesize(target, q)
        if part is None:
            raise InputError(
                f"could not realize the anisotropic part of {q} within the search budget"
            )
    if part is not None:
        _crosscheck(not is_isotropic(part), "the anisotropic part is anisotropic")
    return WittDecomposition(index, part, tuple(witnesses))


def pfister(generators: Sequence[int | Rational]) -> DiagonalForm:
    """<<a_1, ..., a_n>> expanded over subsets in binary counter order."""
    gens = [squarefree_part(g) for g in generators]
    if not gens:
        raise InputError("a Pfister form needs at least one generator")
    coeffs = []
    for mask in range(2 ** len(gens)):
        prod = 1
        for i, g in enumerate(gens):
            if mask >> i & 1:
                prod *= g
        coeffs.append(squarefree_part(prod))
    return DiagonalForm(tuple(coeffs))


def pfister_exponent(q: DiagonalForm) -> int | None:
    """n when q is isometric to an n-fold Pfister form (n = 1, 2), else None."""
    if q.dim == 2:
        return 1 if represents(q, 1) else None
    if q.dim == 4:
        if q.det() == 1 and represents(q, 1):
            return 2
        return None
    return None
