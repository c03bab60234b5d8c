"""Seeded inputs for the benchmark workloads, built without calling quatgenus.

Every workload takes its items from a fixed corpus built here from
CORPUS_SEED; a run's --seed sets the order in which its passes take them.
The answer to every corpus item is recorded in checksums.json, so each
output has a recorded digest to be checked against. Division tests and ramification sets come from the small
Hilbert-symbol code in this module, which shares nothing with the program:
a change to the program cannot change the inputs.
"""

from __future__ import annotations

import random

CORPUS_SEED = 1301_5632

# Symbols of the concrete tower families (the acceptance suite's pool).
FAMILY_SYMBOLS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)
# witness_sequence(10), the pushing classes: square-free |c| <= 10, positive
# first, c = 1 skipped. It happens to equal FAMILY_SYMBOLS.
SMALL_CLASSES = FAMILY_SYMBOLS
DEFINITE_POOL = (1, 2, 3, 5, 6, 7)
ABSTRACT_SYMBOLS = ("s1", "s2", "s3", "s4")

DEEP_SCRIPT = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3], [-2, -5], [-1, -7]],
    "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 4, "window": 20}],
}
# A two-algebra family at a small window, for smoke runs.
DEEP_SCRIPT_TINY = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3]],
    "steps": [{"kind": "alternate", "rounds": 1, "max_rounds": 2, "window": 6}],
}

BATCH_KINDS = ("pushing", "iterate", "linking", "hoffmann", "abstract")
FORM_KINDS = ("analyze", "isotropic", "witt")
ALGEBRA_KINDS = ("compare", "witness", "embeds")

# Corpus items per stratum.
BATCH_PER_STRATUM = 3
FORMS_PER_KIND = 1000
ALGEBRAS_PER_KIND = 100

# Generated items left out of the corpus because one call outlasts a whole
# run. Both spend their time in the is_linked cross-check, whose
# witt_decompose enumerates candidate kernels without a budget (17.9 s and
# 9.8 s on a 2-core machine). A workload with such pairs belongs with the
# change that bounds that search.
KNOWN_GAPS = (
    {"kind": "compare", "first": [-30, 29], "second": [-15, -29]},
    {"kind": "compare", "first": [5, -30], "second": [-15, -5]},
)


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n != 0, ascending, by trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_part(n: int) -> int:
    out = -1 if n < 0 else 1
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return out * n


def hilbert(a: int, b: int, p: int | None) -> int:
    """(a, b)_p for square-free a, b; p None is the real place."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = (1, a // p) if a % p == 0 else (0, a)
    beta, w = (1, b // p) if b % p == 0 else (0, b)
    if p == 2:
        eps = lambda x: (x - 1) // 2 % 2
        omega = lambda x: (x * x - 1) // 8 % 2
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    value = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta:
        value *= 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1
    if alpha:
        value *= 1 if pow(w % p, (p - 1) // 2, p) == 1 else -1
    return value


def ramification(a: int, b: int) -> frozenset:
    """Places (None for the real place) where (a, b) is division."""
    places = [None, 2] + [p for p in prime_factors(a * b) if p != 2]
    return frozenset(p for p in places if hilbert(a, b, p) == -1)


def _nonzero(rng: random.Random, size: int) -> int:
    return rng.choice([x for x in range(-size, size + 1) if x != 0])


def _division(rng: random.Random, symbols) -> tuple[int, int]:
    while True:
        a, b = rng.choice(symbols), rng.choice(symbols)
        if ramification(a, b):
            return a, b


def _family(rng: random.Random, size: int) -> list[list[int]]:
    """Pairwise non-isomorphic division algebras (distinct ramification)."""
    family: list[tuple[int, int]] = []
    while len(family) < size:
        alg = _division(rng, FAMILY_SYMBOLS)
        if all(ramification(*alg) != ramification(*g) for g in family):
            family.append(alg)
    return [list(alg) for alg in family]


def _abstract_script(rng: random.Random) -> dict:
    """Two abstract algebras, each pair's linkage form and norms assumed anisotropic.

    Three or more abstract algebras always end in TruncationError: the second
    linkage form has trivial discriminant, so its function field is not
    certified to stay defined.
    """
    first = tuple(rng.sample(ABSTRACT_SYMBOLS, 2))
    second = first
    while set(second) == set(first):
        second = tuple(rng.sample(ABSTRACT_SYMBOLS, 2))
    names = sorted(set(first) | set(second))
    return {
        "base": {
            "abstract": {
                "symbols": names,
                "assumptions": [
                    {"id": "norms-1", "anisotropic": {"norm_of": 0}},
                    {"id": "norms-2", "anisotropic": {"norm_of": 1}},
                    {"id": "link-12", "anisotropic": {"albert_of": [0, 1]}},
                ],
            }
        },
        "algebras": [{"symbols": list(first)}, {"symbols": list(second)}],
        "steps": [{"kind": "linking"}],
    }


def _batch_script(rng: random.Random, kind: str, size: int) -> dict:
    if kind == "abstract":
        return _abstract_script(rng)
    family = _family(rng, size)
    if kind == "pushing":
        steps = [{"kind": "pushing", "classes": rng.sample(SMALL_CLASSES, rng.randint(1, 2))}]
    elif kind == "iterate":
        steps = [{"kind": "iterate", "window": rng.choice((6, 8, 10)), "max_rounds": 1}]
    elif kind == "linking":
        steps = [{"kind": "linking"}]
    else:
        steps = [
            {"kind": "adjoin", "form": sorted(rng.sample(DEFINITE_POOL, 5))},
            {"kind": "pushing", "classes": [rng.choice(SMALL_CLASSES)]},
        ]
    return {"base": "rationals", "algebras": family, "steps": steps}


def _form(rng: random.Random) -> list[int]:
    return [squarefree_part(_nonzero(rng, 100)) for _ in range(rng.randint(2, 5))]


def _algebra(rng: random.Random) -> list[int]:
    symbols = [squarefree_part(x) for x in range(-30, 31) if x != 0]
    return list(_division(rng, symbols))


def _algebra_query(rng: random.Random, kind: str) -> dict:
    if kind == "embeds":
        c = 1
        while c == 1:
            c = squarefree_part(_nonzero(rng, 30))
        return {"kind": kind, "algebra": _algebra(rng), "c": c}
    return {"kind": kind, "first": _algebra(rng), "second": _algebra(rng)}


def corpus(workload: str) -> list[list[dict]]:
    """The fixed strata of a workload's corpus; items are JSON-ready."""
    if workload == "tower-deep":
        return [[{"kind": "deep", "script": DEEP_SCRIPT}], [{"kind": "deep", "script": DEEP_SCRIPT_TINY}]]
    rng = random.Random(f"{CORPUS_SEED}:{workload}")
    if workload == "tower-batch":
        strata = [(kind, size) for kind in BATCH_KINDS[:-1] for size in (1, 2, 3)]
        strata.append(("abstract", 2))
        return [
            [{"kind": kind, "script": _batch_script(rng, kind, size)} for _ in range(BATCH_PER_STRATUM)]
            for kind, size in strata
        ]
    if workload == "queries":
        forms = [
            [{"kind": kind, "form": _form(rng)} for _ in range(FORMS_PER_KIND)] for kind in FORM_KINDS
        ]
        algebras = [
            [q for q in (_algebra_query(rng, kind) for _ in range(ALGEBRAS_PER_KIND)) if q not in KNOWN_GAPS]
            for kind in ALGEBRA_KINDS
        ]
        return forms + algebras
    raise ValueError(f"unknown workload: {workload}")


def draw(workload: str, seed: int, size: str, order: int = 0) -> list[tuple[int, dict]]:
    """The (corpus index, item) pairs one pass uses, in the order it runs them.

    A full pass takes every corpus item, so every seed does the same work and
    the recorded checksum covers it. The seed and the pass's order number
    set the order, which decides what the program's caches hold when each
    item arrives. A tiny pass takes the first item of each stratum, in corpus
    order. tower-deep is a single fixed script (a smaller one when tiny).
    """
    strata = corpus(workload)
    indexed = []
    offset = 0
    for stratum in strata:
        indexed.append([(offset + i, item) for i, item in enumerate(stratum)])
        offset += len(stratum)
    if workload == "tower-deep":
        return indexed[0] if size == "full" else indexed[1]
    if size == "tiny":
        return [stratum[0] for stratum in indexed]
    picked = [entry for stratum in indexed for entry in stratum]
    random.Random(f"{seed}:{order}:{workload}").shuffle(picked)
    return picked
