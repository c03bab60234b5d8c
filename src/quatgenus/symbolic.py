"""Opaque square-class symbols for abstract base fields.

A symbolic square class is a sign together with a set of named symbols
multiplied modulo squares (exponents live in F_2, so multiplication is
symmetric difference). No other arithmetic exists: distinct normal forms
are declared-distinct classes, which is exactly the abstract-mode contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, _is_int, _quoted


@dataclass(frozen=True)
class SymbolicClass:
    """sign * product of named symbols, exponents mod 2, symbols kept sorted."""

    sign: int
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        if tuple(sorted(self.symbols)) != self.symbols or len(set(self.symbols)) != len(
            self.symbols
        ):
            raise InputError("symbols must be sorted and distinct")

    @classmethod
    def one(cls) -> "SymbolicClass":
        return cls(1, ())

    @classmethod
    def named(cls, name: str) -> "SymbolicClass":
        return cls(1, (name,))

    def times(self, other: "SymbolicClass") -> "SymbolicClass":
        merged = set(self.symbols) ^ set(other.symbols)
        return SymbolicClass(self.sign * other.sign, tuple(sorted(merged)))

    def negated(self) -> "SymbolicClass":
        return SymbolicClass(-self.sign, self.symbols)

    def is_one(self) -> bool:
        return self.sign == 1 and not self.symbols

    def to_json(self) -> dict:
        return {"sign": self.sign, "symbols": list(self.symbols)}

    @classmethod
    def from_json(cls, data: object) -> "SymbolicClass":
        if (
            not isinstance(data, dict)
            or set(data) != {"sign", "symbols"}
            or not _is_int(data["sign"])
            or not isinstance(data["symbols"], list)
            or not all(isinstance(s, str) for s in data["symbols"])
        ):
            raise InputError(f"not a symbolic class: {_quoted(data)}")
        return cls(data["sign"], tuple(sorted(data["symbols"])))

    def __str__(self) -> str:
        body = "*".join(self.symbols) if self.symbols else "1"
        return body if self.sign == 1 else f"-{body}"


@dataclass(frozen=True)
class SymbolicForm:
    """Diagonal form whose entries are symbolic square classes."""

    coefficients: tuple[SymbolicClass, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise InputError("a form needs at least one coefficient")

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def det(self) -> SymbolicClass:
        out = SymbolicClass.one()
        for c in self.coefficients:
            out = out.times(c)
        return out

    def signed_disc(self) -> SymbolicClass:
        n = self.dim
        d = self.det()
        return d.negated() if (n * (n - 1) // 2) % 2 else d

    def contains_one(self) -> bool:
        return any(c.is_one() for c in self.coefficients)

    def pfister_exponent(self) -> int | None:
        """Syntactic recognition: dim 2 or 4 with a 1 entry and trivial discriminant."""
        if self.dim == 2 and self.contains_one():
            return 1
        if self.dim == 4 and self.contains_one() and self.signed_disc().is_one():
            return 2
        return None

    def to_json(self) -> dict:
        return {"symbolic": [c.to_json() for c in self.coefficients]}

    @classmethod
    def from_json(cls, data: object) -> "SymbolicForm":
        if (
            not isinstance(data, dict)
            or set(data) != {"symbolic"}
            or not isinstance(data["symbolic"], list)
        ):
            raise InputError(f"not a symbolic form: {_quoted(data)}")
        return cls(tuple(SymbolicClass.from_json(c) for c in data["symbolic"]))

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.coefficients) + ">"


@dataclass(frozen=True)
class SymbolicAlgebra:
    """Quaternion algebra whose symbol entries are opaque square classes."""

    a: SymbolicClass
    b: SymbolicClass

    def norm_form(self) -> SymbolicForm:
        return SymbolicForm(
            (
                SymbolicClass.one(),
                self.a.negated(),
                self.b.negated(),
                self.a.times(self.b),
            )
        )

    def to_json(self) -> dict:
        return {"symbols": [self.a.to_json(), self.b.to_json()]}

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def symbolic_albert_form(a1: SymbolicAlgebra, a2: SymbolicAlgebra) -> SymbolicForm:
    """<a, b, -ab, -a', -b', a'b'> in symbolic coefficients."""
    return SymbolicForm(
        (
            a1.a,
            a1.b,
            a1.a.times(a1.b).negated(),
            a2.a.negated(),
            a2.b.negated(),
            a2.a.times(a2.b),
        )
    )
