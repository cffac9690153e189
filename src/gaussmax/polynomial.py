"""Sparse multivariate polynomials in six variables with exact integer
coefficients; used to verify algebraic identities with no tolerance."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

_ZERO6 = (0, 0, 0, 0, 0, 0)


class IntPolynomial6:
    """Polynomial in 6 variables, {exponent tuple: integer coefficient},
    kept canonical (no zero coefficients).  Immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        clean = {}
        if terms:
            for exps, coef in terms.items():
                if len(exps) != 6 or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r}")
                if coef:
                    clean[tuple(exps)] = int(coef)
        self._terms = clean

    @classmethod
    def zero(cls) -> "IntPolynomial6":
        return cls()

    @classmethod
    def const(cls, c: int) -> "IntPolynomial6":
        return cls({_ZERO6: int(c)})

    @classmethod
    def variable(cls, i: int) -> "IntPolynomial6":
        if not 0 <= i < 6:
            raise ValueError("variable index must be in 0..5")
        exps = [0] * 6
        exps[i] = 1
        return cls({tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __add__(self, other: "IntPolynomial6") -> "IntPolynomial6":
        out = dict(self._terms)
        for exps, coef in other._terms.items():
            new = out.get(exps, 0) + coef
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        p = IntPolynomial6.__new__(IntPolynomial6)
        p._terms = out
        return p

    def __neg__(self) -> "IntPolynomial6":
        p = IntPolynomial6.__new__(IntPolynomial6)
        p._terms = {e: -c for e, c in self._terms.items()}
        return p

    def __sub__(self, other: "IntPolynomial6") -> "IntPolynomial6":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial6":
        if isinstance(other, int):
            p = IntPolynomial6.__new__(IntPolynomial6)
            p._terms = {e: c * other for e, c in self._terms.items()} if other else {}
            return p
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                       e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        p = IntPolynomial6.__new__(IntPolynomial6)
        p._terms = out
        return p

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial6) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "IntPolynomial6(0)"
        return f"IntPolynomial6({len(self._terms)} terms, degree {self.degree()})"

    def evaluate(self, values: Iterable[Fraction]) -> Fraction:
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != 6:
            raise ValueError("need 6 values")
        total = Fraction(0)
        for exps, coef in self._terms.items():
            term = Fraction(coef)
            for v, e in zip(vals, exps):
                term *= v ** e
            total += term
        return total
