"""Sparse multivariate polynomials with exact arithmetic and differentiation.

Terms are stored as a dict from exponent tuples to float coefficients; exact
zeros are never stored.  These are the test functions for the group calculus:
every derivative taken there lands back in this class, so the calculus is
exact and only its end results are evaluated, never differenced.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PolynomialFunction", "constant", "random_polynomial"]


class PolynomialFunction:
    """Polynomial in ``nvars`` variables as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff != 0.0:
                    self.terms[tuple(exps)] = float(coeff)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "PolynomialFunction":
        # internal fast path: terms must already be canonical
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0.0) + coeff
            if acc == 0.0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return PolynomialFunction._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return PolynomialFunction._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                return PolynomialFunction._raw(self.nvars, {})
            return PolynomialFunction._raw(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key, 0.0) + c1 * c2
                if acc == 0.0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return PolynomialFunction._raw(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "PolynomialFunction":
        if isinstance(other, PolynomialFunction):
            if other.nvars != self.nvars:
                raise ValueError("polynomials have different variable counts")
            return other
        if isinstance(other, (int, float)):
            return constant(self.nvars, float(other))
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    # -- calculus ---------------------------------------------------------------

    def partial(self, var: int) -> "PolynomialFunction":
        """Partial derivative with respect to variable index ``var``."""
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            key = exps[:var] + (k - 1,) + exps[var + 1:]
            acc = out.get(key, 0.0) + coeff * k
            if acc == 0.0:
                out.pop(key, None)
            else:
                out[key] = acc
        return PolynomialFunction._raw(self.nvars, out)

    def shift_mul(self, var: int, coeff: float) -> "PolynomialFunction":
        """Multiply by coeff * x_var; a key shift, cheaper than general mul."""
        if coeff == 0.0:
            return PolynomialFunction._raw(self.nvars, {})
        out = {}
        for exps, c in self.terms.items():
            key = exps[:var] + (exps[var] + 1,) + exps[var + 1:]
            out[key] = c * coeff
        return PolynomialFunction._raw(self.nvars, out)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, point):
        """Evaluate at one point (length nvars) or a batch (N, nvars)."""
        point = np.asarray(point, dtype=float)
        single = point.ndim == 1
        pts = point[None, :] if single else point
        if pts.shape[1] != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {pts.shape[1]}")
        total = np.zeros(pts.shape[0])
        for exps, coeff in self.terms.items():
            mono = np.full(pts.shape[0], coeff)
            for v, k in enumerate(exps):
                if k == 1:
                    mono *= pts[:, v]
                elif k > 1:
                    mono *= pts[:, v] ** k
            total += mono
        return float(total[0]) if single else total

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolynomialFunction):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "PolynomialFunction(0)"
        bits = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(
                f"x{v}" if k == 1 else f"x{v}^{k}" for v, k in enumerate(exps) if k
            )
            bits.append(f"{coeff:g}*{mono}" if mono else f"{coeff:g}")
        return "PolynomialFunction(" + " + ".join(bits) + ")"


def constant(nvars: int, value: float) -> PolynomialFunction:
    if value == 0.0:
        return PolynomialFunction._raw(nvars, {})
    return PolynomialFunction._raw(nvars, {(0,) * nvars: float(value)})


def random_polynomial(nvars, max_degree, rng, terms=8, coeff_range=(-2.0, 2.0)):
    """Sparse random polynomial with total degree <= max_degree.

    Exponent tuples are drawn by splitting a uniformly chosen total degree
    across the variables; duplicate monomials merge.
    """
    out = {}
    for _ in range(terms):
        total = int(rng.integers(0, max_degree + 1))
        exps = [0] * nvars
        for _ in range(total):
            exps[int(rng.integers(0, nvars))] += 1
        coeff = float(rng.uniform(*coeff_range))
        key = tuple(exps)
        out[key] = out.get(key, 0.0) + coeff
    return PolynomialFunction(nvars, out)
