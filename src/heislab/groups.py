"""Step-2 nilpotent groups R^n x R^d built from an antisymmetric structure form.

A group element is a pair (w, c) of a horizontal vector w in R^n and a
vertical vector c in R^d.  The product is

    (w1, c1) * (w2, c2) = (w1 + w2, c1 + c2 + 0.5 * form(w1, w2)),

where the form is an antisymmetric bilinear map R^n x R^n -> R^d given by a
dense coefficient tensor.  All types here are immutable values; arrays are
copied on construction and never mutated afterwards.

The vertical part of a horizontal path is the integral of the form along
it.  ``OmegaForm.running_path_integral`` and ``OmegaForm.path_integral``
are the one left-point rule for it, sum_k form(B_k, B_{k+1} - B_k) over
positions B: exact for polygonal paths, and the Ito (equally Stratonovich)
sum for Brownian ones.

Every preset is a direct sum of weighted symplectic pairs, built by one
rule.  Whether a form's horizontal directions bracket-generate its vertical
space (the Hormander rank condition) is decided in one place,
``curvature.curvature_constants``, which raises ``HormanderError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "HormanderError",
    "OmegaForm",
    "GroupElement",
    "GroupPreset",
    "multiply",
    "inverse",
    "homogeneous_norm",
    "make_preset",
    "preset_catalog",
]

class DimensionMismatchError(ValueError):
    """Operands belong to groups of different dimensions."""


class HormanderError(ValueError):
    """The horizontal directions do not bracket-generate the vertical space."""


@dataclass(frozen=True)
class OmegaForm:
    """Antisymmetric coefficient tensor defining the bracket and group law.

    coeffs[i, j, l] is the l-th vertical component produced by pairing the
    i-th and j-th horizontal basis vectors.  Antisymmetry in (i, j) is
    required at construction.
    """

    n: int
    d: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (self.n, self.n, self.d):
            raise ValueError(
                f"coefficient tensor must have shape ({self.n}, {self.n}, {self.d}), "
                f"got {coeffs.shape}"
            )
        if not np.allclose(coeffs, -np.transpose(coeffs, (1, 0, 2)), atol=1e-14):
            raise ValueError("coefficient tensor is not antisymmetric in its first two axes")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def pair(self, u, v):
        """Apply the form: pair(u, v)[l] = sum_{ij} u[i] v[j] coeffs[i,j,l].

        Accepts batched inputs whose leading axes broadcast, e.g.
        (N, n) x (N, n) -> (N, d) or (n,) x (N, n) -> (N, d).  Each l
        contracts in two steps: t = u @ A_l, one matrix product, then the
        row-wise dot of t with v.  The only work buffer is one u-sized t
        at a time.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.empty(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (self.d,))
        for l in range(self.d):
            out[..., l] = np.einsum("...j,...j->...", u @ self.coeffs[:, :, l], v)
        return out

    def vertical_matrices(self):
        """The d antisymmetric n x n matrices coeffs[:, :, l]."""
        return np.moveaxis(self.coeffs, 2, 0)

    def running_path_integral(self, B):
        """Running left-point sums of form(B_k, B_{k+1} - B_k) along the
        positions B, shape (..., K+1, n); the result has shape (..., K+1, d)
        with a zero row 0.

        Each step pairs consecutive positions, form(B_k, B_{k+1}), which
        equals form(B_k, dB_k) because the form is antisymmetric, so no
        increment array is formed.
        """
        M = np.zeros(B.shape[:-1] + (self.d,))
        np.cumsum(self.pair(B[..., :-1, :], B[..., 1:, :]), axis=-2, out=M[..., 1:, :])
        return M

    def path_integral(self, B):
        """The whole left-point sum, shape (..., d): the last row of
        ``running_path_integral(B)`` up to round-off.  The step sum collapses
        into one batched matrix product S = B[..., :-1, :]^T B[..., 1:, :] of
        shape (..., n, n), so no per-step temporary is formed.
        """
        S = B[..., :-1, :].swapaxes(-1, -2) @ B[..., 1:, :]
        return np.einsum("...ij,lij->...l", S, self.vertical_matrices())

    def restrict(self, m: int) -> "OmegaForm":
        """The form of the rank-m projection group: the leading m x m block
        coeffs[:m, :m, :] on R^m x R^d.  Returns self at m = n."""
        if not 1 <= m <= self.n:
            raise ValueError(f"rank must be in [1, {self.n}], got {m}")
        return self if m == self.n else OmegaForm(m, self.d, self.coeffs[:m, :m])


@dataclass(frozen=True)
class GroupElement:
    """A point (w, c) of the group R^n x R^d."""

    w: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.array(self.w, dtype=float))
        c = np.atleast_1d(np.array(self.c, dtype=float))
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.c.shape[0]

    def coords(self) -> np.ndarray:
        return np.concatenate([self.w, self.c])

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.c, other.c)
        )


def identity(form: OmegaForm) -> GroupElement:
    return GroupElement(np.zeros(form.n), np.zeros(form.d))


def _check_same_group(form: OmegaForm, x: GroupElement, y: GroupElement):
    if x.n != y.n or x.d != y.d:
        raise DimensionMismatchError(
            f"elements live in different groups: ({x.n},{x.d}) vs ({y.n},{y.d})"
        )
    if x.n != form.n or x.d != form.d:
        raise DimensionMismatchError(
            f"element of dimensions ({x.n},{x.d}) does not match form ({form.n},{form.d})"
        )


def multiply(form: OmegaForm, x: GroupElement, y: GroupElement) -> GroupElement:
    """Group product (w1+w2, c1+c2+0.5*form(w1,w2))."""
    _check_same_group(form, x, y)
    return GroupElement(*multiply_arrays(form, x.w, x.c, y.w, y.c))


def inverse(x: GroupElement) -> GroupElement:
    """Group inverse, which is componentwise negation."""
    return GroupElement(-x.w, -x.c)


def homogeneous_norm(x: GroupElement) -> float:
    """sqrt(|w|^2 + |c|); the vertical norm enters to the first power."""
    return float(np.sqrt(np.dot(x.w, x.w) + np.linalg.norm(x.c)))


# Batched variants operating on arrays of coordinates; used by the Monte
# Carlo and acceptance codepaths where element-at-a-time objects are too slow.

def multiply_arrays(form, w1, c1, w2, c2):
    """Coordinates of the products (w1, c1) * (w2, c2); leading axes broadcast,
    so x.w, x.c against (N, n), (N, d) arrays left-translates N elements by x."""
    return w1 + w2, c1 + c2 + 0.5 * form.pair(w1, w2)


@dataclass(frozen=True)
class GroupPreset:
    name: str
    form: OmegaForm
    description: str


def _pairs_form(weights, owner, d: int) -> OmegaForm:
    """Direct sum of weighted symplectic pairs: pair j spans horizontal
    coordinates 2j and 2j+1, with weight weights[j] on vertical coordinate
    owner[j]."""
    q = np.asarray(weights, dtype=float)
    j = np.arange(len(q))
    coeffs = np.zeros((2 * len(q), 2 * len(q), d))
    coeffs[2 * j, 2 * j + 1, owner] = q
    coeffs[2 * j + 1, 2 * j, owner] = -q
    return OmegaForm(2 * len(q), d, coeffs)


def make_preset(name: str, **params) -> GroupPreset:
    """Build a named group preset.

    Supported names: ``heisenberg`` (pairs), ``block_sum`` (weights),
    ``wiener_truncation`` (pairs, s).
    """
    if name == "heisenberg":
        pairs = int(params.pop("pairs", 1))
        _reject_extra(params)
        if pairs < 1:
            raise ValueError("heisenberg preset needs pairs >= 1")
        form = _pairs_form([1.0] * pairs, [0] * pairs, 1)
        desc = f"Heisenberg group with {pairs} symplectic pair(s), n={form.n}, d=1"
        return GroupPreset(f"heisenberg({pairs})", form, desc)
    if name == "block_sum":
        weights = params.pop("weights")
        _reject_extra(params)
        q = [float(w) for w in weights]
        if not q:
            raise ValueError("block_sum needs at least one block weight")
        if 0.0 in q:
            raise ValueError("block weights must be nonzero")
        form = _pairs_form(q, range(len(q)), len(q))
        desc = f"direct sum of {form.d} weighted symplectic blocks, n={form.n}, d={form.d}"
        return GroupPreset(f"block_sum({list(weights)})", form, desc)
    if name == "wiener_truncation":
        pairs = int(params.pop("pairs"))
        s = float(params.pop("s"))
        _reject_extra(params)
        if pairs < 1:
            raise ValueError("wiener_truncation preset needs pairs >= 1")
        if not s > 1:
            raise ValueError(
                f"spectral decay exponent must exceed 1 for a summable weight sequence, got {s}"
            )
        form = _pairs_form([float(j + 1) ** (-s) for j in range(pairs)], [0] * pairs, 1)
        desc = (
            f"rank-{form.n} truncation of the symplectic form with weights "
            f"j^-{s:g}, n={form.n}, d=1"
        )
        return GroupPreset(f"wiener_truncation({pairs},{s:g})", form, desc)
    raise ValueError(f"unknown preset name: {name!r}")


def _reject_extra(params: dict):
    if params:
        raise ValueError(f"unexpected preset parameters: {sorted(params)}")


def preset_catalog():
    """Shipped presets, instantiated; used by the CLI catalog command."""
    entries = [
        ("heisenberg", {"pairs": 1}),
        ("heisenberg", {"pairs": 2}),
        ("heisenberg", {"pairs": 3}),
        ("block_sum", {"weights": [1, 1]}),
        ("block_sum", {"weights": [1, 3]}),
        ("wiener_truncation", {"pairs": 8, "s": 2}),
        ("wiener_truncation", {"pairs": 16, "s": 2}),
    ]
    return [(name, params, make_preset(name, **params)) for name, params in entries]
