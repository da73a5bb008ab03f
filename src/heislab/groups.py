"""Step-2 nilpotent groups R^n x R^d built from an antisymmetric structure form.

A group element is a pair (w, c) of a horizontal vector w in R^n and a
vertical vector c in R^d.  The product is

    (w1, c1) * (w2, c2) = (w1 + w2, c1 + c2 + 0.5 * form(w1, w2)),

where the form is an antisymmetric bilinear map R^n x R^n -> R^d given by a
dense coefficient tensor.  All types here are immutable values; arrays are
copied on construction and never mutated afterwards.
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
    "bracket",
    "dilate",
    "homogeneous_norm",
    "euclidean_norm",
    "project",
    "make_preset",
    "preset_catalog",
]

# Numerical rank threshold, relative to the largest singular value.
RANK_RTOL = 1e-10


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

        Accepts batched inputs with leading axes, e.g. (N, n) x (N, n) -> (N, d).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.einsum("...i,...j,ijl->...l", u, v, self.coeffs)

    def vertical_matrices(self):
        """The d antisymmetric n x n matrices coeffs[:, :, l]."""
        return np.moveaxis(self.coeffs, 2, 0)

    def pair_matrix(self, m: int | None = None) -> np.ndarray:
        """d x m(m-1)/2 matrix whose columns are coeffs[i, j, :] for i < j <= m."""
        m = self.n if m is None else m
        iu, ju = np.triu_indices(m, k=1)
        return self.coeffs[iu, ju, :].T.copy()

    def hormander_ok(self, m: int | None = None) -> bool:
        """True iff the first m horizontal directions bracket-generate R^d."""
        cols = self.pair_matrix(m)
        if cols.size == 0:
            return False
        sv = np.linalg.svd(cols, compute_uv=False)
        return bool(sv[0] > 0 and sv[-1] > RANK_RTOL * sv[0]) and len(sv) >= self.d

    def require_hormander(self, m: int | None = None):
        if not self.hormander_ok(m):
            m = self.n if m is None else m
            raise HormanderError(
                f"form restricted to the first {m} horizontal coordinates does not "
                f"span the {self.d} vertical directions"
            )


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

    def isclose(self, other, atol=1e-12):
        return (
            self.n == other.n
            and self.d == other.d
            and np.allclose(self.w, other.w, atol=atol, rtol=0)
            and np.allclose(self.c, other.c, atol=atol, rtol=0)
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
    return GroupElement(x.w + y.w, x.c + y.c + 0.5 * form.pair(x.w, y.w))


def inverse(x: GroupElement) -> GroupElement:
    """Group inverse, which is componentwise negation."""
    return GroupElement(-x.w, -x.c)


def bracket(form: OmegaForm, x: GroupElement, y: GroupElement) -> GroupElement:
    """Lie bracket (0, form(w1, w2)); bilinear and antisymmetric."""
    _check_same_group(form, x, y)
    return GroupElement(np.zeros(form.n), form.pair(x.w, y.w))


def dilate(lam: float, x: GroupElement) -> GroupElement:
    """Grading automorphism (w, c) -> (lam*w, lam^2*c); requires lam > 0."""
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return GroupElement(lam * x.w, lam * lam * x.c)


def homogeneous_norm(x: GroupElement) -> float:
    """sqrt(|w|^2 + |c|); the vertical norm enters to the first power."""
    return float(np.sqrt(np.dot(x.w, x.w) + np.linalg.norm(x.c)))


def euclidean_norm(x: GroupElement) -> float:
    """Plain Banach-space norm sqrt(|w|^2 + |c|^2) of the coordinate vector."""
    return float(np.sqrt(np.dot(x.w, x.w) + np.dot(x.c, x.c)))


def project(m: int, x: GroupElement) -> GroupElement:
    """Zero horizontal coordinates beyond m; the vertical part is untouched.

    Whether the truncated form still bracket-generates the vertical space is
    for the caller to check (OmegaForm.hormander_ok); distance and simulation
    routines refuse ranks that fail it.
    """
    if not 1 <= m <= x.n:
        raise ValueError(f"rank must be in [1, {x.n}], got {m}")
    w = np.array(x.w)
    w[m:] = 0.0
    return GroupElement(w, x.c)


# Batched variants operating on arrays of coordinates; used by the Monte
# Carlo and acceptance codepaths where element-at-a-time objects are too slow.

def multiply_arrays(form, w1, c1, w2, c2):
    return w1 + w2, c1 + c2 + 0.5 * form.pair(w1, w2)


def translate_endpoints(form, x: GroupElement, w_samples, c_samples):
    """Left-translate a batch of elements by x: returns coords of x * g_i."""
    return multiply_arrays(
        form, np.broadcast_to(x.w, w_samples.shape), np.broadcast_to(x.c, c_samples.shape),
        w_samples, c_samples,
    )


@dataclass(frozen=True)
class GroupPreset:
    name: str
    form: OmegaForm
    description: str


def _heisenberg_form(pairs: int) -> OmegaForm:
    n = 2 * pairs
    coeffs = np.zeros((n, n, 1))
    for j in range(pairs):
        coeffs[2 * j, 2 * j + 1, 0] = 1.0
        coeffs[2 * j + 1, 2 * j, 0] = -1.0
    return OmegaForm(n, 1, coeffs)


def _block_sum_form(weights) -> OmegaForm:
    weights = [float(w) for w in weights]
    d = len(weights)
    if d == 0:
        raise ValueError("block_sum needs at least one block weight")
    n = 2 * d
    coeffs = np.zeros((n, n, d))
    for l, wt in enumerate(weights):
        if wt == 0:
            raise ValueError("block weights must be nonzero")
        coeffs[2 * l, 2 * l + 1, l] = wt
        coeffs[2 * l + 1, 2 * l, l] = -wt
    return OmegaForm(n, d, coeffs)


def _wiener_truncation_form(pairs: int, s: float) -> OmegaForm:
    if not s > 1:
        raise ValueError(
            f"spectral decay exponent must exceed 1 for a summable weight sequence, got {s}"
        )
    n = 2 * pairs
    coeffs = np.zeros((n, n, 1))
    for j in range(pairs):
        q = float(j + 1) ** (-s)
        coeffs[2 * j, 2 * j + 1, 0] = q
        coeffs[2 * j + 1, 2 * j, 0] = -q
    return OmegaForm(n, 1, coeffs)


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
        form = _heisenberg_form(pairs)
        desc = f"Heisenberg group with {pairs} symplectic pair(s), n={form.n}, d=1"
        return GroupPreset(f"heisenberg({pairs})", form, desc)
    if name == "block_sum":
        weights = params.pop("weights")
        _reject_extra(params)
        form = _block_sum_form(weights)
        desc = f"direct sum of {form.d} weighted symplectic blocks, n={form.n}, d={form.d}"
        return GroupPreset(f"block_sum({list(weights)})", form, desc)
    if name == "wiener_truncation":
        pairs = int(params.pop("pairs"))
        s = float(params.pop("s"))
        _reject_extra(params)
        if pairs < 1:
            raise ValueError("wiener_truncation preset needs pairs >= 1")
        form = _wiener_truncation_form(pairs, s)
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
