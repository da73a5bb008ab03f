"""Heat semigroup estimation and functional-inequality verification.

Two independent routes to the semigroup P_T = exp(T L / 2) live here:

* Monte Carlo: P_T f(x) is the sample mean of f(x * g_T) over simulated group
  Brownian endpoints.  One endpoint set is drawn per sampler and reused for
  every function and every evaluation point (common random numbers).  The
  derivatives of P_T f are means too, of the chain rule through
  x * (e u, 0) * g path by path, so Gamma carries no differencing bias.
* A grid PDE solver for the three-dimensional group (n=2, d=1): the
  semi-discrete solution u(T) = exp(T L_h) u_0 of du/dt = (X^2 + Y^2)u/2,
  with X = d/dw1 - (w2/2) d/dc, Y = d/dw2 + (w1/2) d/dc and L_h the
  second-order centered stencil of (X^2 + Y^2)/2, as one Chebyshev
  expansion in L_h.

Each inequality check reads P_T f once per point and returns VerificationRecords,
one per value of its p, q or offset grid, with both sides and the propagated
statistical errors.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureConstants
from .geometry import cc_distance
from .groups import GroupElement, OmegaForm, identity, multiply, multiply_arrays
from .records import VerificationRecord, coords_str
from .rng import mix64
from .stochastic import _mean_se, sample_endpoints

__all__ = [
    "BumpFunction", "SemigroupSampler", "GridDensity",
    "pde_oracle_h3", "apply_h3_generator",
    "verify_reverse_poincare", "verify_reverse_logsobolev",
    "verify_wang_harnack", "verify_integrated_harnack", "verify_strong_feller",
    "strong_feller_modulus",
]


# --------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class BumpFunction:
    """Smooth compactly supported bump plus a constant floor.

    f(z) = floor + height * exp(-1 / (1 - r^2)) for r < 1 and floor outside,
    where r is the Euclidean distance of the full coordinate vector from the
    center, divided by the radius.  A positive floor keeps the function
    strictly positive, as the logarithmic inequalities require.
    """

    center: GroupElement
    radius: float
    height: float = 1.0
    floor: float = 0.0
    _center: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("bump radius must be positive")
        if self.floor < 0:
            raise ValueError("bump floor must be nonnegative")
        object.__setattr__(self, "_center", self.center.coords())

    def _support(self, coords):
        """Offsets from the center, the inside mask, and s = 1/(1 - r^2) inside."""
        delta = np.atleast_2d(np.asarray(coords, dtype=float)) - self._center
        r2 = np.sum(delta * delta, axis=1) / (self.radius * self.radius)
        inside = r2 < 1.0
        return delta, inside, 1.0 / (1.0 - r2[inside])

    def __call__(self, coords):
        delta, inside, s = self._support(coords)
        out = np.full(len(delta), self.floor)
        out[inside] += self.height * np.exp(-s)
        return out

    def gradient(self, coords):
        """Coordinate gradient, shape (N, n+d); exactly zero off the support."""
        delta, inside, s = self._support(coords)
        out = np.zeros_like(delta)
        out[inside] = ((-2.0 * self.height / (self.radius * self.radius))
                       * (s * s * np.exp(-s)))[:, None] * delta[inside]
        return out

    def sup_bound(self) -> float:
        return self.floor + self.height * math.exp(-1.0)


# --------------------------------------------------------------------------
# Monte Carlo semigroup


class SemigroupSampler:
    """One endpoint set, many semigroup estimates under common random numbers.

    ``dilated`` moves the set to another time on the same paths, so a sweep
    over T shares its random numbers across T as well.

    Optionally composes every endpoint with an independent Gaussian start
    point (diagonal standard deviations ``mollifier``), which matches a grid
    solve whose delta initial condition was mollified by the same Gaussian:
    ``mollifier=cells * np.array(density.steps())`` for a ``pde_oracle_h3``
    solve at ``mollifier_cells=cells``.
    """

    def __init__(self, form: OmegaForm, T: float, steps: int, samples: int,
                 seed: int, mollifier=None):
        self.form = form
        self.T = float(T)
        self.steps = int(steps)
        self.samples = int(samples)
        self.mollified = mollifier is not None
        W, C = sample_endpoints(form, T, steps, samples, seed)
        if self.mollified:
            sig = np.asarray(mollifier, dtype=float)
            if sig.shape != (form.n + form.d,):
                raise ValueError("mollifier needs one standard deviation per coordinate")
            rng = np.random.Generator(np.random.Philox(key=mix64(seed, "mollifier", 0)))
            start = rng.standard_normal((samples, form.n + form.d)) * sig[None, :]
            W, C = multiply_arrays(form, start[:, :form.n], start[:, form.n:], W, C)
        self._W = W
        self._C = C

    def endpoints(self):
        """The cached endpoint coordinate arrays (W, C); read-only by convention."""
        return self._W, self._C

    def dilated(self, T: float) -> "SemigroupSampler":
        """The sampler at time T on the same paths, with arrays of its own.

        Brownian scaling is exact for the left-point sums: B_T = sqrt(T) B_1
        and M_T = T M_1, so the endpoints at T are the group dilation by
        sqrt(T / self.T) of these, and equal a fresh draw at T with the same
        seed up to round-off.  A mollified start point does not scale with
        T, so a mollified sampler cannot be dilated.
        """
        if self.mollified:
            raise ValueError("a mollified sampler cannot be dilated in time")
        if not T > 0:
            raise ValueError(f"terminal time must be positive, got {T}")
        ratio = float(T) / self.T
        out = copy.copy(self)
        out.T = float(T)
        out._W = math.sqrt(ratio) * self._W
        out._C = ratio * self._C
        return out

    def values(self, func, x: GroupElement) -> np.ndarray:
        """Per-sample values f(x * g_i); the raw material of every estimate."""
        W, C = multiply_arrays(self.form, x.w, x.c, self._W, self._C)
        return np.asarray(func(np.concatenate([W, C], axis=1)), dtype=float)

    def derivatives(self, func, x: GroupElement) -> np.ndarray:
        """Per-sample derivatives whose means are those of P_T f at x along
        X_i (column i) and Z_l (column n+l).  With z = x * g_i, g_i = (W, C),
        d/de f(x * (e u, 0) * g_i) at e = 0 is grad_w f(z) . u
        + (1/2) sum_l d_{c_l} f(z) form(u, W - x.w)_l; along Z_l, d_{c_l} f(z)."""
        n, offset = self.form.n, self._W - x.w
        D = self.values(func.gradient, x)
        for l, A in enumerate(self.form.vertical_matrices()):
            D[:, :n] += 0.5 * D[:, n + l, None] * (offset @ A.T)   # form(e_i, v)_l = (A v)_i
        return D


def _squared_sum(D, fvals=None):
    """Sum over the columns of D of their squared means, and its standard
    error.  Every column reads the same paths, so the error is the delta
    method's for the whole sum: that of D @ (2d), with d the column means.
    Given the values ``fvals`` of f, each mean d is divided by
    b = mean(fvals), the derivative of ln P_T f, and D by the delta method
    becomes (D - d f) / b."""
    d = D.mean(axis=0)
    if fvals is not None:
        b = fvals.mean()
        if b <= 0:
            raise ValueError("semigroup estimate not positive; log derivative undefined")
        d /= b
        D = (D - d * fvals[:, None]) / b
    # _mean_se rescales, so errors of a path at the support's edge do not underflow
    return float(d @ d), 2.0 * _mean_se(D @ d)[1]


# --------------------------------------------------------------------------
# grid PDE oracle for the three-dimensional group


@dataclass
class GridDensity:
    axes: tuple          # (w1, w2, c) node coordinate arrays
    values: np.ndarray   # (len(w1), len(w2), len(c))
    T: float
    mass: float
    mass_ok: bool
    meta: dict = field(default_factory=dict)

    def steps(self):
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def quadrature(self, integrand=None) -> float:
        """Trapezoid integral of integrand (defaults to the density itself)."""
        vals = self.values if integrand is None else integrand
        return _trapezoid3(self.axes, vals)

    def interpolate(self, points, fill=0.0) -> np.ndarray:
        """Trilinear interpolation at (N, 3) ``points``; ``fill`` outside the box.

        A point is outside when a coordinate lies below the first or above
        the last node of its axis, compared in coordinates, so the outside set
        and the values are those of scipy's ``RegularGridInterpolator``.  The
        axes are uniform, so a point's cell is a floor, not a search.
        """
        pts = np.asarray(points, dtype=float)
        out = np.full(len(pts), fill, dtype=float)
        inside = np.ones(len(pts), dtype=bool)
        for k, a in enumerate(self.axes):
            inside &= (pts[:, k] >= a[0]) & (pts[:, k] <= a[-1])
        cells, fracs = [], []
        for k, a in enumerate(self.axes):
            x = pts[inside, k]
            i = np.clip(np.floor((x - a[0]) / (a[1] - a[0])).astype(np.intp), 0, len(a) - 2)
            cells.append(i)
            fracs.append((x - a[i]) / (a[i + 1] - a[i]))
        _, J, L = self.values.shape
        flat = self.values.ravel()
        (i, j, l), (t, u, s) = cells, fracs
        base = (i * J + j) * L + l

        def along_c(offset):
            return flat[base + offset] * (1.0 - s) + flat[base + offset + 1] * s

        lo = along_c(0) * (1.0 - u) + along_c(L) * u
        hi = along_c(J * L) * (1.0 - u) + along_c(J * L + L) * u
        out[inside] = lo * (1.0 - t) + hi * t
        return out

    def grid_coords(self):
        w1, w2, c = np.meshgrid(*self.axes, indexing="ij")
        return w1, w2, c


def _trapezoid3(axes, vals) -> float:
    w1, w2, c = axes
    return float(np.trapezoid(np.trapezoid(np.trapezoid(vals, c, axis=2),
                                           w2, axis=1), w1, axis=0))


def _spectral_radius_bound(w1, w2, c):
    """Gershgorin bound rho_G on the spectral radius of ``apply_h3_generator``,
    whose spectrum lies in [-rho_G, 0].

    The row of interior node (w1=a, w2=b) has absolute sum
    2(1/dw1^2 + 1/dw2^2 + (a^2+b^2)/(4dc^2)) + (|a|/dw2 + |b|/dw1)/(2dc),
    largest at the interior nodes farthest from the axes.

    The upper end: on the interior nodes, with zero faces, write D for the
    wide central first differences (v_{j+1} - v_{j-1})/2h and delta^2 for
    the three-point second differences along each axis.  With
    X_D = D_1 - (w2/2) D_c and Y_D = D_2 + (w1/2) D_c, the stencil is
    L = (X_D^2 + Y_D^2)/2 + [(delta_1^2 - D_1^2) + (delta_2^2 - D_2^2)
    + ((w1^2 + w2^2)/4)(delta_c^2 - D_c^2)]/2, because the coefficients w1 and
    w2 commute with the differences along the other axes.  X_D and Y_D are
    antisymmetric, so their squares are negative semidefinite.  In one
    dimension, with S the shift, (S - S^T)^2 = S^2 + S^T^2 - 2 + E, where E
    is 1 at the two corner entries of the diagonal and 0 elsewhere, so
    4h^2 (delta^2 - D^2) = -(S^2 + S^T^2 - 4S - 4S^T + 6) - E: minus the
    Toeplitz matrix of the nonnegative symbol (2 - 2cos t)^2, minus E, which
    is negative definite.  Hence L is symmetric and spec(L) lies in
    [-rho_G, 0].
    """
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    a = max(abs(w1[1]), abs(w1[-2]))
    b = max(abs(w2[1]), abs(w2[-2]))
    return (2.0 * (1 / dw1**2 + 1 / dw2**2 + (a * a + b * b) / (4 * dc * dc))
            + (a / dw2 + b / dw1) / (2 * dc))


# Tail of the Chebyshev coefficients at which the expansion stops: 256 units
# of round-off, about what the few hundred terms of a solve lose to rounding.
_CHEBYSHEV_TAIL = 256 * np.finfo(float).eps


def _chebyshev_coefficients(z):
    """c_0..c_{m-1} of exp(z(x - 1)) = sum_k c_k T_k(x) on [-1, 1], and the
    tail sum_{k>=m} c_k, with m the first degree whose tail is below
    ``_CHEBYSHEV_TAIL``.

    c_k = (2 - delta_k0) e^-z I_k(z).  The ratios I_k/I_{k-1} come from
    Miller's backward recurrence, started well past the degrees in use, and
    sum_k c_k = exp(0) = 1 normalizes their products; every c_k is positive.
    """
    top = int(12.0 * math.sqrt(z)) + 40       # I_top(z) e^-z < 1e-30 here
    ratio, r = np.empty(top + 1), 0.0
    ratio[0] = 1.0
    for k in range(top, 0, -1):
        r = z / (2.0 * k + z * r)
        ratio[k] = r
    c = np.cumprod(ratio)
    c[1:] *= 2.0
    c /= c.sum()
    tail = np.cumsum(c[::-1])[::-1]
    m = int(np.argmax(tail < _CHEBYSHEV_TAIL))
    return c[:m], float(tail[m])


def _step_work(shape):
    """Work buffers for ``_step_numpy``: the vertical central difference of u
    and three interior-sized arrays."""
    I, J, L = shape
    inner = (I - 2, J - 2, L - 2)
    return (np.empty((I, J, L - 2)), np.empty(inner), np.empty(inner), np.empty(inner))


def _step_numpy(u, unew, w1, w2, idw1sq, idw2sq, idcsq, i4w2c, i4w1c, dt, work=None):
    """One explicit Euler step of du/dt = (X^2 + Y^2)u/2 on the interior of unew.

    Both mixed derivatives come from one vertical central difference, the
    three second differences share one 2u buffer, and the scalar factors are
    folded into the multiplies.  Every intermediate goes to ``work`` (see
    ``_step_work``), so a solve that passes the same buffers at every step
    allocates only the small per-column coefficients.
    """
    dcu, two_u, acc, tmp = _step_work(u.shape) if work is None else work
    ui = u[1:-1, 1:-1, 1:-1]
    a = w1[1:-1, None, None]
    b = w2[None, 1:-1, None]
    np.subtract(u[:, :, 2:], u[:, :, :-2], out=dcu)
    np.add(ui, ui, out=two_u)
    # second differences along w1, w2 and c
    np.add(u[2:, 1:-1, 1:-1], u[:-2, 1:-1, 1:-1], out=acc)
    np.subtract(acc, two_u, out=acc)
    np.multiply(acc, 0.5 * dt * idw1sq, out=acc)
    np.add(u[1:-1, 2:, 1:-1], u[1:-1, :-2, 1:-1], out=tmp)
    np.subtract(tmp, two_u, out=tmp)
    np.multiply(tmp, 0.5 * dt * idw2sq, out=tmp)
    np.add(acc, tmp, out=acc)
    np.add(u[1:-1, 1:-1, 2:], u[1:-1, 1:-1, :-2], out=tmp)
    np.subtract(tmp, two_u, out=tmp)
    np.multiply(tmp, (a * a + b * b) * (0.125 * dt * idcsq), out=tmp)
    np.add(acc, tmp, out=acc)
    # mixed terms a * d2u/dw2dc - b * d2u/dw1dc
    np.subtract(dcu[1:-1, 2:], dcu[1:-1, :-2], out=tmp)
    np.multiply(tmp, a * (0.5 * dt * i4w2c), out=tmp)
    np.add(acc, tmp, out=acc)
    np.subtract(dcu[2:, 1:-1], dcu[:-2, 1:-1], out=tmp)
    np.multiply(tmp, b * (0.5 * dt * i4w1c), out=tmp)
    np.subtract(acc, tmp, out=acc)
    np.add(ui, acc, out=unew[1:-1, 1:-1, 1:-1])


def apply_h3_generator(axes, values) -> np.ndarray:
    """One application of (X^2 + Y^2)/2 by the same stencils; zero on the boundary."""
    w1, w2, c = axes
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    out = np.zeros_like(values)
    _step_numpy(values, out, w1, w2, 1 / dw1**2, 1 / dw2**2, 1 / dc**2,
                1 / (4 * dw2 * dc), 1 / (4 * dw1 * dc), 1.0)
    out[1:-1, 1:-1, 1:-1] -= values[1:-1, 1:-1, 1:-1]
    return out


def _mollified_delta(axes, cells):
    w1, w2, c = axes
    sig = (cells * (w1[1] - w1[0]), cells * (w2[1] - w2[0]), cells * (c[1] - c[0]))
    g1 = np.exp(-0.5 * (w1 / sig[0]) ** 2) / (sig[0] * math.sqrt(2 * math.pi))
    g2 = np.exp(-0.5 * (w2 / sig[1]) ** 2) / (sig[1] * math.sqrt(2 * math.pi))
    g3 = np.exp(-0.5 * (c / sig[2]) ** 2) / (sig[2] * math.sqrt(2 * math.pi))
    return g1[:, None, None] * g2[None, :, None] * g3[None, None, :]


def pde_oracle_h3(initial, T: float, box, shape, cfl_fraction=None,
                  mollifier_cells: float = 2.0) -> GridDensity:
    """Grid solve of the group heat equation on the n=2, d=1 group.

    ``initial`` is "delta" (a Gaussian of ``mollifier_cells`` cells per axis,
    normalized to unit mass) or a callable on (N, 3) coordinates; anything
    else raises ValueError.  Boundary values are pinned to zero, so mass
    leaks only through the box walls.  ``cfl_fraction`` is accepted and
    ignored: the solve takes no time steps.

    The solution u(T) = exp(T L) u_0 of the semi-discrete equation, with L the
    stencil operator of ``_step_numpy``, is one Chebyshev expansion (Tal-Ezer
    & Kosloff 1984, J. Chem. Phys. 81).  spec(L) lies in [-rho_G, 0]
    (``_spectral_radius_bound``), so A = 1 + 2L/rho_G has its spectrum in
    [-1, 1] and exp(T L) = sum_k c_k T_k(A) with the coefficients of
    ``_chebyshev_coefficients`` at z = T rho_G / 2.  T_k(A) u_0 comes from
    the three-term recurrence T_{k+1} = 2A T_k - T_{k-1}, one stencil
    application per term, and |T_k| <= 1 on [-1, 1] bounds the error of the
    m kept terms by tail * ||u_0||_2 in the Euclidean norm of the grid.
    ``meta`` reports the stencil applications as ``steps`` (m - 1), rho_G as
    ``spectral_bound`` and tail * ||u_0||_2 as ``truncation_bound``.

    The stencil's work buffers, the sum and the three grids of the
    recurrence are allocated once per solve.
    """
    if not T > 0:
        raise ValueError("terminal time must be positive")
    axes = tuple(np.linspace(lo, hi, num) for (lo, hi), num in zip(box, shape))
    w1, w2, c = axes

    is_density = isinstance(initial, str) and initial == "delta"
    if is_density:
        u = _mollified_delta(axes, mollifier_cells)
    elif callable(initial):
        g1, g2, g3 = np.meshgrid(w1, w2, c, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
        u = np.asarray(initial(pts), dtype=float).reshape(shape)
    else:
        raise ValueError(f'initial must be "delta" or a callable, got {type(initial).__name__}')
    u[0, :, :] = u[-1, :, :] = 0.0
    u[:, 0, :] = u[:, -1, :] = 0.0
    u[:, :, 0] = u[:, :, -1] = 0.0

    if is_density:
        u /= _trapezoid3(axes, u)

    rho = float(_spectral_radius_bound(w1, w2, c))
    coeffs, tail = _chebyshev_coefficients(0.5 * T * rho)
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    # a step of dt = 2 / rho_G applies A
    args = (w1, w2, 1 / dw1**2, 1 / dw2**2, 1 / dc**2,
            1 / (4 * dw2 * dc), 1 / (4 * dw1 * dc), 2.0 / rho)
    truncation = tail * float(np.linalg.norm(u))
    work = _step_work(u.shape)
    # the faces of every grid stay zero: the stencil writes only interiors
    total, prev, cur, scratch = coeffs[0] * u, u, np.zeros_like(u), np.zeros_like(u)
    for k, ck in enumerate(coeffs[1:], start=1):
        if k == 1:
            _step_numpy(prev, cur, *args, work=work)
        else:
            _step_numpy(cur, scratch, *args, work=work)
            np.multiply(scratch, 2.0, out=scratch)
            np.subtract(scratch, prev, out=prev)
            prev, cur = cur, prev
        np.multiply(cur, ck, out=scratch)
        np.add(total, scratch, out=total)

    mass = _trapezoid3(axes, total)
    mass_ok = (0.99 <= mass <= 1.0 + 1e-9) if is_density else True
    return GridDensity(axes, total, T, mass, mass_ok,
                       {"steps": len(coeffs) - 1, "spectral_bound": rho,
                        "truncation_bound": truncation,
                        "mollifier_cells": mollifier_cells if is_density else None})


# --------------------------------------------------------------------------
# inequality verifiers


def _record(lhs, rhs, se_lhs, se_rhs, **fields) -> VerificationRecord:
    """The record of lhs <= rhs, with margin rhs - lhs; it passes unless the
    margin falls below three combined standard errors."""
    margin = rhs - lhs
    tolerance = 3.0 * math.hypot(se_lhs, se_rhs)
    return VerificationRecord(lhs=lhs, rhs=rhs, stderr_lhs=se_lhs, stderr_rhs=se_rhs,
                              margin=margin, passed=bool(margin >= -tolerance), **fields)


def _reverse_record(sampler, f, x, constants, log_fvals, core, se_core,
                    record_id, **detail) -> VerificationRecord:
    """Gamma(g) + rho2 T Gamma^Z(g) against (harnack_coeff / T) core at x.

    g is P_T f, or ln P_T f given ``log_fvals``, the values of f the verifier
    read; ``core`` is the variance or entropy term with standard error
    ``se_core``.  Both gradients come from one read of the pathwise derivatives.
    """
    T, form = sampler.T, sampler.form
    D = sampler.derivatives(f, x)
    grad, se_g = _squared_sum(D[:, :form.n], log_fvals)
    gradz, se_gz = _squared_sum(D[:, form.n:], log_fvals)
    coeff = constants.harnack_coeff / T
    vertical = constants.rho2 * T
    return _record(
        grad + vertical * gradz, coeff * core, math.hypot(se_g, vertical * se_gz),
        coeff * se_core, record_id=record_id, rank=form.n, T=T,
        x=coords_str(x.coords()),
        detail={"grad_sq": grad, "grad_z_sq": gradz, "samples": sampler.samples, **detail},
    )


def verify_reverse_poincare(sampler: SemigroupSampler, f, x: GroupElement,
                            constants: CurvatureConstants,
                            record_id: str = "reverse-poincare") -> VerificationRecord:
    """Squared gradients of P_T f against the variance bound at x."""
    vals = sampler.values(f, x)
    # centred form: E[f^2] - E[f]^2 cancels to a negative value on constant f
    dev_sq = (vals - vals.mean()) ** 2
    var_est = dev_sq.mean()
    return _reverse_record(sampler, f, x, constants, None, var_est,
                           _mean_se(dev_sq - var_est)[1], record_id, variance=var_est)


def verify_reverse_logsobolev(sampler: SemigroupSampler, f: BumpFunction,
                              x: GroupElement, constants: CurvatureConstants,
                              record_id: str = "reverse-logsobolev") -> VerificationRecord:
    """Squared gradients of ln P_T f against the entropy bound at x."""
    if not getattr(f, "floor", 0.0) > 0.0:
        raise ValueError("reverse log-Sobolev needs a strictly positive test function")
    fv = sampler.values(f, x)
    b = fv.mean()
    if b <= 0:
        raise ValueError("nonpositive semigroup estimate for a positive function")
    # E[f ln f]/E[f] - ln E[f] = E[u ln u - u + 1] with u = f/E[f]; every term
    # is >= 0, whereas the difference form cancels to a negative value on
    # constant f
    u = fv / b
    terms = u * np.log(u) - u + 1.0
    core = terms.mean()
    lin = (terms - core) - core * (u - 1.0)
    return _reverse_record(sampler, f, x, constants, fv, core,
                           _mean_se(lin)[1], record_id, entropy_core=core)


def verify_wang_harnack(sampler: SemigroupSampler, f, x: GroupElement,
                        y: GroupElement, p_grid, dist_sq: float,
                        constants: CurvatureConstants,
                        record_id: str = "wang-harnack") -> list:
    """(P_T f)^p(x) against P_T f^p(y) times the distance-exponential factor:
    one record ``{record_id}-p{p:g}`` per p in ``p_grid``, from one read of x
    and one of y."""
    p_grid = list(p_grid)
    if not all(p > 1 for p in p_grid):
        raise ValueError("the exponent must exceed one")
    T = sampler.T
    mx, sx = _mean_se(sampler.values(f, x))
    fy = sampler.values(f, y)
    records = []
    for p in p_grid:
        my, sy = _mean_se(fy ** p)
        factor = math.exp(constants.harnack_coeff * dist_sq / (4.0 * (p - 1.0) * T))
        records.append(_record(
            mx ** p, my * factor, p * mx ** (p - 1.0) * sx, factor * sy,
            record_id=f"{record_id}-p{p:g}", rank=sampler.form.n, T=T, p_or_q=p,
            x=coords_str(x.coords()), y=coords_str(y.coords()),
            detail={"dist_sq": dist_sq, "factor": factor},
        ))
    return records


def verify_integrated_harnack(density: GridDensity, form: OmegaForm,
                              y: GroupElement, q_grid, dist_sq: float,
                              constants: CurvatureConstants,
                              grid_tol: float = 0.02,
                              record_id: str = "integrated-harnack") -> list:
    """L^q norms of the density ratio under right translation, from the grid.

    One record per q in ``q_grid``, with id ``{record_id}-q{q:g}``.  LHS is
    the 1/q power of the trapezoid integral of (p(z y^-1) / p(z))^q p(z);
    p(z y^-1) is trilinear-interpolated, undefined outside the box, once per
    call and shared by every q.  A record is flagged when the density mass
    excluded by the shifted evaluation or the positivity floor exceeds one
    percent.
    """
    q_grid = list(q_grid)
    if not all(q > 1 for q in q_grid):
        raise ValueError("the exponent must exceed one")
    T = density.T
    # z * y^-1 at every grid point z, written over z
    z = np.stack(density.grid_coords(), axis=-1).reshape(-1, 3)
    z[:, :2], z[:, 2:] = multiply_arrays(form, z[:, :2], z[:, 2:], -y.w, -y.c)
    p_shift = density.interpolate(z, fill=np.nan).reshape(density.values.shape)
    floor = 1e-15 * float(density.values.max())
    valid = ~np.isnan(p_shift) & (density.values > floor)
    pv = density.values[valid]
    ratio = p_shift[valid] / pv
    excluded_mass = density.quadrature(np.where(valid, 0.0, density.values))
    flagged = excluded_mass > 0.01
    integrand = np.zeros_like(density.values)
    records = []
    for q in q_grid:
        integrand[valid] = ratio ** q * pv
        lhs = density.quadrature(integrand) ** (1.0 / q)
        rhs = math.exp(constants.harnack_coeff * q * dist_sq / (4.0 * T))
        margin = rhs * (1.0 + grid_tol) - lhs
        records.append(VerificationRecord(
            record_id=f"{record_id}-q{q:g}", rank=form.n, T=T, p_or_q=q,
            y=coords_str(y.coords()), lhs=lhs, rhs=rhs, margin=margin,
            passed=bool(margin >= 0.0 and not flagged),
            detail={"dist_sq": dist_sq, "excluded_mass": excluded_mass,
                    "grid_tol": grid_tol, "flagged": flagged},
        ))
    return records


def verify_strong_feller(sampler: SemigroupSampler, diffs: np.ndarray,
                         x: GroupElement, y: GroupElement, dist_sq: float,
                         constants: CurvatureConstants, sup_bound: float,
                         record_id: str = "strong-feller") -> VerificationRecord:
    """|P_T f(x) - P_T f(y)|^2 against the distance-modulus bound, from the
    per-path differences ``diffs`` = f(x * g_i) - f(y * g_i) of ``sampler``."""
    T = sampler.T
    m, se_m = _mean_se(diffs)
    rhs = sup_bound**2 * math.expm1(constants.harnack_coeff * dist_sq / (2.0 * T))
    return _record(
        m * m, rhs, 2.0 * abs(m) * se_m, 0.0,
        record_id=record_id, rank=sampler.form.n, T=T,
        x=coords_str(x.coords()), y=coords_str(y.coords()),
        detail={"dist_sq": dist_sq, "difference": m, "sup_bound": sup_bound},
    )


def strong_feller_modulus(sampler: SemigroupSampler, f, x: GroupElement,
                          direction: np.ndarray, offsets,
                          constants: CurvatureConstants, sup_bound: float) -> list:
    """One modulus-bound record per horizontal offset h.

    Offsets move y = x * (h * direction, 0), at CC distance h from x, and
    P_T f is read once at x and at each y.  Every CRN difference
    |P_T f(x) - P_T f(y)| must satisfy the modulus bound, whose rhs falls to
    0 with h (record ``strong-feller-h{h:g}``), so the records witness the
    continuity of P_T f.  They claim no monotone fall of the differences over
    the offsets, which fails wherever x + h * direction crosses a critical
    point of P_T f.
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("strong Feller offsets need a nonzero direction")
    direction = direction / norm
    form = sampler.form
    fx = sampler.values(f, x)
    records = []
    for h in offsets:
        step = GroupElement(h * direction, np.zeros(form.d))
        y = multiply(form, x, step)
        # d(x, x * step) = d(e, step) by left invariance
        records.append(verify_strong_feller(
            sampler, fx - sampler.values(f, y), x, y,
            cc_distance(form, identity(form), step).energy,
            constants, sup_bound, record_id=f"strong-feller-h{h:g}"))
    return records
