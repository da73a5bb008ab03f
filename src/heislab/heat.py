"""Heat semigroup estimation and functional-inequality verification.

Two independent routes to the semigroup P_T = exp(T L / 2) live here:

* Monte Carlo: P_T f(x) is the sample mean of f(x * g_T) over simulated group
  Brownian endpoints.  One endpoint set is drawn per sampler and reused for
  every function and every evaluation point, so finite differences of the
  semigroup share their noise (common random numbers) and differences of
  estimates are themselves mean estimates.
* A grid PDE solver for the three-dimensional group (n=2, d=1), stepping
  du/dt = (X^2 + Y^2)u/2 with X = d/dw1 - (w2/2) d/dc, Y = d/dw2 + (w1/2) d/dc
  by second-order centered stencils and Runge-Kutta-Legendre super steps in
  time.

Each inequality check produces one VerificationRecord with both sides, the
propagated statistical errors, and the stated deterministic slack.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import CurvatureConstants
from .geometry import cc_distance
from .groups import (
    GroupElement, OmegaForm, identity, multiply, multiply_arrays, translate_endpoints,
)
from .records import VerificationRecord, coords_str
from .rng import mix64
from .stochastic import sample_endpoints

__all__ = [
    "BumpFunction", "SemigroupEstimate", "SemigroupSampler", "GridDensity",
    "pde_oracle_h3", "apply_h3_generator", "mollified_sampler",
    "verify_reverse_poincare", "verify_reverse_logsobolev",
    "verify_wang_harnack", "verify_integrated_harnack", "verify_strong_feller",
    "strong_feller_modulus", "density_kde",
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

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("bump radius must be positive")
        if self.floor < 0:
            raise ValueError("bump floor must be nonnegative")

    def __call__(self, coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        delta = coords - self.center.coords()[None, :]
        r2 = np.sum(delta * delta, axis=1) / (self.radius * self.radius)
        out = np.full(r2.shape, self.floor)
        inside = r2 < 1.0
        out[inside] += self.height * np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def sup_bound(self) -> float:
        return self.floor + self.height * math.exp(-1.0)


# --------------------------------------------------------------------------
# Monte Carlo semigroup


@dataclass
class SemigroupEstimate:
    value: float
    stderr: float
    samples: int
    T: float
    steps: int
    point: GroupElement


class SemigroupSampler:
    """One endpoint set, many semigroup estimates under common random numbers.

    ``dilated`` moves the set to another time on the same paths, so a sweep
    over T shares its random numbers across T as well.

    Optionally composes every endpoint with an independent Gaussian start
    point (diagonal standard deviations ``mollifier``), which matches a grid
    solve whose delta initial condition was mollified by the same Gaussian.
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
        W, C = translate_endpoints(self.form, x, self._W, self._C)
        return np.asarray(func(np.concatenate([W, C], axis=1)), dtype=float)

    def estimate(self, func, x: GroupElement) -> SemigroupEstimate:
        value, se = _mean_se(self.values(func, x))
        return SemigroupEstimate(value, se, self.samples, self.T, self.steps, x)

    # -- common-random-number derivative estimates ---------------------------

    def _difference(self, func, x, direction, h, use_log):
        """Central difference of P_T f (or of ln P_T f) at x along ``direction``.

        ``direction`` is ("w", i) or ("c", l); both sides read the same
        endpoints, so the difference is itself a mean estimate.  Returns the
        estimate and its standard error.
        """
        kind, idx = direction
        vals = []
        for step in (h, -h):
            w, c = np.zeros(self.form.n), np.zeros(self.form.d)
            (w if kind == "w" else c)[idx] = step
            vals.append(self.values(func, multiply(self.form, x, GroupElement(w, c))))
        vp, vm = vals
        if not use_log:
            return _mean_se((vp - vm) / (2.0 * h))
        up, um = vp.mean(), vm.mean()
        if up <= 0 or um <= 0:
            raise ValueError("semigroup estimate not positive; log derivative undefined")
        # delta method: the log difference linearizes to the mean of vp/up - vm/um
        return ((math.log(up) - math.log(um)) / (2.0 * h),
                _mean_se(vp / up - vm / um)[1] / (2.0 * h))

    def _squared_gradient(self, func, x, h, directions, use_log):
        total, var, bias = 0.0, 0.0, 0.0
        for direction in directions:
            d_h, se = self._difference(func, x, direction, h, use_log)
            d_half, _ = self._difference(func, x, direction, 0.5 * h, use_log)
            total += d_half * d_half
            var += (2.0 * d_half * se) ** 2
            # Richardson gap bounds the residual O(h^2) differencing bias
            bias += abs(d_half * d_half - d_h * d_h)
        return total, math.sqrt(var), bias

    def gamma_estimate(self, func, x, h, rank=None, use_log=False):
        """Squared horizontal gradient of P_T f (or of ln P_T f) at x."""
        rank = self.form.n if rank is None else rank
        dirs = [("w", i) for i in range(rank)]
        return self._squared_gradient(func, x, h, dirs, use_log)

    def gamma_z_estimate(self, func, x, h, use_log=False):
        """Squared vertical gradient of P_T f (or of ln P_T f) at x."""
        dirs = [("c", l) for l in range(self.form.d)]
        return self._squared_gradient(func, x, h, dirs, use_log)


def mollified_sampler(form, T, steps, samples, seed, grid_steps,
                      cells=2.0) -> SemigroupSampler:
    """Sampler whose start point matches a grid delta mollified by ``cells``."""
    sig = np.array([cells * grid_steps[0], cells * grid_steps[1], cells * grid_steps[2]])
    return SemigroupSampler(form, T, steps, samples, seed, mollifier=sig)


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

    def value_at(self, point) -> float:
        return float(self.interpolate(np.asarray(point, dtype=float)[None, :])[0])


def _trapezoid3(axes, vals) -> float:
    w1, w2, c = axes
    return float(np.trapezoid(np.trapezoid(np.trapezoid(vals, c, axis=2),
                                           w2, axis=1), w1, axis=0))


def _spectral_radius_bound(w1, w2, c):
    """Gershgorin bound on the spectral radius of ``apply_h3_generator``.

    The row of interior node (w1=a, w2=b) has absolute sum
    2(1/dw1^2 + 1/dw2^2 + (a^2+b^2)/(4dc^2)) + (|a|/dw2 + |b|/dw1)/(2dc),
    largest at the interior nodes farthest from the axes.  The operator is
    symmetric (a and b commute with the central differences), so its
    eigenvalues are real and lie in [-bound, bound].
    """
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    a = max(abs(w1[1]), abs(w1[-2]))
    b = max(abs(w2[1]), abs(w2[-2]))
    return (2.0 * (1 / dw1**2 + 1 / dw2**2 + (a * a + b * b) / (4 * dc * dc))
            + (a / dw2 + b / dw1) / (2 * dc))


# RKL2 stages per super step.  The deviation from a fine-dt explicit solve
# grows with the stage count: on the 33x33x41 benchmark grid at T = 0.25 it
# is 2.1e-4 of the peak at six stages and 5.0e-4 at eight, against 3.9e-4
# for 1,125 explicit Euler steps.
_RKL_STAGES = 6


def _rkl2_b(s):
    """b_0..b_s of RKL2 (Meyer, Balsara & Aslam 2014, J. Comput. Phys. 257)."""
    j = np.arange(s + 1, dtype=float)
    b = np.full(s + 1, 1.0 / 3.0)
    b[2:] = (j[2:] ** 2 + j[2:] - 2) / (2 * j[2:] * (j[2:] + 1))
    return b


def _rkl2_coefficients(s):
    """(b_1, [(mu_j, nu_j, kappa_j) for j = 2..s]) of an s-stage RKL2 step.

    mu_j = (2j-1)/j b_j/b_{j-1} and nu_j = -(j-1)/j b_j/b_{j-2} as in Meyer,
    Balsara & Aslam; kappa_j = mu_j b_{j-1}/b_1 weighs Z_1 in the
    difference form of ``_rkl2_super_step``.
    """
    b = _rkl2_b(s)
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        stages.append((mu, -(j - 1) / j * b[j] / b[j - 2], mu * b[j - 1] / b[1]))
    return b[1], stages


def _rkl2_super_step(y0, z1, ring, coeffs, h, args, work):
    """One RKL2 super step, in place on y0; h = w_1 tau, w_1 = 4/(s^2+s-2).

    With Z_j = Y_j - Y_0 the stages are Z_1 = b_1 h L Y_0 and
    Z_j = mu_j (Z_{j-1} + h L Z_{j-1}) + nu_j Z_{j-2} + kappa_j Z_1,
    so every stage is one ``_step_numpy`` call at dt = h (the first at
    b_1 h) and Y_0 enters only at the end.  The history term
    nu_j Z_{j-2} + kappa_j Z_1 is built in place of Z_{j-2}, which no later
    stage reads, so the stages need only the three ``ring`` grids.  ``z1``
    and ``ring`` must have zero faces; the stepper never writes them.
    """
    b1, stages = coeffs
    _step_numpy(y0, z1, *args, b1 * h, work=work)
    np.subtract(z1, y0, out=z1)
    zm2, zm1 = None, z1
    for mu, nu, kappa in stages:
        free = [r for r in ring if r is not zm1 and r is not zm2]
        out = free[0]
        if zm2 is None or zm2 is z1:     # Z_0 = 0; Z_1 stays for later stages
            hist = free[1]
            np.multiply(z1, kappa if zm2 is None else kappa + nu, out=hist)
        else:
            hist = zm2
            np.multiply(z1, kappa, out=out)     # scratch until the stencil fills out
            np.multiply(hist, nu, out=hist)
            np.add(hist, out, out=hist)
        _step_numpy(zm1, out, *args, h, work=work)
        np.multiply(out, mu, out=out)
        np.add(out, hist, out=out)
        zm2, zm1 = zm1, out
    np.add(y0, zm1, out=y0)


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


def pde_oracle_h3(initial, T: float, box=((-6.0, 6.0), (-6.0, 6.0), (-8.0, 8.0)),
                  shape=(96, 96, 128), cfl_fraction: float = 0.5,
                  mollifier_cells: float = 2.0) -> GridDensity:
    """Grid solve of the group heat equation on the n=2, d=1 group.

    ``initial`` is "delta" (a Gaussian of ``mollifier_cells`` cells per axis,
    normalized to unit mass), a callable on (N, 3) coordinates, or a grid
    array.  Boundary values are pinned to zero, so mass leaks only through
    the box walls.

    Time steps are super steps of the second-order Runge-Kutta-Legendre
    scheme RKL2 (Meyer, Balsara & Aslam 2014, J. Comput. Phys. 257) with
    ``_RKL_STAGES`` stages, each stage one application of the stencil
    ``_step_numpy``.  The stencil operator is symmetric with spectral radius
    at most the closed-form Gershgorin bound rho_G
    (``_spectral_radius_bound``), so a super step is stable up to
    tau_max = (2/rho_G)(s^2+s-2)/4.  The super step is ``cfl_fraction``
    (at most 1) times tau_max, shortened so that a whole number of super
    steps reaches T.  ``meta`` reports the
    super step ``dt``, the number of super ``steps`` (steps * dt = T), the
    ``stages`` per step, the ``operator_applications`` (stages * steps) and
    tau_max as ``stability_bound``.

    The stencil's work buffers and the three extra grids of the stages are
    allocated once per solve.
    """
    if not T > 0:
        raise ValueError("terminal time must be positive")
    axes = tuple(np.linspace(lo, hi, num) for (lo, hi), num in zip(box, shape))
    w1, w2, c = axes
    stages = _RKL_STAGES
    bound = float(2.0 / _spectral_radius_bound(w1, w2, c)) * (stages * stages + stages - 2) / 4.0
    if not 0 < cfl_fraction <= 1:
        raise ValueError(f"cfl_fraction={cfl_fraction} must lie in (0, 1]: a super step "
                         f"above the stability bound {bound:.3e} is unstable")
    dt = cfl_fraction * bound
    steps = max(1, int(math.ceil(T / dt)))
    dt = T / steps

    is_density = isinstance(initial, str) and initial == "delta"
    if is_density:
        u = _mollified_delta(axes, mollifier_cells)
    elif callable(initial):
        g1, g2, g3 = np.meshgrid(w1, w2, c, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
        u = np.asarray(initial(pts), dtype=float).reshape(shape)
    else:
        u = np.array(initial, dtype=float)
        if u.shape != shape:
            raise ValueError(f"initial grid has shape {u.shape}, expected {shape}")
    u[0, :, :] = u[-1, :, :] = 0.0
    u[:, 0, :] = u[:, -1, :] = 0.0
    u[:, :, 0] = u[:, :, -1] = 0.0

    if is_density:
        u /= _trapezoid3(axes, u)

    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    args = (w1, w2, 1 / dw1**2, 1 / dw2**2, 1 / dc**2,
            1 / (4 * dw2 * dc), 1 / (4 * dw1 * dc))
    coeffs = _rkl2_coefficients(stages)
    h = 4.0 * dt / (stages * stages + stages - 2)
    z1 = np.zeros_like(u)
    ring = tuple(np.zeros_like(u) for _ in range(3))
    work = _step_work(u.shape)
    for _ in range(steps):
        _rkl2_super_step(u, z1, ring, coeffs, h, args, work)

    mass = _trapezoid3(axes, u)
    mass_ok = (0.99 <= mass <= 1.0 + 1e-9) if is_density else True
    return GridDensity(axes, u, T, mass, mass_ok,
                       {"dt": dt, "steps": steps, "stability_bound": bound,
                        "stages": stages, "operator_applications": stages * steps,
                        "mollifier_cells": mollifier_cells if is_density else None})


# --------------------------------------------------------------------------
# inequality verifiers


def _mean_se(v):
    """Sample mean of v and its standard error (0 for a single sample)."""
    se = v.std(ddof=1) / np.sqrt(len(v)) if len(v) > 1 else 0.0
    return float(v.mean()), float(se)


def _record(lhs, rhs, se_lhs, se_rhs, slack, **fields) -> VerificationRecord:
    """The record of lhs <= rhs, with margin rhs - lhs.

    It passes unless the margin falls below three combined standard errors
    plus the deterministic ``slack``.
    """
    margin = rhs - lhs
    tolerance = 3.0 * math.sqrt(se_lhs * se_lhs + se_rhs * se_rhs) + slack
    return VerificationRecord(lhs=lhs, rhs=rhs, stderr_lhs=se_lhs, stderr_rhs=se_rhs,
                              margin=margin, passed=bool(margin >= -tolerance), **fields)


def _reverse_record(sampler, f, x, constants, h, rank, use_log, core, se_core,
                    record_id, preset, **detail) -> VerificationRecord:
    """Gamma(g) + rho2 T Gamma^Z(g) against (harnack_coeff / T) core at x.

    g is P_T f, or ln P_T f when ``use_log``; ``core`` is the variance or
    entropy term with standard error ``se_core``.  The Richardson gap of the
    squared gradients is the slack.
    """
    T = sampler.T
    grad, se_g, bias_g = sampler.gamma_estimate(f, x, h, rank=rank, use_log=use_log)
    gradz, se_gz, bias_gz = sampler.gamma_z_estimate(f, x, h, use_log=use_log)
    coeff = constants.harnack_coeff / T
    vertical = constants.rho2 * T
    se_v = vertical * se_gz
    slack = bias_g + vertical * bias_gz
    return _record(
        grad + vertical * gradz, coeff * core, math.sqrt(se_g * se_g + se_v * se_v),
        coeff * se_core, slack, record_id=record_id, preset=preset,
        rank=rank or sampler.form.n, T=T, x=coords_str(x.coords()),
        detail={"grad_sq": grad, "grad_z_sq": gradz, "richardson_slack": slack,
                "h": h, "samples": sampler.samples, **detail},
    )


def verify_reverse_poincare(sampler: SemigroupSampler, f, x: GroupElement,
                            constants: CurvatureConstants, h: float,
                            rank: int | None = None,
                            record_id: str = "reverse-poincare",
                            preset: str = "") -> VerificationRecord:
    """Squared gradients of P_T f against the variance bound at x."""
    vals = sampler.values(f, x)
    # centred form: E[f^2] - E[f]^2 cancels to a negative value on constant f
    dev_sq = (vals - vals.mean()) ** 2
    var_est = dev_sq.mean()
    return _reverse_record(sampler, f, x, constants, h, rank, False, var_est,
                           _mean_se(dev_sq - var_est)[1], record_id, preset,
                           variance=var_est)


def verify_reverse_logsobolev(sampler: SemigroupSampler, f: BumpFunction,
                              x: GroupElement, constants: CurvatureConstants,
                              h: float, rank: int | None = None,
                              record_id: str = "reverse-logsobolev",
                              preset: str = "") -> VerificationRecord:
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
    return _reverse_record(sampler, f, x, constants, h, rank, True, core,
                           _mean_se(lin)[1], record_id, preset, entropy_core=core)


def verify_wang_harnack(sampler: SemigroupSampler, f, x: GroupElement,
                        y: GroupElement, p: float, dist_sq: float,
                        constants: CurvatureConstants,
                        record_id: str = "wang-harnack",
                        preset: str = "") -> VerificationRecord:
    """(P_T f)^p(x) against P_T f^p(y) times the distance-exponential factor."""
    if not p > 1:
        raise ValueError("the exponent must exceed one")
    T = sampler.T
    mx, sx = _mean_se(sampler.values(f, x))
    my, sy = _mean_se(sampler.values(f, y) ** p)
    factor = math.exp(constants.harnack_coeff * dist_sq / (4.0 * (p - 1.0) * T))
    return _record(
        mx ** p, my * factor, p * mx ** (p - 1.0) * sx, factor * sy, 0.0,
        record_id=record_id, preset=preset, rank=sampler.form.n, T=T, p_or_q=p,
        x=coords_str(x.coords()), y=coords_str(y.coords()),
        detail={"dist_sq": dist_sq, "factor": factor},
    )


def verify_integrated_harnack(density: GridDensity, form: OmegaForm,
                              y: GroupElement, q_grid, dist_sq: float,
                              constants: CurvatureConstants,
                              grid_tol: float = 0.02,
                              record_id: str = "integrated-harnack",
                              preset: str = "") -> list:
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
    w1, w2, c = density.grid_coords()
    # z * y^{-1} = (w_z - w_y, c_z - c_y - form(w_z, w_y)/2)
    wy1, wy2 = y.w[0], y.w[1]
    pairing = form.coeffs[0, 1, 0] * (w1 * wy2 - w2 * wy1)
    shifted = np.stack([
        (w1 - wy1).ravel(), (w2 - wy2).ravel(),
        (c - y.c[0] - 0.5 * pairing).ravel(),
    ], axis=1)
    p_shift = density.interpolate(shifted, fill=np.nan).reshape(density.values.shape)
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
            record_id=f"{record_id}-q{q:g}", preset=preset, rank=form.n, T=T, p_or_q=q,
            y=coords_str(y.coords()), lhs=lhs, rhs=rhs, margin=margin,
            passed=bool(margin >= 0.0 and not flagged),
            detail={"dist_sq": dist_sq, "excluded_mass": excluded_mass,
                    "grid_tol": grid_tol, "flagged": flagged},
        ))
    return records


def verify_strong_feller(sampler: SemigroupSampler, f, x: GroupElement,
                         y: GroupElement, dist_sq: float,
                         constants: CurvatureConstants, sup_bound: float,
                         record_id: str = "strong-feller",
                         preset: str = "") -> VerificationRecord:
    """|P_T f(x) - P_T f(y)|^2 against the distance-modulus bound."""
    T = sampler.T
    m, se_m = _mean_se(sampler.values(f, x) - sampler.values(f, y))
    rhs = sup_bound**2 * math.expm1(constants.harnack_coeff * dist_sq / (2.0 * T))
    return _record(
        m * m, rhs, 2.0 * abs(m) * se_m, 0.0, 0.0,
        record_id=record_id, preset=preset, rank=sampler.form.n, T=T,
        x=coords_str(x.coords()), y=coords_str(y.coords()),
        detail={"dist_sq": dist_sq, "difference": m, "sup_bound": sup_bound},
    )


def strong_feller_modulus(sampler: SemigroupSampler, f, x: GroupElement,
                          direction: np.ndarray, offsets,
                          constants: CurvatureConstants, sup_bound: float,
                          preset: str = ""):
    """Bound records over shrinking horizontal offsets, plus the shrink flag.

    Offsets move y = x * (h * direction, 0), at CC distance h from x.  Every
    CRN difference |P_T f(x) - P_T f(y)| must satisfy the modulus bound, and
    it must not rise from one offset to the next by more than three
    standard errors of the paired per-path rise: every offset reads the same
    endpoints, so consecutive differences share most of their noise.
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("strong Feller offsets need a nonzero direction")
    direction = direction / norm
    form = sampler.form
    fx = sampler.values(f, x)
    records, diffs, paths = [], [], []
    for h in offsets:
        step = GroupElement(h * direction, np.zeros(form.d))
        y = multiply(form, x, step)
        # d(x, x * step) = d(e, step) by left invariance
        rec = verify_strong_feller(sampler, f, x, y,
                                   cc_distance(form, identity(form), step).energy,
                                   constants, sup_bound,
                                   record_id=f"strong-feller-h{h:g}", preset=preset)
        records.append(rec)
        diffs.append(abs(rec.detail["difference"]))
        # per path, the summand of |difference|
        paths.append(math.copysign(1.0, rec.detail["difference"]) * (fx - sampler.values(f, y)))
    rises = [_mean_se(b - a) for a, b in zip(paths, paths[1:])]
    shrinking = all(rise <= 3.0 * se + 1e-12 for rise, se in rises)
    return records, shrinking, diffs


# --------------------------------------------------------------------------
# kernel density estimation (qualitative cross-checks only)


def density_kde(W, C, bandwidth, query_points) -> np.ndarray:
    """Product-Gaussian kernel density estimate in the full coordinates.

    Too noisy for tail ratios; never used in pass/fail records.
    """
    pts = np.concatenate([W, C], axis=1)
    queries = np.atleast_2d(np.asarray(query_points, dtype=float))
    bw = np.broadcast_to(np.asarray(bandwidth, dtype=float), (pts.shape[1],))
    if np.any(bw <= 0):
        raise ValueError("bandwidth must be positive")
    norm = np.prod(bw) * (2 * math.pi) ** (pts.shape[1] / 2.0)
    out = np.empty(len(queries))
    for idx, qp in enumerate(queries):
        z = (pts - qp[None, :]) / bw[None, :]
        out[idx] = np.exp(-0.5 * np.sum(z * z, axis=1)).mean() / norm
    return out
