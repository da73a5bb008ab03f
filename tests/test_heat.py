import math

import numpy as np
import pytest

from heislab import heat
from heislab.curvature import curvature_constants
from heislab.groups import GroupElement, make_preset, multiply
from heislab.heat import (
    BumpFunction,
    SemigroupSampler,
    _mollified_delta,
    _spectral_radius_bound,
    _step_numpy,
    _step_work,
    apply_h3_generator,
    pde_oracle_h3,
    strong_feller_modulus,
    verify_integrated_harnack,
    verify_reverse_logsobolev,
    verify_reverse_poincare,
    verify_strong_feller,
    verify_wang_harnack,
)
from heislab.stochastic import _mean_se

H1 = make_preset("heisenberg", pairs=1).form
CC = curvature_constants(H1)
E = GroupElement([0.0, 0.0], [0.0])

SMALL_BOX = ((-4.0, 4.0), (-4.0, 4.0), (-5.0, 5.0))
SMALL_SHAPE = (40, 40, 48)

# the benchmark's coarse grid-h3 box; on its 33x33x41 grid at T = 0.25 the
# trapezoid moments are within 2e-4 of their closed forms
COARSE_BOX = ((-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0))
COARSE_T = 0.25
MOMENT_SHAPE = (33, 33, 41)
ACCURACY_SHAPE = (21, 21, 27)


@pytest.fixture(scope="module")
def small_density():
    return pde_oracle_h3("delta", T=0.6, box=SMALL_BOX, shape=SMALL_SHAPE,
                         mollifier_cells=3.0)


@pytest.fixture(scope="module")
def sampler():
    return SemigroupSampler(H1, 1.0, 128, 12000, seed=77)


class TestBumpFunction:
    def test_shape_and_support(self):
        f = BumpFunction(E, radius=2.0, height=1.0)
        vals = f(np.array([[0, 0, 0], [1.9, 0, 0], [2.5, 0, 0]]))
        assert vals[0] == pytest.approx(math.exp(-1.0))
        assert 0 < vals[1] < 1e-4
        assert vals[2] == 0.0

    def test_floor_and_sup(self):
        f = BumpFunction(E, radius=1.5, height=2.0, floor=0.1)
        assert f(np.array([[5, 5, 5]]))[0] == 0.1
        assert f.sup_bound() == pytest.approx(0.1 + 2.0 * math.exp(-1.0))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BumpFunction(E, radius=0.0)
        with pytest.raises(ValueError):
            BumpFunction(E, radius=1.0, floor=-0.5)

    @pytest.mark.parametrize("n, d", [(2, 1), (16, 1)])
    def test_gradient_matches_central_differences(self, n, d):
        rng = np.random.default_rng(n + d)
        center = GroupElement(rng.uniform(-1, 1, n), rng.uniform(-1, 1, d))
        f = BumpFunction(center, radius=1.7, height=1.3, floor=0.2)
        # random points at 0.05 to 0.9 radii from the center
        u = rng.standard_normal((40, n + d))
        u *= (1.7 * rng.uniform(0.05, 0.9, 40) / np.linalg.norm(u, axis=1))[:, None]
        pts = center.coords() + u
        h = 1e-6
        fd = np.stack([(f(pts + h * e) - f(pts - h * e)) / (2 * h)
                       for e in np.eye(n + d)], axis=1)
        grad = f.gradient(pts)
        assert grad.shape == (40, n + d)
        assert np.abs(grad - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("n, d", [(2, 1), (16, 1)])
    def test_gradient_is_exactly_zero_off_the_bump(self, n, d):
        center = GroupElement(np.full(n, 0.5), np.zeros(d))
        f = BumpFunction(center, radius=1.0)
        outside = center.coords() + np.eye(n + d)[[0, -1]] * np.array([[1.0], [-3.0]])
        assert np.array_equal(f.gradient(outside), np.zeros((2, n + d)))
        flat = BumpFunction(center, radius=1.0, height=0.0, floor=0.4)
        inside = center.coords() + 0.1 * np.ones((3, n + d)) / math.sqrt(n + d)
        assert np.all(flat.gradient(inside) == 0.0)


class TestSemigroupSampler:
    def test_constant_function_exact(self, sampler):
        assert _mean_se(sampler.values(lambda pts: np.ones(len(pts)), E)) == (1.0, 0.0)

    def test_contraction(self, sampler):
        f = BumpFunction(E, radius=2.0, height=1.0, floor=0.05)
        value, _ = _mean_se(sampler.values(f, GroupElement([0.4, 0.1], [0.2])))
        assert 0.05 - 1e-12 <= value <= f.sup_bound() + 1e-12

    def test_linearity_under_crn(self, sampler):
        f = BumpFunction(E, radius=2.0)
        g = BumpFunction(GroupElement([1.0, 0.0], [0.0]), radius=1.5)
        combo = lambda pts: 2.0 * f(pts) - 0.5 * g(pts)
        lhs = _mean_se(sampler.values(combo, E))[0]
        rhs = 2.0 * _mean_se(sampler.values(f, E))[0] - 0.5 * _mean_se(sampler.values(g, E))[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_odd_function_centered(self, sampler):
        vals = sampler.values(lambda pts: pts[:, 0], E)
        assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(len(vals))

    def test_gamma_of_constant_is_exactly_zero(self, sampler):
        f = BumpFunction(E, radius=2.0, height=0.0, floor=0.7)
        x = GroupElement([0.3, -0.2], [0.1])
        for fvals in (None, sampler.values(f, x)):
            val, se = heat._squared_sum(sampler.derivatives(f, x), fvals)
            assert val == 0.0 and se == 0.0

    def test_dilation_matches_a_fresh_draw(self):
        base = SemigroupSampler(H1, 0.5, 64, 300, seed=5)
        for T in (0.2, 0.5, 3.0):
            moved = base.dilated(T)
            direct = SemigroupSampler(H1, T, 64, 300, seed=5)
            assert moved.T == T and moved.steps == 64
            for a, b in zip(moved.endpoints(), direct.endpoints()):
                assert np.allclose(a, b, rtol=1e-12, atol=0.0)
            assert moved.endpoints()[0] is not base.endpoints()[0]
        assert base.T == 0.5

    def test_mollified_sampler_cannot_be_dilated(self):
        samp = SemigroupSampler(H1, 0.5, 16, 100, seed=1, mollifier=[0.2, 0.2, 0.2])
        with pytest.raises(ValueError):
            samp.dilated(1.0)

    def test_mollifier_needs_full_width(self):
        with pytest.raises(ValueError):
            SemigroupSampler(H1, 1.0, 16, 100, seed=1, mollifier=[0.1, 0.1])


class TestPdeOracle:
    def test_mass_conserved(self, small_density):
        assert small_density.mass_ok
        assert small_density.mass == pytest.approx(1.0, abs=5e-3)

    def test_inversion_symmetry(self, small_density):
        u = small_density.values
        asym = np.abs(u - u[::-1, ::-1, ::-1]).max() / u.max()
        assert asym < 5e-3

    def test_stepper_matches_reference_stencil(self):
        u, unew, args = _random_stencil_problem()
        work = _step_work(u.shape)
        for _ in range(4):
            ref = _reference_step(u, *args)
            faces = unew.copy()
            faces[1:-1, 1:-1, 1:-1] = 0.0
            _step_numpy(u, unew, *args, work=work)
            inner = unew[1:-1, 1:-1, 1:-1]
            assert np.abs(inner - ref).max() <= 1e-14 * np.abs(ref).max()
            got = unew.copy()
            got[1:-1, 1:-1, 1:-1] = 0.0
            assert np.array_equal(got, faces)
            u, unew = unew, u

    def test_stepper_work_buffers_carry_no_state(self):
        u0, unew0, args = _random_stencil_problem()
        work = _step_work(u0.shape)
        for buf in work:
            buf.fill(np.nan)
        shared, fresh = (u0.copy(), unew0.copy()), (u0.copy(), unew0.copy())
        for _ in range(5):
            _step_numpy(*shared, *args, work=work)
            _step_numpy(*fresh, *args)
            shared, fresh = shared[::-1], fresh[::-1]
        assert np.array_equal(shared[0], fresh[0])
        assert np.array_equal(shared[1], fresh[1])

    def test_small_time_taylor_expansion(self):
        bump = BumpFunction(GroupElement([0.3, 0.0], [0.0]), radius=2.0)
        T = 0.002
        sol = pde_oracle_h3(bump, T=T, box=SMALL_BOX, shape=SMALL_SHAPE)
        u0 = pde_oracle_h3(bump, T=1e-9, box=SMALL_BOX, shape=SMALL_SHAPE)
        pred = u0.values + T * apply_h3_generator(sol.axes, u0.values)
        err = np.abs(sol.values - pred).max() / np.abs(u0.values).max()
        assert err < 1e-3

    def test_callable_array_and_bad_initials(self):
        zero = pde_oracle_h3(lambda pts: np.zeros(len(pts)), T=0.01, box=SMALL_BOX,
                             shape=SMALL_SHAPE)
        assert np.all(zero.values == 0.0)
        # a grid array is no initial condition: only "delta" or a callable
        for initial in (np.zeros(SMALL_SHAPE), "gaussian"):
            with pytest.raises(ValueError):
                pde_oracle_h3(initial, T=0.01, box=SMALL_BOX, shape=SMALL_SHAPE)
        with pytest.raises(ValueError):
            pde_oracle_h3("delta", T=-1.0, box=SMALL_BOX, shape=SMALL_SHAPE)

    def test_quadrature_and_interpolation(self, small_density):
        # interpolate at exact nodes reproduces values
        w1, w2, c = small_density.axes
        val = small_density.interpolate(np.array([w1[20], w2[20], c[24]])[None])[0]
        assert val == pytest.approx(small_density.values[20, 20, 24], rel=1e-12)

    def test_interpolation_matches_scipy(self, small_density):
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(12)
        w1, w2, c = small_density.grid_coords()
        nodes = np.stack([w1.ravel(), w2.ravel(), c.ravel()], axis=1)
        # random points over a box larger than the grid's, every node, and
        # points one rounding step off the nodes, the faces among them
        pts = np.vstack([rng.uniform(-1.2, 1.2, (20000, 3)) * [4.0, 4.0, 5.0],
                         nodes, nodes * (1 + 1e-16), nodes + 1e-16])
        for fill in (0.0, np.nan):
            ref = RegularGridInterpolator(small_density.axes, small_density.values,
                                          bounds_error=False, fill_value=fill)(pts)
            got = small_density.interpolate(pts, fill)
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            inside = ~np.isnan(ref)
            assert np.abs(got[inside] - ref[inside]).max() <= \
                1e-12 * np.abs(small_density.values).max()
        outside = np.isnan(small_density.interpolate(pts, np.nan))
        assert 0 < outside.sum() < len(pts)


def _dense_generator(axes):
    """apply_h3_generator as a dense matrix on the interior nodes."""
    inner = tuple(len(a) - 2 for a in axes)
    size = math.prod(inner)
    dense = np.empty((size, size))
    v = np.zeros(tuple(len(a) for a in axes))
    for j in range(size):
        v[1:-1, 1:-1, 1:-1].flat[j] = 1.0
        dense[:, j] = apply_h3_generator(axes, v)[1:-1, 1:-1, 1:-1].ravel()
        v[1:-1, 1:-1, 1:-1].flat[j] = 0.0
    return dense


def _explicit_euler(axes, T, dt, cells):
    """pde_oracle_h3's mollified delta, solved by explicit Euler steps of _step_numpy."""
    w1, w2, c = axes
    u = _mollified_delta(axes, cells)
    u[[0, -1], :, :] = 0.0
    u[:, [0, -1], :] = 0.0
    u[:, :, [0, -1]] = 0.0
    u /= heat._trapezoid3(axes, u)
    steps = math.ceil(T / dt)
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    args = (w1, w2, 1 / dw1**2, 1 / dw2**2, 1 / dc**2, 1 / (4 * dw2 * dc),
            1 / (4 * dw1 * dc), T / steps)
    unew, work = np.zeros_like(u), _step_work(u.shape)
    for _ in range(steps):
        _step_numpy(u, unew, *args, work=work)
        u, unew = unew, u
    return u


@pytest.fixture(scope="module")
def explicit_references():
    """Explicit Euler at half the heuristic bound 0.2 min(dw^2, dc^2/maxspeed^2),
    with maxspeed the largest drift |w|/2 on the box, and at a tenth of that
    step as the reference."""
    axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(COARSE_BOX, ACCURACY_SHAPE))
    w1, w2, c = axes
    maxspeed = 0.5 * math.hypot(w1[-1], w2[-1])
    dt = 0.5 * 0.2 * min((w1[1] - w1[0]) ** 2, (c[1] - c[0]) ** 2 / maxspeed**2)
    return _explicit_euler(axes, COARSE_T, dt, 2.0), _explicit_euler(axes, COARSE_T, dt / 10, 2.0)


def _deviations(explicit_references):
    """(Chebyshev, explicit) maximum deviation from the fine reference, over its peak."""
    coarse, fine = explicit_references
    sol = pde_oracle_h3("delta", COARSE_T, box=COARSE_BOX, shape=ACCURACY_SHAPE,
                        mollifier_cells=2.0)
    peak = fine.max()
    return np.abs(sol.values - fine).max() / peak, np.abs(coarse - fine).max() / peak


def _mass_and_moment_errors():
    """|mass - 1| and the relative errors of E[w1^2], E[w2^2], E[c^2] against
    sigma_i^2 + T and sigma_c^2 + T^2/4 + T(sigma_1^2 + sigma_2^2)/4."""
    sol = pde_oracle_h3("delta", COARSE_T, box=COARSE_BOX, shape=MOMENT_SHAPE,
                        mollifier_cells=2.0)
    T = COARSE_T
    s1, s2, sc = (2.0 * h for h in sol.steps())
    exact = (s1 * s1 + T, s2 * s2 + T, sc * sc + T * T / 4 + T * (s1 * s1 + s2 * s2) / 4)
    moments = [sol.quadrature(sol.values * x * x) / sol.mass for x in sol.grid_coords()]
    return [abs(sol.mass - 1.0)] + [abs(m / e - 1.0) for m, e in zip(moments, exact)]


# a grid small enough for a dense exponential, and a bump that fills it
TINY_BOX = ((-2.0, 3.0), (-1.5, 1.5), (-2.0, 2.0))
TINY_SHAPE = (7, 8, 9)
TINY_BUMP = BumpFunction(GroupElement([0.3, -0.2], [0.1]), radius=2.5)
# from three stencil applications to 45; at T = 1e-4 the last kept term is
# 1.7e-10, so a solve one term short is seen at 1e-12 of the peak
TINY_TIMES = (1e-4, 0.01, 0.5, 2.0)


def _expm_errors():
    """Largest deviation from scipy's expm of the dense operator, over the
    peak, of the solves at TINY_TIMES."""
    from scipy.linalg import expm

    axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(TINY_BOX, TINY_SHAPE))
    dense = _dense_generator(axes)
    errors = []
    for T in TINY_TIMES:
        sol = pde_oracle_h3(TINY_BUMP, T, box=TINY_BOX, shape=TINY_SHAPE)
        u0 = TINY_BUMP(np.stack([g.ravel() for g in sol.grid_coords()], axis=1))
        ref = expm(T * dense) @ u0.reshape(TINY_SHAPE)[1:-1, 1:-1, 1:-1].ravel()
        got = sol.values[1:-1, 1:-1, 1:-1].ravel()
        errors.append(np.abs(got - ref).max() / np.abs(ref).max())
    return errors


class TestChebyshevSolve:
    @pytest.mark.parametrize("box,shape", [
        (((-2.0, 3.0), (-1.5, 1.5), (-2.0, 2.0)), (11, 13, 17)),
        (((-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0)), (17, 17, 21)),
        (((-1.0, 4.0), (-2.0, 2.5), (-3.0, 1.0)), (16, 20, 24)),
    ])
    def test_spectrum_lies_in_the_gershgorin_interval(self, box, shape):
        axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape))
        dense = _dense_generator(axes)
        assert np.array_equal(dense, dense.T)
        eig = np.linalg.eigvalsh(dense)
        assert -_spectral_radius_bound(*axes) <= eig[0] and eig[-1] < 0.0

    def test_one_dimensional_difference_gap_is_negative_definite(self):
        # delta^2 - D^2 of the spectral bound's derivation, at h = 1
        for n in range(5, 129):
            shift = np.eye(n, k=-1)
            central = 0.5 * (shift.T - shift)
            gap = shift + shift.T - 2.0 * np.eye(n) - central @ central
            assert np.linalg.eigvalsh(gap)[-1] < 0.0

    def test_coefficients_match_the_bessel_functions(self):
        from scipy.special import ive

        for z in np.geomspace(1e-9, 1e4, 40):
            coeffs, tail = heat._chebyshev_coefficients(z)
            k = np.arange(len(coeffs))
            exact = np.where(k == 0, 1.0, 2.0) * ive(k, z)
            assert np.abs(coeffs - exact).max() <= 1e-14
            assert 0.0 <= tail < heat._CHEBYSHEV_TAIL
            assert tail + coeffs[-1] >= heat._CHEBYSHEV_TAIL  # no term to spare
            assert abs(coeffs.sum() + tail - 1.0) <= 1e-14

    def test_matches_the_dense_exponential(self):
        assert max(_expm_errors()) <= 1e-12

    @pytest.mark.parametrize("mutant", ["drop-last-term", "scale-c1"])
    def test_mutant_coefficients_fail(self, monkeypatch, mutant):
        true_coefficients = heat._chebyshev_coefficients

        def wrong(z):
            coeffs, tail = true_coefficients(z)
            if mutant == "drop-last-term":
                return coeffs[:-1], tail
            coeffs = coeffs.copy()
            coeffs[1] *= 1.01
            return coeffs, tail

        monkeypatch.setattr(heat, "_chebyshev_coefficients", wrong)
        assert max(_expm_errors()) > 1e-12

    def test_reports_its_applications_and_bounds(self, small_density):
        meta = small_density.meta
        axes = small_density.axes
        assert meta["spectral_bound"] == _spectral_radius_bound(*axes)
        coeffs, tail = heat._chebyshev_coefficients(0.5 * 0.6 * meta["spectral_bound"])
        assert meta["steps"] == len(coeffs) - 1
        u0 = _mollified_delta(axes, 3.0)
        u0[[0, -1], :, :] = u0[:, [0, -1], :] = u0[:, :, [0, -1]] = 0.0
        u0 /= heat._trapezoid3(axes, u0)
        assert meta["truncation_bound"] == pytest.approx(tail * np.linalg.norm(u0), rel=1e-12)

    def test_no_less_accurate_than_explicit_euler(self, explicit_references):
        cheb, explicit = _deviations(explicit_references)
        assert cheb <= explicit

    def test_mass_and_second_moments(self):
        assert max(_mass_and_moment_errors()) <= 2e-3


class TestMcPdeConsistency:
    def test_mollified_sampler_matches_quadrature(self, small_density):
        samp = SemigroupSampler(H1, 0.6, 256, 40000, seed=91,
                                mollifier=3.0 * np.array(small_density.steps()))
        w1, w2, c = small_density.grid_coords()
        pts = np.stack([w1.ravel(), w2.ravel(), c.ravel()], axis=1)
        # the unit bump at e sees the peak, where the mollifier matters most:
        # an unmollified sampler misses the grid there by far more than the
        # tolerance
        for center, radius in [(E, 2.0), (GroupElement([0.8, 0.0], [0.3]), 1.5), (E, 1.0)]:
            f = BumpFunction(center, radius=radius)
            value, se = _mean_se(samp.values(f, E))
            fgrid = f(pts).reshape(small_density.values.shape)
            oracle = small_density.quadrature(fgrid * small_density.values)
            slack = 0.01 * (f.sup_bound() + abs(oracle))
            assert abs(value - oracle) <= 3 * se + slack

    def test_gamma_matches_grid_differentiation(self):
        # independent gradient route: solve the semigroup on the grid and
        # apply the group fields by centered differences at a point
        bump = BumpFunction(GroupElement([0.5, -0.3], [0.2]), radius=2.0)
        T = 0.4
        sol = pde_oracle_h3(bump, T=T, box=SMALL_BOX, shape=(64, 64, 72))
        x = np.array([0.25, 0.1, 0.05])
        h = 0.05
        def u(pt):
            return sol.interpolate(pt[None])[0]

        # group translations x * (h e_i, 0) move the vertical slot too
        def shift(pt, i, s):
            out = np.array(pt)
            out[i] += s
            out[2] += 0.5 * s * (pt[1] * (-1.0) if i == 0 else pt[0])
            return out

        g1 = (u(shift(x, 0, h)) - u(shift(x, 0, -h))) / (2 * h)
        g2 = (u(shift(x, 1, h)) - u(shift(x, 1, -h))) / (2 * h)
        oracle = g1 * g1 + g2 * g2
        samp = SemigroupSampler(H1, T, 256, 60000, seed=93)
        val, se = heat._squared_sum(samp.derivatives(bump, GroupElement(x[:2], x[2:]))[:, :2])
        assert abs(val - oracle) <= 3 * se + 0.05 * (abs(oracle) + 0.01)


def _crn_squared_gradient(sampler, f, x, cols, use_log, h):
    """The squared gradient along the coordinate directions ``cols`` (X_i for
    i < n, Z_l at n + l) by central differences of step h that reuse the
    sampler's endpoints (common random numbers)."""
    form = sampler.form
    total = 0.0
    for col in cols:
        means = []
        for step in (h, -h):
            e = np.zeros(form.n + form.d)
            e[col] = step
            y = multiply(form, x, GroupElement(e[:form.n], e[form.n:]))
            means.append(sampler.values(f, y).mean())
        up, um = np.log(means) if use_log else means
        total += ((up - um) / (2.0 * h)) ** 2
    return total


class TestPathwiseGradient:
    PRESETS = [("heisenberg", {"pairs": 1}), ("block_sum", {"weights": [1, 3]}),
               ("wiener_truncation", {"pairs": 8, "s": 2})]

    @pytest.mark.parametrize("use_log", [False, True])
    @pytest.mark.parametrize("name, params", PRESETS)
    def test_matches_the_crn_central_difference(self, name, params, use_log):
        form = make_preset(name, **params).form
        n, d = form.n, form.d
        samp = SemigroupSampler(form, 0.5, 16, 2000, seed=11)
        center = GroupElement(np.resize([0.3, -0.2, 0.1], n), np.resize([0.1, -0.1], d))
        f = BumpFunction(center, radius=1.5 * math.sqrt(n + d), floor=0.1)
        x = GroupElement(np.resize([0.4, -0.3, 0.2], n), np.resize([0.2, -0.15], d))
        D, fvals = samp.derivatives(f, x), (samp.values(f, x) if use_log else None)
        for cols in (slice(0, n), slice(n, n + d)):
            val, se = heat._squared_sum(D[:, cols], fvals)
            crn = _crn_squared_gradient(samp, f, x, range(n + d)[cols], use_log, 1e-4)
            assert val > 0 and se > 0
            assert val == pytest.approx(crn, rel=1e-5)

    def test_error_counts_the_shared_paths(self):
        # n identical columns: the sum is n x^2, whose delta-method error is
        # 2 n |x| se(x); columns taken as independent give sqrt(n) times less
        x = np.random.default_rng(3).normal(0.4, 1.0, 2000)
        n = 6
        val, se = heat._squared_sum(np.repeat(x[:, None], n, axis=1))
        mean, se_x = _mean_se(x)
        assert val == pytest.approx(n * mean * mean, rel=1e-12)
        assert se == pytest.approx(2.0 * n * abs(mean) * se_x, rel=1e-12)

    def test_errors_at_the_support_edge_do_not_underflow(self):
        # one path in the support, at its edge, as on wiener_truncation(8,2)
        # at T = 1.1: its derivatives near 1e-85 square to 1e-170 and the
        # squared error terms to 1e-340, below the smallest double
        D = np.zeros((500, 16))
        D[7] = np.linspace(1.0, 2.0, 16) * 1e-83
        val, se = heat._squared_sum(D)
        assert val > 0 and se >= 0.5 * val
        assert heat._record(val, 0.0, se, 0.0, record_id="edge").passed


class TestVerifiers:
    def test_reverse_poincare_passes(self, sampler):
        f = BumpFunction(E, radius=2.5)
        rec = verify_reverse_poincare(sampler, f, GroupElement([0.5, 0.5], [0.2]), CC)
        assert rec.passed and rec.lhs < rec.rhs

    def test_reverse_poincare_constant_function(self, sampler):
        f = BumpFunction(E, radius=1.0, height=0.0, floor=0.3)
        rec = verify_reverse_poincare(sampler, f, E, CC)
        assert rec.passed
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("floor", [0.3, 0.7])
    def test_reverse_logsobolev_constant_function(self, sampler, floor):
        # the entropy of a constant is exactly 0; a difference of means
        # cancels to -3e-16 at floor 0.7
        f = BumpFunction(E, radius=1.0, height=0.0, floor=floor)
        rec = verify_reverse_logsobolev(sampler, f, E, CC)
        assert rec.passed
        assert rec.detail["entropy_core"] >= 0.0
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    def test_reverse_logsobolev_passes(self, sampler):
        f = BumpFunction(E, radius=2.5, floor=0.1)
        rec = verify_reverse_logsobolev(sampler, f, GroupElement([-0.4, 0.3], [0.1]), CC)
        assert rec.passed

    def test_reverse_logsobolev_needs_floor(self, sampler):
        f = BumpFunction(E, radius=2.5)
        with pytest.raises(ValueError):
            verify_reverse_logsobolev(sampler, f, E, CC)

    def test_reverse_logsobolev_flattens_with_floor(self, sampler):
        # raising the floor drives f toward a constant: both sides shrink
        x = GroupElement([0.5, 0.2], [0.1])
        lhs_seq, rhs_seq = [], []
        for floor in (0.1, 0.5, 2.0):
            f = BumpFunction(E, radius=2.5, height=1.0, floor=floor)
            rec = verify_reverse_logsobolev(sampler, f, x, CC)
            assert rec.passed
            lhs_seq.append(rec.lhs)
            rhs_seq.append(rec.rhs)
        assert lhs_seq[0] > lhs_seq[1] > lhs_seq[2]
        assert rhs_seq[0] > rhs_seq[1] > rhs_seq[2]

    def test_wang_harnack_jensen_case(self, sampler):
        f = BumpFunction(E, radius=2.0, floor=0.05)
        [rec] = verify_wang_harnack(sampler, f, E, E, [2.0], 0.0, CC)
        assert rec.passed          # reduces to Jensen's inequality
        assert rec.lhs <= rec.rhs + 3 * (rec.stderr_lhs + rec.stderr_rhs)

    def test_wang_harnack_generic_pair(self, sampler):
        f = BumpFunction(E, radius=2.0)
        [rec] = verify_wang_harnack(sampler, f, E, GroupElement([1.0, 0.0], [0.0]),
                                    [2.0], 1.0, CC)
        assert rec.passed and rec.record_id == "wang-harnack-p2"

    def test_wang_harnack_rejects_small_p(self, sampler):
        f = BumpFunction(E, radius=2.0)
        with pytest.raises(ValueError):
            verify_wang_harnack(sampler, f, E, E, [2.0, 1.0], 0.0, CC)

    def test_strong_feller_zero_offset(self, sampler):
        f = BumpFunction(E, radius=2.0)
        fx = sampler.values(f, E)
        rec = verify_strong_feller(sampler, fx - fx, E, E, 0.0, CC, f.sup_bound())
        assert rec.passed and rec.lhs == 0.0

    def test_strong_feller_modulus_shrinks(self, sampler):
        f = BumpFunction(E, radius=2.0)
        recs = strong_feller_modulus(
            sampler, f, GroupElement([0.4, 0.2], [0.1]), np.array([1.0, 0.0]),
            [0.5, 0.25, 0.125], CC, f.sup_bound())
        assert [r.record_id for r in recs] == [
            "strong-feller-h0.5", "strong-feller-h0.25", "strong-feller-h0.125"]
        assert all(r.passed for r in recs)
        # the modulus bound falls to 0 with the offset
        assert recs[0].rhs > recs[1].rhs > recs[2].rhs > 0.0

    def test_strong_feller_shrink_fails_on_a_true_rise(self):
        # x + h e1 crosses the maximum of P_T f in w1: at 200,000 paths the
        # differences are 0.0080, 0.0008 and 0.0016 at h = 0.5, 0.25, 0.125
        # (paired standard error of the last rise 3e-5), so the rise is real
        # and a claim that the differences fall with h fails here; the
        # modulus bounds hold all the same
        bump = BumpFunction(E, radius=2.5)
        samp = SemigroupSampler(H1, 0.582, 64, 20000, seed=3)
        x = GroupElement([-0.137, 0.150], [0.161])
        recs = strong_feller_modulus(
            samp, bump, x, np.array([1.0, 0.0]), [0.5, 0.25, 0.125], CC, bump.sup_bound())
        diffs = [abs(r.detail["difference"]) for r in recs]
        assert diffs[2] > diffs[1]
        assert all(r.passed for r in recs)

    def test_integrated_harnack(self, small_density):
        y = GroupElement([0.4, 0.0], [0.0])
        [rec] = verify_integrated_harnack(small_density, H1, y, [2.0], 0.16, CC)
        assert rec.passed and rec.record_id == "integrated-harnack-q2"
        assert rec.detail["excluded_mass"] < 0.01
        [rec_e] = verify_integrated_harnack(small_density, H1, E, [1.5], 0.0, CC)
        assert rec_e.lhs == pytest.approx(1.0, abs=1e-3)
        with pytest.raises(ValueError):
            verify_integrated_harnack(small_density, H1, y, [2.0, 1.0], 0.16, CC)

    def test_integrated_harnack_shares_the_shift_across_q(self, small_density):
        y = GroupElement([0.3, -0.2], [0.1])
        recs = verify_integrated_harnack(small_density, H1, y, [1.5, 2.0, 3.0], 0.2, CC)
        assert [r.p_or_q for r in recs] == [1.5, 2.0, 3.0]
        for rec in recs:
            [alone] = verify_integrated_harnack(small_density, H1, y, [rec.p_or_q], 0.2, CC)
            assert alone == rec


def _random_stencil_problem():
    """A random field with nonzero faces on a non-cubic grid with unequal
    spacings, a second grid to step into, and stepper arguments at half the
    stability bound."""
    rng = np.random.default_rng(11)
    w1, w2, c = np.linspace(-2.0, 3.0, 11), np.linspace(-1.5, 1.5, 13), np.linspace(-2.0, 2.0, 17)
    dw1, dw2, dc = w1[1] - w1[0], w2[1] - w2[0], c[1] - c[0]
    dt = 0.5 * 2.0 / _spectral_radius_bound(w1, w2, c)   # half the Euler limit
    args = (w1, w2, 1 / dw1**2, 1 / dw2**2, 1 / dc**2, 1 / (4 * dw2 * dc),
            1 / (4 * dw1 * dc), dt)
    shape = (len(w1), len(w2), len(c))
    return rng.normal(size=shape), rng.normal(size=shape), args


def _reference_step(u, w1, w2, idw1sq, idw2sq, idcsq, i4w2c, i4w1c, dt):
    """The stencil written out term by term, one temporary per term; returns
    the new interior."""
    ui = u[1:-1, 1:-1, 1:-1]
    lap = (u[2:, 1:-1, 1:-1] - 2 * ui + u[:-2, 1:-1, 1:-1]) * idw1sq \
        + (u[1:-1, 2:, 1:-1] - 2 * ui + u[1:-1, :-2, 1:-1]) * idw2sq
    ucc = (u[1:-1, 1:-1, 2:] - 2 * ui + u[1:-1, 1:-1, :-2]) * idcsq
    m2c = (u[1:-1, 2:, 2:] - u[1:-1, :-2, 2:] - u[1:-1, 2:, :-2]
           + u[1:-1, :-2, :-2]) * i4w2c
    m1c = (u[2:, 1:-1, 2:] - u[:-2, 1:-1, 2:] - u[2:, 1:-1, :-2]
           + u[:-2, 1:-1, :-2]) * i4w1c
    a = w1[1:-1, None, None]
    b = w2[None, 1:-1, None]
    vc = (a * a + b * b) * 0.125
    return ui + dt * (0.5 * lap + 0.5 * (a * m2c - b * m1c) + vc * ucc)


def test_numpy_stepper_zero_dt_is_identity():
    u = np.random.default_rng(3).normal(size=(8, 8, 9))
    out = np.zeros_like(u)
    w = np.linspace(-1, 1, 8)
    _step_numpy(u, out, w, w, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert np.allclose(out[1:-1, 1:-1, 1:-1], u[1:-1, 1:-1, 1:-1])
