import math

import numpy as np
import pytest

from heislab import heat
from heislab.curvature import curvature_constants
from heislab.groups import GroupElement, make_preset
from heislab.heat import (
    BumpFunction,
    SemigroupSampler,
    _mollified_delta,
    _spectral_radius_bound,
    _step_numpy,
    _step_work,
    apply_h3_generator,
    density_kde,
    mollified_sampler,
    pde_oracle_h3,
    strong_feller_modulus,
    verify_integrated_harnack,
    verify_reverse_logsobolev,
    verify_reverse_poincare,
    verify_strong_feller,
    verify_wang_harnack,
)

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


class TestSemigroupSampler:
    def test_constant_function_exact(self, sampler):
        est = sampler.estimate(lambda pts: np.ones(len(pts)), E)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_contraction(self, sampler):
        f = BumpFunction(E, radius=2.0, height=1.0, floor=0.05)
        est = sampler.estimate(f, GroupElement([0.4, 0.1], [0.2]))
        assert 0.05 - 1e-12 <= est.value <= f.sup_bound() + 1e-12

    def test_linearity_under_crn(self, sampler):
        f = BumpFunction(E, radius=2.0)
        g = BumpFunction(GroupElement([1.0, 0.0], [0.0]), radius=1.5)
        combo = lambda pts: 2.0 * f(pts) - 0.5 * g(pts)
        lhs = sampler.estimate(combo, E).value
        rhs = 2.0 * sampler.estimate(f, E).value - 0.5 * sampler.estimate(g, E).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_odd_function_centered(self, sampler):
        vals = sampler.values(lambda pts: pts[:, 0], E)
        assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(len(vals))

    def test_gamma_of_constant_is_exactly_zero(self, sampler):
        val, se, bias = sampler.gamma_estimate(lambda pts: np.ones(len(pts)), E, 1e-3)
        assert val == 0.0 and se == 0.0 and bias == 0.0

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
        samp = mollified_sampler(H1, 0.5, 16, 100, seed=1, grid_steps=(0.1, 0.1, 0.1))
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

    def test_stability_bound_enforced(self):
        with pytest.raises(ValueError):
            pde_oracle_h3("delta", T=0.1, box=SMALL_BOX, shape=SMALL_SHAPE, cfl_fraction=1.5)

    def test_small_time_taylor_expansion(self):
        bump = BumpFunction(GroupElement([0.3, 0.0], [0.0]), radius=2.0)
        T = 0.002
        sol = pde_oracle_h3(bump, T=T, box=SMALL_BOX, shape=SMALL_SHAPE)
        u0 = pde_oracle_h3(bump, T=1e-9, box=SMALL_BOX, shape=SMALL_SHAPE)
        pred = u0.values + T * apply_h3_generator(sol.axes, u0.values)
        err = np.abs(sol.values - pred).max() / np.abs(u0.values).max()
        assert err < 1e-3

    def test_callable_array_and_bad_initials(self, small_density):
        arr = pde_oracle_h3(np.zeros(SMALL_SHAPE), T=0.01, box=SMALL_BOX,
                            shape=SMALL_SHAPE)
        assert np.all(arr.values == 0.0)
        with pytest.raises(ValueError):
            pde_oracle_h3(np.zeros((3, 3, 3)), T=0.01, box=SMALL_BOX, shape=SMALL_SHAPE)
        with pytest.raises(ValueError):
            pde_oracle_h3("delta", T=-1.0, box=SMALL_BOX, shape=SMALL_SHAPE)

    def test_quadrature_and_interpolation(self, small_density):
        # interpolate at exact nodes reproduces values
        w1, w2, c = small_density.axes
        val = small_density.value_at([w1[20], w2[20], c[24]])
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


def _power_estimate(axes, iters):
    """||L v|| / ||v|| after ``iters`` power iterations of apply_h3_generator;
    a lower bound on the spectral radius of the symmetric operator."""
    v = np.zeros(tuple(len(a) for a in axes))
    v[1:-1, 1:-1, 1:-1] = np.random.default_rng(5).normal(size=tuple(len(a) - 2 for a in axes))
    for _ in range(iters):
        g = apply_h3_generator(axes, v)
        est = np.linalg.norm(g) / np.linalg.norm(v)
        v = g / np.linalg.norm(g)
    return est


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
    """(RKL2, explicit) maximum deviation from the fine reference, over its peak."""
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


class TestRkl2Solve:
    @pytest.mark.parametrize("box,shape", [
        (((-2.0, 3.0), (-1.5, 1.5), (-2.0, 2.0)), (11, 13, 17)),
        (((-3.0, 3.0), (-3.0, 3.0), (-2.0, 2.0)), (17, 17, 21)),
        (((-1.0, 4.0), (-2.0, 2.5), (-3.0, 1.0)), (16, 20, 24)),
    ])
    def test_gershgorin_bound_covers_the_spectrum(self, box, shape):
        axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape))
        rng = np.random.default_rng(9)
        u, v = (np.pad(rng.normal(size=tuple(n - 2 for n in shape)), 1) for _ in range(2))
        lu, lv = apply_h3_generator(axes, u), apply_h3_generator(axes, v)
        assert np.sum(lu * v) == pytest.approx(np.sum(u * lv), rel=1e-12)
        assert _spectral_radius_bound(*axes) >= _power_estimate(axes, 200)

    def test_no_less_accurate_than_explicit_euler(self, explicit_references):
        rkl, explicit = _deviations(explicit_references)
        assert rkl <= explicit

    def test_mass_and_second_moments(self):
        assert max(_mass_and_moment_errors()) <= 2e-3

    def test_mutant_coefficient_fails(self, monkeypatch, explicit_references):
        true_b = heat._rkl2_b
        monkeypatch.setattr(heat, "_rkl2_b", lambda s: 1.01 * true_b(s))
        rkl, explicit = _deviations(explicit_references)
        assert rkl > explicit or max(_mass_and_moment_errors()) > 2e-3


class TestMcPdeConsistency:
    def test_mollified_sampler_matches_quadrature(self, small_density):
        gs = small_density.steps()
        samp = mollified_sampler(H1, 0.6, 256, 40000, seed=91, grid_steps=gs, cells=3.0)
        w1, w2, c = small_density.grid_coords()
        pts = np.stack([w1.ravel(), w2.ravel(), c.ravel()], axis=1)
        for center, radius in [(E, 2.0), (GroupElement([0.8, 0.0], [0.3]), 1.5)]:
            f = BumpFunction(center, radius=radius)
            est = samp.estimate(f, E)
            fgrid = f(pts).reshape(small_density.values.shape)
            oracle = small_density.quadrature(fgrid * small_density.values)
            slack = 0.01 * (f.sup_bound() + abs(oracle))
            assert abs(est.value - oracle) <= 3 * est.stderr + slack

    def test_gamma_matches_grid_differentiation(self):
        # independent gradient route: solve the semigroup on the grid and
        # apply the group fields by centered differences at a point
        bump = BumpFunction(GroupElement([0.5, -0.3], [0.2]), radius=2.0)
        T = 0.4
        sol = pde_oracle_h3(bump, T=T, box=SMALL_BOX, shape=(64, 64, 72))
        x = np.array([0.25, 0.1, 0.05])
        h = 0.05
        def u(pt):
            return sol.value_at(pt)

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
        val, se, bias = samp.gamma_estimate(bump, GroupElement(x[:2], x[2:]), 1e-3)
        assert abs(val - oracle) <= 3 * se + bias + 0.05 * (abs(oracle) + 0.01)


class TestVerifiers:
    def test_reverse_poincare_passes(self, sampler):
        f = BumpFunction(E, radius=2.5)
        rec = verify_reverse_poincare(sampler, f, GroupElement([0.5, 0.5], [0.2]),
                                      CC, 2.5e-3)
        assert rec.passed and rec.lhs < rec.rhs

    def test_reverse_poincare_constant_function(self, sampler):
        f = BumpFunction(E, radius=1.0, height=0.0, floor=0.3)
        rec = verify_reverse_poincare(sampler, f, E, CC, 1e-3)
        assert rec.passed
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("floor", [0.3, 0.7])
    def test_reverse_logsobolev_constant_function(self, sampler, floor):
        # the entropy of a constant is exactly 0; a difference of means
        # cancels to -3e-16 at floor 0.7
        f = BumpFunction(E, radius=1.0, height=0.0, floor=floor)
        rec = verify_reverse_logsobolev(sampler, f, E, CC, 1e-3)
        assert rec.passed
        assert rec.detail["entropy_core"] >= 0.0
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs == pytest.approx(0.0, abs=1e-12)

    def test_reverse_logsobolev_passes(self, sampler):
        f = BumpFunction(E, radius=2.5, floor=0.1)
        rec = verify_reverse_logsobolev(sampler, f, GroupElement([-0.4, 0.3], [0.1]),
                                        CC, 2.5e-3)
        assert rec.passed

    def test_reverse_logsobolev_needs_floor(self, sampler):
        f = BumpFunction(E, radius=2.5)
        with pytest.raises(ValueError):
            verify_reverse_logsobolev(sampler, f, E, CC, 1e-3)

    def test_reverse_logsobolev_flattens_with_floor(self, sampler):
        # raising the floor drives f toward a constant: both sides shrink
        x = GroupElement([0.5, 0.2], [0.1])
        lhs_seq, rhs_seq = [], []
        for floor in (0.1, 0.5, 2.0):
            f = BumpFunction(E, radius=2.5, height=1.0, floor=floor)
            rec = verify_reverse_logsobolev(sampler, f, x, CC, 2.5e-3)
            assert rec.passed
            lhs_seq.append(rec.lhs)
            rhs_seq.append(rec.rhs)
        assert lhs_seq[0] > lhs_seq[1] > lhs_seq[2]
        assert rhs_seq[0] > rhs_seq[1] > rhs_seq[2]

    def test_wang_harnack_jensen_case(self, sampler):
        f = BumpFunction(E, radius=2.0, floor=0.05)
        rec = verify_wang_harnack(sampler, f, E, E, 2.0, 0.0, CC)
        assert rec.passed          # reduces to Jensen's inequality
        assert rec.lhs <= rec.rhs + 3 * (rec.stderr_lhs + rec.stderr_rhs)

    def test_wang_harnack_generic_pair(self, sampler):
        f = BumpFunction(E, radius=2.0)
        rec = verify_wang_harnack(sampler, f, E, GroupElement([1.0, 0.0], [0.0]),
                                  2.0, 1.0, CC)
        assert rec.passed

    def test_wang_harnack_rejects_small_p(self, sampler):
        f = BumpFunction(E, radius=2.0)
        with pytest.raises(ValueError):
            verify_wang_harnack(sampler, f, E, E, 1.0, 0.0, CC)

    def test_strong_feller_zero_offset(self, sampler):
        f = BumpFunction(E, radius=2.0)
        rec = verify_strong_feller(sampler, f, E, E, 0.0, CC, f.sup_bound())
        assert rec.passed and rec.lhs == 0.0

    def test_strong_feller_modulus_shrinks(self, sampler):
        f = BumpFunction(E, radius=2.0)
        recs, shrinking, diffs = strong_feller_modulus(
            sampler, f, GroupElement([0.4, 0.2], [0.1]), np.array([1.0, 0.0]),
            [0.5, 0.25, 0.125], CC, f.sup_bound())
        assert all(r.passed for r in recs)
        assert shrinking
        assert diffs[0] > diffs[-1]

    def test_strong_feller_shrink_allows_noise(self, sampler):
        # a high-frequency term in f adds per-path noise to every difference
        # but nothing to their means, so the true differences fall with the
        # offsets; the noise makes them rise on some seeds, which three paired
        # standard errors absorb
        bump = BumpFunction(E, radius=2.0)

        def f(coords):
            return bump(coords) + 0.05 * np.sin(1000.0 * np.asarray(coords)[:, 2])

        rose = 0
        for seed in range(5):
            samp = SemigroupSampler(H1, 1.0, 16, 2000, seed=seed)
            _, shrinking, diffs = strong_feller_modulus(
                samp, f, GroupElement([0.4, 0.2], [0.1]), np.array([1.0, 0.0]),
                [0.2, 0.19, 0.18], CC, bump.sup_bound() + 0.05)
            rose += any(b > a for a, b in zip(diffs, diffs[1:]))
            assert shrinking
        assert rose

    def test_strong_feller_shrink_fails_on_a_true_rise(self):
        # x + h e1 crosses the maximum of P_T f in w1: at 200,000 paths the
        # differences are 0.0080, 0.0008 and 0.0016 at h = 0.5, 0.25, 0.125
        # (paired standard error of the last rise 3e-5), so the rise is real
        bump = BumpFunction(E, radius=2.5)
        samp = SemigroupSampler(H1, 0.582, 64, 20000, seed=3)
        x = GroupElement([-0.137, 0.150], [0.161])
        recs, shrinking, diffs = strong_feller_modulus(
            samp, bump, x, np.array([1.0, 0.0]), [0.5, 0.25, 0.125], CC, bump.sup_bound())
        assert all(r.passed for r in recs)
        assert not shrinking and diffs[2] > diffs[1]
        # and offsets in rising order fail wherever the differences grow
        _, rising, _ = strong_feller_modulus(
            samp, bump, GroupElement([0.4, 0.2], [0.1]), np.array([1.0, 0.0]),
            [0.125, 0.25, 0.5], CC, bump.sup_bound())
        assert not rising

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


class TestKde:
    def test_normalization(self):
        from heislab.stochastic import sample_endpoints
        W, C = sample_endpoints(H1, 0.6, 128, 20000, seed=95)
        bw = np.array([0.15, 0.15, 0.15])
        grid = np.linspace(-4, 4, 21)
        cgrid = np.linspace(-5, 5, 25)
        gw1, gw2, gc = np.meshgrid(grid, grid, cgrid, indexing="ij")
        pts = np.stack([gw1.ravel(), gw2.ravel(), gc.ravel()], axis=1)
        dens = density_kde(W, C, bw, pts).reshape(21, 21, 25)
        mass = np.trapezoid(np.trapezoid(np.trapezoid(
            dens, cgrid, axis=2), grid, axis=1), grid, axis=0)
        assert mass == pytest.approx(1.0, abs=0.03)

    def test_peak_against_grid_oracle(self, small_density):
        # compare like with like: the grid density carries the delta
        # mollification, so the sample cloud must carry it too
        samp = mollified_sampler(H1, 0.6, 256, 300000, seed=97,
                                 grid_steps=small_density.steps(), cells=3.0)
        W, C = samp.endpoints()
        bw = np.array([0.12, 0.12, 0.12])
        kde0 = density_kde(W, C, bw, np.zeros((1, 3)))[0]
        oracle0 = small_density.value_at([0.0, 0.0, 0.0])
        assert kde0 == pytest.approx(oracle0, rel=0.15)
        # oversmoothing flattens the peak
        wide = density_kde(W, C, np.array([2.0, 2.0, 2.0]), np.zeros((1, 3)))[0]
        assert wide < 0.5 * kde0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            density_kde(np.zeros((10, 2)), np.zeros((10, 1)), 0.0, np.zeros((1, 3)))


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
