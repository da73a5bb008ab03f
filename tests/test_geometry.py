import numpy as np
import pytest

from heislab.geometry import (
    DistanceOptions,
    HorizontalPath,
    SolverError,
    cc_distance,
    check_distance_norm_equivalence,
    projected_distance_convergence,
    vertical_displacement,
)
from heislab.groups import (
    GroupElement, HormanderError, OmegaForm, dilate, identity, inverse, make_preset, multiply,
)

H1 = make_preset("heisenberg", pairs=1).form
E = GroupElement([0.0, 0.0], [0.0])
FAST = DistanceOptions(restarts=8)

# heisenberg(2) weighted (1, 2), and a copy rotated by 45 degrees in (w1, w3):
# no row of the rotated form is one pair, so cc_distance solves numerically
# there, while the exact distance is the closed form on PAIRED at ROT^T w
ROT = np.eye(4)
ROT[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
_PAIRS = np.zeros((4, 4))
_PAIRS[0, 1], _PAIRS[2, 3] = 1.0, 2.0
PAIRED = OmegaForm(4, 1, (_PAIRS - _PAIRS.T)[:, :, None])
ROTATED = OmegaForm(4, 1, (ROT @ (_PAIRS - _PAIRS.T) @ ROT.T)[:, :, None])
E4 = identity(ROTATED)


def rotated_target(w, c):
    """The ROTATED-form image of the PAIRED-form point (w, c)."""
    return GroupElement(ROT @ np.asarray(w, dtype=float), [c])


def assert_solver_above_closed_form(res, target):
    """The solver's distance to ``target`` on ROTATED lies between the exact
    one and 1e-3 above it."""
    assert res.diagnostics["method"] == "solver"
    exact = cc_distance(PAIRED, E4, GroupElement(ROT.T @ target.w, target.c)).distance
    assert exact <= res.distance <= exact * (1 + 1e-3)


def circle_loop_oracle(area, K=64):
    """Best circular loop through the origin enclosing the given area.

    Independent distance oracle for purely vertical targets: bisect the radius
    until the exact polygonal vertical displacement hits the target, then
    return the polygon perimeter.
    """
    def displacement(r):
        theta = 2 * np.pi * np.arange(K + 1) / K
        nodes = np.stack([r * (np.cos(theta) - 1.0), r * np.sin(theta)], axis=1)
        path = HorizontalPath(nodes, [0.0])
        return vertical_displacement(H1, path)[0], path
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val, _ = displacement(mid)
        if val < area:
            lo = mid
        else:
            hi = mid
    _, path = displacement(0.5 * (lo + hi))
    return path.length()


class TestVerticalDisplacement:
    def test_straight_line_vanishes(self):
        t = np.linspace(0, 1, 9)[:, None]
        path = HorizontalPath(t * np.array([[2.0, -1.0]]), [0.0])
        assert abs(vertical_displacement(H1, path)[0]) < 1e-15

    def test_unit_square_encloses_area_one(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        path = HorizontalPath(nodes, [0.0])
        assert vertical_displacement(H1, path)[0] == pytest.approx(1.0)

    def test_reversal_negates(self):
        rng = np.random.default_rng(0)
        nodes = rng.normal(size=(12, 2))
        path = HorizontalPath(nodes, [0.0])
        fwd = vertical_displacement(H1, path)
        bwd = vertical_displacement(H1, path.reversed())
        assert np.allclose(fwd, -bwd, atol=1e-14)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(1)
        nodes = rng.normal(size=(9, 2))
        path = HorizontalPath(nodes, [0.0])
        base = vertical_displacement(H1, path)
        # subdivide every segment at a random interior point
        refined = [nodes[0]]
        for k in range(8):
            s = rng.uniform(0.2, 0.8)
            refined.append(nodes[k] + s * (nodes[k + 1] - nodes[k]))
            refined.append(nodes[k + 1])
        ref = vertical_displacement(H1, HorizontalPath(np.array(refined), [0.0]))
        assert np.allclose(base, ref, atol=1e-12)

    def test_vertical_profile_endpoint(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        path = HorizontalPath(nodes, [0.5])
        prof = path.vertical_profile(H1)
        assert prof[0, 0] == 0.5
        assert prof[-1, 0] == pytest.approx(1.5)
        assert path.endpoint(H1).c[0] == pytest.approx(1.5)


class TestPathFunctionals:
    def test_length_energy_relation(self):
        rng = np.random.default_rng(2)
        nodes = rng.normal(size=(17, 2))
        path = HorizontalPath(nodes, [0.0])
        assert path.length() ** 2 <= path.energy() + 1e-12
        # constant-speed path saturates
        t = np.linspace(0, 1, 17)[:, None]
        line = HorizontalPath(t * np.array([[3.0, 1.0]]), [0.0])
        assert line.length() ** 2 == pytest.approx(line.energy(), rel=1e-12)


class TestDistance:
    def test_horizontal_target_is_euclidean(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            w = rng.uniform(-2, 2, size=2)
            res = cc_distance(H1, E, GroupElement(w, [0.0]), opts=FAST)
            assert res.distance == pytest.approx(np.linalg.norm(w), rel=1e-3)

    def test_vertical_target_matches_circle_oracle(self):
        res = cc_distance(H1, E, GroupElement([0, 0], [1.0]),
                          opts=DistanceOptions(segments=64, restarts=16))
        oracle = circle_loop_oracle(1.0, K=64)
        assert res.distance == pytest.approx(oracle, rel=1e-2)
        assert res.distance == pytest.approx(2 * np.sqrt(np.pi), rel=1e-2)

    def test_witness_feasible_and_constant_speed(self):
        target = rotated_target([0.4, -0.3, 0.2, 0.1], 0.3)
        res = cc_distance(ROTATED, E4, target, opts=FAST)
        end = res.witness.endpoint(ROTATED)
        assert np.allclose(end.w, target.w, atol=1e-9)
        assert abs(end.c[0] - 0.3) < 1e-9
        assert res.witness.length() == pytest.approx(np.sqrt(res.energy), rel=1e-6)
        assert_solver_above_closed_form(res, target)

    @pytest.mark.parametrize("c", [0.3, -0.3, 2.0])
    def test_closed_form_witness_is_the_sampled_geodesic(self, c):
        # the arc's K-gon reaches the horizontal endpoint, encloses a little
        # less area (the miss falls like 1/K^2) and is a little shorter
        x = GroupElement([0.2, 0.1], [0.05])
        target = multiply(H1, x, GroupElement([0.4, -0.3], [c]))
        misses = []
        for K in (64, 256):
            res = cc_distance(H1, x, target, opts=DistanceOptions(segments=K))
            assert res.diagnostics["method"] == "closed-form"
            end = res.witness.endpoint(H1)
            assert np.allclose(end.w, target.w, atol=1e-15)
            assert abs(end.c[0] - target.c[0]) == pytest.approx(res.constraint_residual,
                                                                rel=1e-6)
            assert np.sign(end.c[0] - x.c[0] - 0.5 * (x.w[0] * end.w[1] - x.w[1] * end.w[0])) \
                == np.sign(c)
            assert res.distance * (1 - 1e-3) < res.witness.length() <= res.distance
            misses.append(res.constraint_residual)
        assert misses[1] == pytest.approx(misses[0] / 16, rel=0.01)

    def test_dilation_homogeneity(self):
        x = rotated_target([0.5, 0.2, 0.1, -0.3], 0.4)
        base = cc_distance(ROTATED, E4, x, opts=FAST)
        assert_solver_above_closed_form(base, x)
        for lam in (0.5, 2.0, 4.0):
            res = cc_distance(ROTATED, E4, dilate(lam, x), opts=FAST)
            assert res.distance == pytest.approx(lam * base.distance, rel=1e-2)
            assert_solver_above_closed_form(res, dilate(lam, x))

    def test_symmetry_and_left_invariance(self):
        x = rotated_target([0.3, -0.2, 0.1, 0.2], 0.1)
        y = rotated_target([-0.5, 0.8, 0.3, -0.1], -0.3)
        dxy = cc_distance(ROTATED, x, y, opts=FAST).distance
        dyx = cc_distance(ROTATED, y, x, opts=FAST).distance
        z = multiply(ROTATED, inverse(x), y)
        res = cc_distance(ROTATED, E4, z, opts=FAST)
        assert dxy == pytest.approx(dyx, rel=1e-6)
        assert dxy == pytest.approx(res.distance, rel=1e-9)
        assert_solver_above_closed_form(res, z)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rotated_target(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5))
            y = rotated_target(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5))
            xy = multiply(ROTATED, x, y)
            dx, dy, dxy = (cc_distance(ROTATED, E4, t, opts=FAST) for t in (x, y, xy))
            assert dxy.distance <= dx.distance + dy.distance + 1e-6
            for res, t in ((dx, x), (dy, y), (dxy, xy)):
                assert_solver_above_closed_form(res, t)

    def test_coincident_points(self):
        x = GroupElement([1.0, 2.0], [3.0])
        res = cc_distance(H1, x, x, opts=FAST)
        assert res.distance == 0.0
        assert res.witness.segments == 0
        assert res.diagnostics.get("shortcut") == "coincident"

    def test_rank_restriction_requires_hormander(self):
        with pytest.raises(HormanderError):
            cc_distance(H1, E, GroupElement([0.5, 0], [0.0]), rank=1, opts=FAST)

    def test_target_support_outside_rank(self):
        form = make_preset("heisenberg", pairs=2).form
        e = GroupElement(np.zeros(4), [0.0])
        with pytest.raises(ValueError):
            cc_distance(form, e, GroupElement([0, 0, 1, 0], [0.0]), rank=2, opts=FAST)

    def test_saddle_start_raises_solver_error(self):
        # the straight-line start for a purely vertical target is a stationary
        # saddle; with no perturbed restarts the solver must report failure
        opts = DistanceOptions(restarts=1, max_outer=3)
        with pytest.raises(SolverError) as err:
            cc_distance(ROTATED, E4, GroupElement(np.zeros(4), [1.0]), opts=opts)
        assert err.value.best is not None
        assert err.value.best.constraint_residual > 0


class TestNormEquivalence:
    def test_horizontal_targets_ratio_one(self):
        targets = [GroupElement([1.0, 0.0], [0.0]), GroupElement([0.3, -0.4], [0.0])]
        rep = check_distance_norm_equivalence(H1, targets, opts=FAST)
        assert rep.bounded_ok
        assert rep.min_ratio == pytest.approx(1.0, rel=1e-3)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-3)

    def test_vertical_target_ratio(self):
        rep = check_distance_norm_equivalence(
            H1, [GroupElement([0.0, 0.0], [1.0])],
            opts=DistanceOptions(restarts=12))
        assert rep.max_ratio == pytest.approx(2 * np.sqrt(np.pi), rel=1e-2)

    def test_random_h3_targets_stay_in_band(self):
        # the comparison constants are unknown; the envelope is recorded, and
        # mixed targets legitimately fall below 1 (area picked up on the way
        # to the horizontal endpoint is nearly free)
        rng = np.random.default_rng(5)
        targets = [GroupElement(rng.uniform(-1.5, 1.5, 2), rng.uniform(-1, 1, 1))
                   for _ in range(10)]
        rep = check_distance_norm_equivalence(H1, targets, opts=FAST)
        assert rep.bounded_ok
        assert 0.5 <= rep.min_ratio and rep.max_ratio <= 4.0


class TestProjectedConvergence:
    def test_wiener_truncation_monotone(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        x = GroupElement(np.zeros(8), [0.5])
        rep = projected_distance_convergence(form, x, [2, 4, 8],
                                             opts=DistanceOptions(restarts=6))
        assert rep.monotone_ok
        assert rep.matches_full_rank
        assert rep.distances[0] == pytest.approx(2 * np.sqrt(np.pi * 0.5), rel=1e-2)

    def test_horizontal_target_constant(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        x = GroupElement([0.7, 0.0, 0, 0, 0, 0, 0, 0], [0.0])
        rep = projected_distance_convergence(form, x, [2, 4, 8],
                                             opts=DistanceOptions(restarts=4))
        for d in rep.distances:
            assert d == pytest.approx(0.7, rel=1e-3)

    def test_bad_rank_lists(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        x = GroupElement(np.zeros(8), [0.5])
        with pytest.raises(ValueError):
            projected_distance_convergence(form, x, [4, 4], opts=FAST)
        y = GroupElement([0, 0, 0, 0, 1.0, 0, 0, 0], [0.0])
        with pytest.raises(ValueError):
            projected_distance_convergence(form, y, [2, 4], opts=FAST)
