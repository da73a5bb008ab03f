import numpy as np
import pytest

from heislab.geometry import DistanceOptions, cc_distance
from heislab.groups import (
    DimensionMismatchError, GroupElement, HormanderError, OmegaForm, identity, inverse,
    make_preset, multiply,
)

H1 = make_preset("heisenberg", pairs=1).form
E = GroupElement([0.0, 0.0], [0.0])

# heisenberg(2) weighted (1, 2), and a copy rotated by 45 degrees in (w1, w3):
# no row of the rotated form is one pair, so cc_distance finds the pairs from
# the eigenvectors of i A, and must give the closed form on PAIRED at ROT^T w
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


def norm_ratios(form, targets):
    """d(e, x) / (|w| + sqrt(|c|)) over the targets: the homogeneous norm
    comparison, whose constants are not known a priori."""
    e = identity(form)
    return np.array([
        cc_distance(form, e, x).distance
        / (np.linalg.norm(x.w) + np.sqrt(np.linalg.norm(x.c)))
        for x in targets])


def assert_rotated_matches_paired(res, target):
    """The distance to ``target`` on ROTATED is the closed form on PAIRED at
    ROT^T w, to 1e-12 relative."""
    exact = cc_distance(PAIRED, E4, GroupElement(ROT.T @ target.w, target.c)).distance
    assert res.distance == pytest.approx(exact, rel=1e-12)


def random_rotation(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotated_form(form, rot):
    """``form`` in the horizontal basis rot: (w, c) -> (rot w, c) is an isomorphism."""
    return OmegaForm(form.n, form.d, np.einsum("ai,ijl,bj->abl", rot, form.coeffs, rot))


def circle_loop_oracle(area, K=64):
    """Best circular loop through the origin enclosing the given area.

    Independent distance oracle for purely vertical targets: bisect the radius
    until the exact polygonal vertical displacement hits the target, then
    return the polygon perimeter.
    """
    def displacement(r):
        theta = 2 * np.pi * np.arange(K + 1) / K
        nodes = np.stack([r * (np.cos(theta) - 1.0), r * np.sin(theta)], axis=1)
        return 0.5 * H1.path_integral(nodes)[0], nodes
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val, _ = displacement(mid)
        if val < area:
            lo = mid
        else:
            hi = mid
    _, nodes = displacement(0.5 * (lo + hi))
    return np.linalg.norm(np.diff(nodes, axis=0), axis=1).sum()


class TestVerticalDisplacement:
    def test_straight_line_vanishes(self):
        t = np.linspace(0, 1, 9)[:, None]
        nodes = t * np.array([[2.0, -1.0]])
        assert abs(0.5 * H1.path_integral(nodes)[0]) < 1e-15

    def test_unit_square_encloses_area_one(self):
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        assert 0.5 * H1.path_integral(nodes)[0] == pytest.approx(1.0)

    def test_reversal_negates(self):
        rng = np.random.default_rng(0)
        nodes = rng.normal(size=(12, 2))
        fwd = 0.5 * H1.path_integral(nodes)
        bwd = 0.5 * H1.path_integral(nodes[::-1])
        assert np.allclose(fwd, -bwd, atol=1e-14)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(1)
        nodes = rng.normal(size=(9, 2))
        base = 0.5 * H1.path_integral(nodes)
        # subdivide every segment at a random interior point
        refined = [nodes[0]]
        for k in range(8):
            s = rng.uniform(0.2, 0.8)
            refined.append(nodes[k] + s * (nodes[k + 1] - nodes[k]))
            refined.append(nodes[k + 1])
        ref = 0.5 * H1.path_integral(np.array(refined))
        assert np.allclose(base, ref, atol=1e-12)

    def test_vertical_profile_endpoint(self):
        # the vertical coordinates along a path that starts at c = 0.5
        nodes = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        prof = 0.5 + 0.5 * H1.running_path_integral(nodes)
        assert prof[0, 0] == 0.5
        assert prof[-1, 0] == pytest.approx(1.5)


class TestPathFunctionals:
    def test_length_energy_relation(self):
        # the witness polygon is no longer than the geodesic, so its squared
        # length is at most the reported energy d^2; a straight segment
        # saturates it
        for target, rel in ((GroupElement([0.4, -0.3], [0.2]), 1e-3),
                            (GroupElement([3.0, 1.0], [0.0]), 1e-12)):
            res = cc_distance(H1, E, target)
            length = np.linalg.norm(np.diff(res.witness, axis=0), axis=1).sum()
            assert length ** 2 <= res.energy * (1 + 1e-12)
            assert length ** 2 == pytest.approx(res.energy, rel=rel)


class TestDistance:
    def test_horizontal_target_is_euclidean(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            w = rng.uniform(-2, 2, size=2)
            res = cc_distance(H1, E, GroupElement(w, [0.0]))
            assert res.distance == pytest.approx(np.linalg.norm(w), rel=1e-3)

    def test_vertical_target_matches_circle_oracle(self):
        res = cc_distance(H1, E, GroupElement([0, 0], [1.0]), opts=DistanceOptions(segments=64))
        oracle = circle_loop_oracle(1.0, K=64)
        assert res.distance == pytest.approx(oracle, rel=1e-2)
        assert res.distance == pytest.approx(2 * np.sqrt(np.pi), rel=1e-2)

    def test_witness_feasible_and_constant_speed(self):
        # the witness is the geodesic sampled at K + 1 uniform times: it ends
        # on the horizontal target, misses the vertical one by its recorded
        # residual, which falls like 1/K^2, and all its segments are equal
        target = rotated_target([0.4, -0.3, 0.2, 0.1], 0.3)
        misses = []
        for K in (64, 256):
            res = cc_distance(ROTATED, E4, target, opts=DistanceOptions(segments=K))
            nodes = res.witness
            end_c = 0.5 * ROTATED.running_path_integral(nodes)[-1]
            assert np.allclose(nodes[-1], target.w, atol=1e-15)
            assert abs(end_c[0] - 0.3) == pytest.approx(res.constraint_residual, rel=1e-6)
            seg = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
            assert np.ptp(seg) <= 1e-12 * seg.mean()
            assert res.distance * (1 - 1e-3) < seg.sum() <= res.distance
            assert_rotated_matches_paired(res, target)
            misses.append(res.constraint_residual)
        assert misses[1] == pytest.approx(misses[0] / 16, rel=0.01)

    @pytest.mark.parametrize("c", [0.3, -0.3, 2.0])
    def test_closed_form_witness_is_the_sampled_geodesic(self, c):
        # the arc's K-gon reaches the horizontal endpoint, encloses a little
        # less area (the miss falls like 1/K^2) and is a little shorter
        x = GroupElement([0.2, 0.1], [0.05])
        target = multiply(H1, x, GroupElement([0.4, -0.3], [c]))
        misses = []
        for K in (64, 256):
            res = cc_distance(H1, x, target, opts=DistanceOptions(segments=K))
            end_w, end_c = res.witness[-1], x.c + 0.5 * H1.running_path_integral(res.witness)[-1]
            assert np.allclose(end_w, target.w, atol=1e-15)
            assert abs(end_c[0] - target.c[0]) == pytest.approx(res.constraint_residual,
                                                                rel=1e-6)
            assert np.sign(end_c[0] - x.c[0] - 0.5 * (x.w[0] * end_w[1] - x.w[1] * end_w[0])) \
                == np.sign(c)
            seg = np.linalg.norm(np.diff(res.witness, axis=0), axis=1)
            assert res.distance * (1 - 1e-3) < seg.sum() <= res.distance
            misses.append(res.constraint_residual)
        assert misses[1] == pytest.approx(misses[0] / 16, rel=0.01)

    def test_dilation_homogeneity(self):
        x = rotated_target([0.5, 0.2, 0.1, -0.3], 0.4)
        base = cc_distance(ROTATED, E4, x)
        assert_rotated_matches_paired(base, x)
        for lam in (0.5, 2.0, 4.0):
            y = GroupElement(lam * x.w, lam * lam * x.c)
            res = cc_distance(ROTATED, E4, y)
            assert res.distance == pytest.approx(lam * base.distance, rel=1e-12)
            assert_rotated_matches_paired(res, y)

    def test_symmetry_and_left_invariance(self):
        x = rotated_target([0.3, -0.2, 0.1, 0.2], 0.1)
        y = rotated_target([-0.5, 0.8, 0.3, -0.1], -0.3)
        dxy = cc_distance(ROTATED, x, y).distance
        dyx = cc_distance(ROTATED, y, x).distance
        z = multiply(ROTATED, inverse(x), y)
        res = cc_distance(ROTATED, E4, z)
        assert dxy == pytest.approx(dyx, rel=1e-12)
        assert dxy == pytest.approx(res.distance, rel=1e-12)
        assert_rotated_matches_paired(res, z)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rotated_target(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5))
            y = rotated_target(rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5))
            xy = multiply(ROTATED, x, y)
            dx, dy, dxy = (cc_distance(ROTATED, E4, t) for t in (x, y, xy))
            assert dxy.distance <= dx.distance + dy.distance + 1e-6
            for res, t in ((dx, x), (dy, y), (dxy, xy)):
                assert_rotated_matches_paired(res, t)

    def test_coincident_points(self):
        x = GroupElement([1.0, 2.0], [3.0])
        res = cc_distance(H1, x, x)
        assert res.distance == 0.0
        assert np.array_equal(res.witness, [x.w])
        assert res.diagnostics.get("shortcut") == "coincident"

    def test_rank_restriction_requires_hormander(self):
        lead = H1.restrict(1)
        with pytest.raises(HormanderError):
            cc_distance(lead, identity(lead), GroupElement([0.5], [0.0]))

    def test_target_support_outside_rank(self):
        # a target of the full group does not live in the rank-2 projection group
        lead = make_preset("heisenberg", pairs=2).form.restrict(2)
        with pytest.raises(DimensionMismatchError):
            cc_distance(lead, identity(lead), GroupElement([0, 0, 1, 0], [0.0]))

    def test_rotated_equal_weights(self):
        # heisenberg(3) in a random orthonormal basis: i A has one eigenvalue
        # of multiplicity 3, whose eigenvectors must still give orthonormal pairs
        form = make_preset("heisenberg", pairs=3).form
        rot = random_rotation(6, 11)
        turned = rotated_form(form, rot)
        rng = np.random.default_rng(12)
        for k in range(6):
            z = GroupElement(rng.uniform(-1, 1, 6) * (k != 0), [rng.uniform(-1, 1)])
            exact = cc_distance(form, identity(form), z).distance
            res = cc_distance(turned, identity(turned), GroupElement(rot @ z.w, z.c))
            assert res.distance == pytest.approx(exact, rel=1e-12)
            assert np.allclose(res.witness[-1], rot @ z.w, atol=1e-15)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-15, 1e-30])
    def test_near_the_cut_locus(self, eps):
        # (eps, 0, 1) on H3: the geodesic is a circle of area about 1 through
        # 0 and (eps, 0) that turns 2 pi short by about eps / sqrt(pi), and
        # d = 2 sqrt(pi) - eps + O(eps^3) (50-digit arithmetic agrees to 1e-19
        # at eps = 1e-6).  theta itself cannot resolve that shortfall: a
        # bisection in theta alone is 3e-7 low at eps = 1e-9, 12% at 1e-15
        res = cc_distance(H1, E, GroupElement([eps, 0.0], [1.0]))
        assert res.distance == pytest.approx(2 * np.sqrt(np.pi) - eps, rel=1e-14)
        # and its witness is that circle's 64-gon, missing the same area
        assert res.constraint_residual == pytest.approx(
            1 - 64 * np.sin(2 * np.pi / 64) / (2 * np.pi), rel=1e-5)

    def test_rotated_resting_heaviest_pair(self):
        # the heaviest pair rests, so its chord in a random basis is
        # round-off (about 1e-15) instead of zero: the near-2-pi arc it then
        # turns must cost what the paired form's loop costs
        q = [0.44, 1.83, 1.54]
        coeffs = np.zeros((6, 6, 1))
        for j, qj in enumerate(q):
            coeffs[2 * j, 2 * j + 1, 0], coeffs[2 * j + 1, 2 * j, 0] = qj, -qj
        paired = OmegaForm(6, 1, coeffs)
        rot = random_rotation(6, 8)
        turned = rotated_form(paired, rot)
        for c in (5.0, 50.0):
            w = np.array([0.0, 0.0, 0.0, 0.0, 0.5, -0.3])
            exact = cc_distance(paired, identity(paired), GroupElement(w, [c]))
            assert exact.diagnostics["loop_area"][0] > 0
            res = cc_distance(turned, identity(turned), GroupElement(rot @ w, [c]))
            assert res.distance == pytest.approx(exact.distance, rel=1e-12)

    def test_rotated_with_a_free_direction(self):
        # one pair of weight 1.5 plus a free coordinate, in a random basis:
        # the free part adds its squared length to d^2 and ends where it must
        pair = OmegaForm(2, 1, np.array([[0.0, 1.5], [-1.5, 0.0]])[:, :, None])
        coeffs = np.zeros((3, 3, 1))
        coeffs[:2, :2] = pair.coeffs
        rot = random_rotation(3, 14)
        turned = rotated_form(OmegaForm(3, 1, coeffs), rot)
        rng = np.random.default_rng(15)
        for k in range(6):
            w, c = rng.uniform(-1, 1, 3), rng.uniform(-1, 1) * (k != 0)
            d_pair = cc_distance(pair, identity(pair), GroupElement(w[:2], [c])).distance
            res = cc_distance(turned, identity(turned), GroupElement(rot @ w, [c]))
            assert res.energy == pytest.approx(d_pair ** 2 + w[2] ** 2, rel=1e-12)
            assert np.allclose(res.witness[-1], rot @ w, atol=1e-15)
            seg = np.linalg.norm(np.diff(res.witness, axis=0), axis=1)
            assert np.ptp(seg) <= 1e-12 * seg.mean()

    def test_d2_rotated_within_blocks(self):
        # block_sum([1, 3]) turned by a different angle inside each block:
        # each vertical coordinate keeps its own two horizontal ones
        form = make_preset("block_sum", weights=[1, 3]).form
        rot = np.zeros((4, 4))
        for b, a in ((0, 0.7), (2, -2.1)):
            rot[b:b + 2, b:b + 2] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
        turned = rotated_form(form, rot)
        rng = np.random.default_rng(13)
        for k in range(6):
            z = GroupElement(rng.uniform(-1, 1, 4) * (k != 0), rng.uniform(-1, 1, 2))
            exact = cc_distance(form, identity(form), z).distance
            res = cc_distance(turned, identity(turned), GroupElement(rot @ z.w, z.c))
            assert res.distance == pytest.approx(exact, rel=1e-12)

    def test_d2_overlapping_supports(self):
        # both vertical coordinates act on all four horizontal ones: a
        # vertical target has no closed form and raises, never an upper bound,
        # while a horizontal one is still the straight segment
        coeffs = np.zeros((4, 4, 2))
        coeffs[0, 1, 0] = coeffs[2, 3, 0] = 1.0
        coeffs[0, 2, 1] = coeffs[1, 3, 1] = 1.0
        form = OmegaForm(4, 2, coeffs - coeffs.transpose(1, 0, 2))
        e = identity(form)
        with pytest.raises(ValueError, match="no closed-form distance"):
            cc_distance(form, e, GroupElement([0.3, 0.0, 0.0, 0.0], [0.2, 0.0]))
        w = np.array([0.3, -0.4, 0.1, 0.2])
        res = cc_distance(form, e, GroupElement(w, [0.0, 0.0]))
        assert res.distance == pytest.approx(np.linalg.norm(w), rel=1e-15)
        assert res.constraint_residual <= 1e-15


class TestNormEquivalence:
    def test_horizontal_targets_ratio_one(self):
        targets = [GroupElement([1.0, 0.0], [0.0]), GroupElement([0.3, -0.4], [0.0])]
        np.testing.assert_allclose(norm_ratios(H1, targets), 1.0, rtol=1e-12)

    def test_vertical_target_ratio(self):
        ratios = norm_ratios(H1, [GroupElement([0.0, 0.0], [1.0])])
        assert ratios[0] == pytest.approx(2 * np.sqrt(np.pi), rel=1e-12)

    def test_random_h3_targets_stay_in_band(self):
        # mixed targets legitimately fall below 1 (area picked up on the way
        # to the horizontal endpoint is nearly free)
        rng = np.random.default_rng(5)
        targets = [GroupElement(rng.uniform(-1.5, 1.5, 2), rng.uniform(-1, 1, 1))
                   for _ in range(10)]
        ratios = norm_ratios(H1, targets)
        assert 0.5 <= ratios.min() and ratios.max() <= 4.0


class TestProjectedConvergence:
    # d_m(e, x) is the distance of the rank-m projection group, form.restrict(m),
    # to x on its leading m coordinates; a geodesic at one rank is admissible
    # at every larger rank, so d_m does not grow with m
    FORM = make_preset("wiener_truncation", pairs=4, s=2).form

    def distances(self, x):
        return [cc_distance(self.FORM.restrict(m), GroupElement(np.zeros(m), [0.0]),
                            GroupElement(x.w[:m], x.c)).distance for m in (2, 4, 8)]

    def test_wiener_truncation_monotone(self):
        d = self.distances(GroupElement(np.zeros(8), [0.5]))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(d, d[1:]))
        assert d[0] == pytest.approx(2 * np.sqrt(np.pi * 0.5), rel=1e-12)

    def test_horizontal_target_constant(self):
        d = self.distances(GroupElement([0.7, 0.0, 0, 0, 0, 0, 0, 0], [0.0]))
        assert d == pytest.approx([0.7] * 3, rel=1e-12)
