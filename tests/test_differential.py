import numpy as np
import pytest

from heislab.curvature import hs_norm_sq, rho2
from heislab.differential import (
    check_bracket_relation,
    check_cd_inequality,
    check_commutation,
    check_gamma2z_sum_of_squares,
    check_gamma_decomposition,
    check_generator_decomposition,
    gamma,
    gamma2,
    gamma2_z,
    gamma_z,
    horizontal_field,
    sublaplacian,
    vertical_field,
)
from heislab.groups import GroupElement, make_preset
from heislab.polynomials import constant, random_polynomial, variable

H1 = make_preset("heisenberg", pairs=1).form
BS = make_preset("block_sum", weights=[1, 1]).form

W1, W2, C = variable(3, 0), variable(3, 1), variable(3, 2)


def rel_close(f, g, rtol=1e-9):
    scale = max(f.coeff_norm(), g.coeff_norm(), 1e-30)
    return (f - g).coeff_norm() <= rtol * scale


class TestFields:
    def test_horizontal_on_coordinates(self):
        assert horizontal_field(H1, 0, W1) == constant(3, 1.0)
        assert horizontal_field(H1, 1, W1).is_zero()

    def test_horizontal_on_vertical_coordinate(self):
        assert rel_close(horizontal_field(H1, 0, C), -0.5 * W2)
        assert rel_close(horizontal_field(H1, 1, C), 0.5 * W1)

    def test_product_rule_example(self):
        got = horizontal_field(H1, 0, W1 * C)
        assert rel_close(got, C - 0.5 * (W1 * W2))

    def test_vertical(self):
        assert vertical_field(H1, 0, C) == constant(3, 1.0)
        assert vertical_field(H1, 0, W1).is_zero()
        assert vertical_field(H1, 0, C * C) == 2 * C

    def test_leibniz(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = random_polynomial(3, 4, rng, terms=6)
            g = random_polynomial(3, 4, rng, terms=6)
            for i in range(2):
                lhs = horizontal_field(H1, i, f * g)
                rhs = horizontal_field(H1, i, f) * g + f * horizontal_field(H1, i, g)
                assert rel_close(lhs, rhs)


class TestSublaplacian:
    def test_examples(self):
        assert sublaplacian(H1, W1 * W1 + W2 * W2) == constant(3, 4.0)
        assert sublaplacian(H1, C).is_zero()
        assert sublaplacian(H1, constant(3, 1.0)).is_zero()

    def test_vertical_square(self):
        got = sublaplacian(H1, C * C)
        assert rel_close(got, 0.5 * (W1 * W1 + W2 * W2))


class TestGammaForms:
    def test_gamma_examples(self):
        assert gamma(H1, W1) == constant(3, 1.0)
        assert rel_close(gamma(H1, C), 0.25 * (W1 * W1 + W2 * W2))
        assert gamma_z(H1, C) == constant(3, 1.0)

    def test_gamma_by_two_routes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = random_polynomial(3, 4, rng, terms=6)
            g = random_polynomial(3, 4, rng, terms=6)
            direct = gamma(H1, f, g)
            via_l = 0.5 * (
                sublaplacian(H1, f * g)
                - f * sublaplacian(H1, g)
                - g * sublaplacian(H1, f)
            )
            assert rel_close(direct, via_l)

    def test_gamma_nonnegative_at_points(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, size=(40, 3))
        for _ in range(10):
            f = random_polynomial(3, 4, rng, terms=6)
            assert np.all(gamma(H1, f)(pts) >= -1e-9)
            assert np.all(gamma_z(H1, f)(pts) >= -1e-9)

    def test_gamma2_known_value(self):
        # the iterated form of the vertical coordinate is the constant 1/2,
        # saturating the corrected curvature lower bound at the origin
        assert gamma2(H1, C) == constant(3, 0.5)
        assert gamma2_z(H1, C).is_zero()


class TestCommutation:
    def test_examples(self):
        assert check_commutation(H1, W1).passed
        assert check_commutation(H1, C).passed

    def test_random(self):
        rng = np.random.default_rng(11)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert check_commutation(form, f).passed


class TestBracketRelation:
    def test_vertical_coordinate(self):
        rec = check_bracket_relation(H1, 0, 1, C)
        assert rec.passed

    def test_horizontal_coordinate(self):
        rec = check_bracket_relation(H1, 0, 1, W1)
        assert rec.passed

    def test_swap_flips_sign(self):
        lhs_01 = horizontal_field(H1, 0, horizontal_field(H1, 1, C)) - \
            horizontal_field(H1, 1, horizontal_field(H1, 0, C))
        lhs_10 = horizontal_field(H1, 1, horizontal_field(H1, 0, C)) - \
            horizontal_field(H1, 0, horizontal_field(H1, 1, C))
        assert rel_close(lhs_01, -1 * lhs_10)
        assert check_bracket_relation(H1, 1, 0, C).passed

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            check_bracket_relation(H1, 1, 1, C)

    def test_random(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            f = random_polynomial(6, 4, rng, terms=6)
            i, j = rng.choice(4, size=2, replace=False)
            assert check_bracket_relation(BS, int(i), int(j), f).passed


class TestGeneratorDecomposition:
    def test_degree_one_trivial(self):
        assert check_generator_decomposition(H1, C).passed

    def test_vertical_square(self):
        rec = check_generator_decomposition(H1, C * C)
        assert rec.passed
        # both sides equal (w1^2+w2^2)/2; the flat Laplacian contributes nothing
        assert rel_close(sublaplacian(H1, C * C), 0.5 * (W1 * W1 + W2 * W2))

    def test_mixed_monomial(self):
        assert check_generator_decomposition(H1, W1 * C).passed

    def test_random(self):
        rng = np.random.default_rng(13)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert check_generator_decomposition(form, f).passed


class TestGammaDecomposition:
    def test_horizontal_coordinate(self):
        rec = check_gamma_decomposition(H1, W1, W1, GroupElement([0, 0], [0]))
        assert rec.passed
        assert rec.lhs == pytest.approx(1.0)

    def test_vertical_coordinate(self):
        x = GroupElement([1.0, 2.0], [0.0])
        rec = check_gamma_decomposition(H1, C, C, x)
        assert rec.passed
        assert rec.lhs == pytest.approx((1 + 4) / 4)

    def test_random(self):
        rng = np.random.default_rng(14)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 3, rng, terms=6)
                g = random_polynomial(nv, 3, rng, terms=6)
                assert check_gamma_decomposition(form, f, g).passed


class TestGamma2ZSumOfSquares:
    def test_random(self):
        rng = np.random.default_rng(15)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert check_gamma2z_sum_of_squares(form, f).passed


def test_identities_hold_at_the_degree_cap():
    # degree 6 is the working cap for random test functions; coefficient
    # growth in the iterated forms stays inside the relative tolerance there
    rng = np.random.default_rng(99)
    f = random_polynomial(3, 6, rng, terms=8)
    g = random_polynomial(3, 6, rng, terms=8)
    assert check_commutation(H1, f).passed
    assert check_generator_decomposition(H1, f).passed
    assert check_gamma_decomposition(H1, f, g).passed
    assert check_gamma2z_sum_of_squares(H1, f).passed


class TestCurvatureDimension:
    def test_constant_function(self):
        [rec] = check_cd_inequality(H1, constant(3, 2.0), [[1, 1, 1]], [1.0])
        assert rec.passed and rec.margin == 0.0

    def test_horizontal_coordinate(self):
        # all iterated terms vanish, leaving the positive hs/nu * Gamma term
        nu = 0.7
        [rec] = check_cd_inequality(H1, W1, [[0.5, -1, 2]], [nu])
        assert rec.passed
        assert rec.margin == pytest.approx(hs_norm_sq(H1) / nu)

    def test_vertical_witness_of_the_sharp_coefficient(self):
        # at the identity the iterated form of c equals exactly one quarter of
        # rho2 times its vertical form, so the quarter-weighted bound is tight
        # and the unweighted one is violated
        e = [[0, 0, 0]]
        [quarter] = check_cd_inequality(H1, C, e, [1.0], vertical_coeff=rho2(H1) / 4)
        assert quarter.passed and quarter.margin == pytest.approx(0.0, abs=1e-15)
        [full] = check_cd_inequality(H1, C, e, [1.0])
        assert not full.passed
        assert full.margin == pytest.approx(0.5 - rho2(H1))

    def test_quarter_coefficient_random_sweep(self):
        rng = np.random.default_rng(16)
        for form, nv in ((H1, 3), (BS, 6)):
            vc = rho2(form) / 4
            for _ in range(15):
                f = random_polynomial(nv, 4, rng, terms=8)
                pts = rng.uniform(-3, 3, size=(10, nv))
                recs = check_cd_inequality(form, f, pts[:3], (0.1, 1.0, 10.0),
                                           vertical_coeff=vc)
                assert [rec.p_or_q for rec in recs] == [0.1, 1.0, 10.0] * 3
                assert all(rec.passed for rec in recs)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            check_cd_inequality(H1, W1, [[0, 0, 0]], [1.0, 0.0])
