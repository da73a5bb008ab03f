import numpy as np
import pytest

from heislab import differential
from heislab.curvature import curvature_constants, hs_norm_sq
from heislab.differential import (
    cd_terms,
    check_cd_inequality,
    gamma,
    gamma_z,
    horizontal_field,
    sublaplacian,
    vertical_field,
)
from heislab.groups import make_preset
from heislab.polynomials import PolynomialFunction, constant, random_polynomial

H1 = make_preset("heisenberg", pairs=1).form
BS = make_preset("block_sum", weights=[1, 1]).form
CC = curvature_constants(H1)
RHO2 = CC.rho2


def coordinates(nvars):
    """The coordinate functions x_0 .. x_{nvars-1} as polynomials."""
    return [PolynomialFunction(nvars, {tuple(int(k == v) for k in range(nvars)): 1.0})
            for v in range(nvars)]


W1, W2, C = coordinates(3)


def rel_close(f, g, rtol=1e-9):
    """f and g agree coefficient by coefficient, to rtol of the larger
    coefficient vector's norm."""
    keys = list(f.terms.keys() | g.terms.keys())
    a, b = (np.array([p.terms.get(k, 0.0) for k in keys]) for p in (f, g))
    return np.linalg.norm(a - b) <= rtol * max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)


# The exact identities of the calculus, each as its two sides.  X_j f is
# d_j f + v_j f / 2 with v_j f = sum_l p_jl d/dc_l f, p_jl = sum_k w_k coeffs[k, j, l].

def vertical_part(form, j, h):
    """v_j h, twice the vertical part of X_j h."""
    w = coordinates(form.n + form.d)[:form.n]
    return sum((wk * (float(cf) * h.partial(form.n + l)) for l in range(form.d)
                for wk, cf in zip(w, form.coeffs[:, j, l]) if cf), h * 0)


def commutation(form, f):
    """Gamma(f, Gamma^Z(f)) and Gamma^Z(f, Gamma(f))."""
    return gamma(form, f, gamma_z(form, f)), gamma_z(form, f, gamma(form, f))


def bracket_relation(form, i, j, f):
    """[X_i, X_j] f and sum_l coeffs[i, j, l] Z_l f."""
    def x(k, h):
        return horizontal_field(form, k, h)
    rhs = sum((vertical_field(form, l, f) * float(form.coeffs[i, j, l]) for l in range(form.d)),
              f * 0)
    return x(i, x(j, f)) - x(j, x(i, f)), rhs


def generator_expansion(form, f):
    """L f and sum_j d_jj f + v_j d_j f + v_j v_j f / 4."""
    rhs = sum((f.partial(j).partial(j) + vertical_part(form, j, f.partial(j))
               + 0.25 * vertical_part(form, j, vertical_part(form, j, f))
               for j in range(form.n)), f * 0)
    return sublaplacian(form, f), rhs


def gamma_expansion(form, f, g):
    """Gamma(f, g) and sum_j d_j f d_j g + (v_j f d_j g + v_j g d_j f) / 2 + v_j f v_j g / 4."""
    def term(j):
        vf, vg = vertical_part(form, j, f), vertical_part(form, j, g)
        return (f.partial(j) * g.partial(j) + 0.5 * (vf * g.partial(j) + vg * f.partial(j))
                + 0.25 * (vf * vg))
    return gamma(form, f, g), sum((term(j) for j in range(form.n)), f * 0)


def gamma2z_squares(form, f):
    """Gamma_2^Z(f) and sum_{j, l} (X_j Z_l f)^2."""
    xz = [horizontal_field(form, j, vertical_field(form, l, f))
          for j in range(form.n) for l in range(form.d)]
    return cd_terms(form, f)[1], sum((t * t for t in xz), f * 0)


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
        g2, g2z, gz, g = cd_terms(H1, C)
        assert g2 == constant(3, 0.5) and g2z.is_zero()
        assert gz == gamma_z(H1, C) and g == gamma(H1, C)

    def test_cd_terms_builds_each_term_once(self, monkeypatch):
        # L f, Gamma(f) and Gamma^Z(f) are each built once for the four terms
        calls = []
        for name in ("sublaplacian", "gamma", "gamma_z"):
            def counted(form, f, g=None, _name=name, _real=getattr(differential, name)):
                calls.append((_name, f, g))
                return _real(form, f) if g is None else _real(form, f, g)
            monkeypatch.setattr(differential, name, counted)
        f = random_polynomial(6, 4, np.random.default_rng(17), terms=8)
        cd_terms(BS, f)
        on_f = [name for name, p, g in calls if p is f and g in (None, f)]
        assert sorted(on_f) == ["gamma", "gamma_z", "sublaplacian"]


class TestCommutation:
    def test_examples(self):
        assert rel_close(*commutation(H1, W1))
        assert rel_close(*commutation(H1, C))

    def test_random(self):
        rng = np.random.default_rng(11)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert rel_close(*commutation(form, f))


class TestBracketRelation:
    def test_vertical_coordinate(self):
        lhs, rhs = bracket_relation(H1, 0, 1, C)
        assert lhs == rhs == constant(3, 1.0)

    def test_horizontal_coordinate(self):
        lhs, rhs = bracket_relation(H1, 0, 1, W1)
        assert lhs.is_zero() and rhs.is_zero()

    def test_swap_flips_sign(self):
        lhs_01, _ = bracket_relation(H1, 0, 1, C)
        lhs_10, rhs_10 = bracket_relation(H1, 1, 0, C)
        assert lhs_10 == -lhs_01 == rhs_10

    def test_random(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            f = random_polynomial(6, 4, rng, terms=6)
            i, j = rng.choice(4, size=2, replace=False)
            assert rel_close(*bracket_relation(BS, int(i), int(j), f))


class TestGeneratorDecomposition:
    def test_degree_one_trivial(self):
        lhs, rhs = generator_expansion(H1, C)
        assert lhs.is_zero() and rhs.is_zero()

    def test_vertical_square(self):
        # both sides equal (w1^2+w2^2)/2; the flat Laplacian contributes nothing
        lhs, rhs = generator_expansion(H1, C * C)
        assert rel_close(lhs, rhs)
        assert rel_close(lhs, 0.5 * (W1 * W1 + W2 * W2))

    def test_mixed_monomial(self):
        assert rel_close(*generator_expansion(H1, W1 * C))

    def test_random(self):
        rng = np.random.default_rng(13)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert rel_close(*generator_expansion(form, f))


class TestGammaDecomposition:
    def test_horizontal_coordinate(self):
        lhs, rhs = gamma_expansion(H1, W1, W1)
        assert lhs == rhs == constant(3, 1.0)

    def test_vertical_coordinate(self):
        lhs, rhs = gamma_expansion(H1, C, C)
        assert rel_close(lhs, rhs)
        assert lhs([1.0, 2.0, 0.0]) == pytest.approx((1 + 4) / 4)

    def test_random(self):
        rng = np.random.default_rng(14)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 3, rng, terms=6)
                g = random_polynomial(nv, 3, rng, terms=6)
                assert rel_close(*gamma_expansion(form, f, g))


class TestGamma2ZSumOfSquares:
    def test_random(self):
        rng = np.random.default_rng(15)
        for form, nv in ((H1, 3), (BS, 6)):
            for _ in range(8):
                f = random_polynomial(nv, 4, rng, terms=6)
                assert rel_close(*gamma2z_squares(form, f))


def test_identities_hold_at_the_degree_cap():
    # degree 6 is the working cap for random test functions; coefficient
    # growth in the iterated forms stays inside the relative tolerance there
    rng = np.random.default_rng(99)
    f = random_polynomial(3, 6, rng, terms=8)
    g = random_polynomial(3, 6, rng, terms=8)
    assert rel_close(*commutation(H1, f))
    assert rel_close(*generator_expansion(H1, f))
    assert rel_close(*gamma_expansion(H1, f, g))
    assert rel_close(*gamma2z_squares(H1, f))


class TestCurvatureDimension:
    def test_constant_function(self):
        [rec] = check_cd_inequality(H1, constant(3, 2.0), [[1, 1, 1]], [1.0], CC,
                                    vertical_coeff=RHO2)
        assert rec.passed and rec.margin == 0.0

    def test_names_its_records_point_major(self):
        recs = check_cd_inequality(H1, W1, [[0, 0, 0], [1, 1, 1]], [0.5, 2.0], CC,
                                   vertical_coeff=RHO2, record_id="cd-f3")
        assert [r.record_id for r in recs] == [
            "cd-f3-x0-nu0.5", "cd-f3-x0-nu2", "cd-f3-x1-nu0.5", "cd-f3-x1-nu2"]
        assert [r.x for r in recs][1:3] == ["0 0 0", "1 1 1"]

    def test_horizontal_coordinate(self):
        # all iterated terms vanish, leaving the positive hs/nu * Gamma term
        nu = 0.7
        [rec] = check_cd_inequality(H1, W1, [[0.5, -1, 2]], [nu], CC, vertical_coeff=RHO2)
        assert rec.passed
        assert rec.margin == pytest.approx(hs_norm_sq(H1) / nu)

    def test_vertical_witness_of_the_sharp_coefficient(self):
        # at the identity the iterated form of c equals exactly one quarter of
        # rho2 times its vertical form, so the quarter-weighted bound is tight
        # and the unweighted one is violated
        e = [[0, 0, 0]]
        [quarter] = check_cd_inequality(H1, C, e, [1.0], CC, vertical_coeff=RHO2 / 4)
        assert quarter.passed and quarter.margin == pytest.approx(0.0, abs=1e-15)
        [full] = check_cd_inequality(H1, C, e, [1.0], CC, vertical_coeff=RHO2)
        assert not full.passed
        assert full.margin == pytest.approx(0.5 - RHO2)

    def test_quarter_coefficient_random_sweep(self):
        rng = np.random.default_rng(16)
        for form, nv in ((H1, 3), (BS, 6)):
            constants = curvature_constants(form)
            vc = constants.rho2 / 4
            for _ in range(15):
                f = random_polynomial(nv, 4, rng, terms=8)
                pts = rng.uniform(-3, 3, size=(10, nv))
                recs = check_cd_inequality(form, f, pts[:3], (0.1, 1.0, 10.0), constants,
                                           vertical_coeff=vc)
                assert [rec.p_or_q for rec in recs] == [0.1, 1.0, 10.0] * 3
                assert all(rec.passed for rec in recs)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            check_cd_inequality(H1, W1, [[0, 0, 0]], [1.0, 0.0], CC, vertical_coeff=RHO2)
