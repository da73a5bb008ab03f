import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.curvature import curvature_constants
from heislab.groups import (
    DimensionMismatchError,
    GroupElement,
    HormanderError,
    OmegaForm,
    homogeneous_norm,
    identity,
    inverse,
    make_preset,
    multiply,
    multiply_arrays,
    preset_catalog,
)

H1 = make_preset("heisenberg", pairs=1)
H2 = make_preset("heisenberg", pairs=2)


def elem(form, w, c):
    return GroupElement(np.asarray(w, dtype=float), np.asarray(c, dtype=float))


def assert_same(x, y, atol=1e-12):
    np.testing.assert_allclose(x.coords(), y.coords(), rtol=0, atol=atol)


coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def element_strategy(n, d):
    return st.builds(
        lambda ws, cs: GroupElement(np.array(ws), np.array(cs)),
        st.lists(coord, min_size=n, max_size=n),
        st.lists(coord, min_size=d, max_size=d),
    )


class TestProductLaw:
    def test_h3_hand_example(self):
        z = multiply(H1.form, elem(H1.form, [1, 0], [0]), elem(H1.form, [0, 1], [0]))
        assert np.allclose(z.w, [1, 1])
        assert np.allclose(z.c, [0.5])

    def test_identity_element(self):
        x = elem(H1.form, [2.0, -1.0], [3.0])
        e = identity(H1.form)
        assert_same(multiply(H1.form, x, e), x)
        assert_same(multiply(H1.form, e, x), x)

    def test_inverse_is_negation(self):
        x = elem(H1.form, [1, 0], [0.5])
        xi = inverse(x)
        assert np.allclose(xi.w, [-1, 0]) and np.allclose(xi.c, [-0.5])
        assert_same(inverse(xi), x)
        assert_same(multiply(H1.form, x, xi), identity(H1.form))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(H1.form, elem(H1.form, [1, 0], [0]), elem(H2.form, [0, 0, 0, 0], [0]))

    @settings(max_examples=60, deadline=None)
    @given(element_strategy(4, 1), element_strategy(4, 1), element_strategy(4, 1))
    def test_associativity(self, x, y, z):
        form = H2.form
        left = multiply(form, multiply(form, x, y), z)
        right = multiply(form, x, multiply(form, y, z))
        assert_same(left, right)

    @settings(max_examples=60, deadline=None)
    @given(element_strategy(4, 1), element_strategy(4, 1))
    def test_product_equals_sum_plus_half_bracket(self, x, y):
        # the bracket of (w1, c1) and (w2, c2) is (0, form(w1, w2))
        form = H2.form
        z = multiply(form, x, y)
        assert np.allclose(z.w, x.w + y.w, atol=1e-12)
        assert np.allclose(z.c, x.c + y.c + 0.5 * form.pair(x.w, y.w), atol=1e-12)


class TestBracket:
    def test_h3_hand_example(self):
        assert np.array_equal(H1.form.pair([1.0, 0.0], [0.0, 1.0]), [1.0])

    def test_antisymmetry(self):
        x, y = np.array([1.5, -2.0]), np.array([0.5, 1.0])
        assert np.array_equal(H1.form.pair(x, x), [0.0])
        assert np.array_equal(H1.form.pair(x, y), -H1.form.pair(y, x))


class TestDilation:
    # (w, c) -> (lam w, lam^2 c) is an automorphism of the group law

    @settings(max_examples=40, deadline=None)
    @given(element_strategy(2, 1), element_strategy(2, 1),
           st.floats(min_value=0.1, max_value=8, allow_nan=False))
    def test_automorphism(self, x, y, lam):
        form = H1.form
        lhs = multiply(form, GroupElement(lam * x.w, lam**2 * x.c),
                       GroupElement(lam * y.w, lam**2 * y.c))
        z = multiply(form, x, y)
        assert np.allclose(lhs.w, lam * z.w, atol=1e-10)
        assert np.allclose(lhs.c, lam**2 * z.c, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(element_strategy(2, 1), st.floats(min_value=0.1, max_value=8, allow_nan=False))
    def test_norm_homogeneity(self, x, lam):
        assert homogeneous_norm(GroupElement(lam * x.w, lam**2 * x.c)) == pytest.approx(
            lam * homogeneous_norm(x), rel=1e-10, abs=1e-12
        )


class TestNorms:
    def test_values(self):
        assert homogeneous_norm(identity(H1.form)) == 0.0
        assert homogeneous_norm(elem(H1.form, [3, 4], [0])) == pytest.approx(5.0)
        assert homogeneous_norm(elem(H1.form, [0, 0], [4])) == pytest.approx(2.0)
        assert np.linalg.norm(elem(H1.form, [0, 0], [4]).coords()) == pytest.approx(4.0)


class TestProjection:
    def test_h3_rank_one_fails_hormander(self):
        with pytest.raises(HormanderError):
            curvature_constants(H1.form.restrict(1))
        curvature_constants(H1.form.restrict(2))

    @pytest.mark.parametrize("m", [0, 5])
    def test_restrict_rejects_rank_outside_one_to_n(self, m):
        with pytest.raises(ValueError, match="rank"):
            H2.form.restrict(m)

    def test_full_rank_restriction_is_the_form(self):
        assert H2.form.restrict(4) is H2.form

    def test_restriction_is_the_leading_block(self):
        assert np.array_equal(H2.form.restrict(2).coeffs, H1.form.coeffs)
        form = _dense_form(5, 3, 11)
        sub = form.restrict(3)
        assert (sub.n, sub.d) == (3, 3)
        assert np.array_equal(sub.coeffs, form.coeffs[:3, :3])

    @pytest.mark.parametrize("k,j", [(5, 3), (4, 2), (3, 1), (2, 2)])
    def test_restrictions_compose(self, k, j):
        form = _dense_form(5, 3, 11)
        assert np.array_equal(form.restrict(k).restrict(j).coeffs, form.restrict(j).coeffs)

    def test_leading_coordinates_multiply_as_the_projection_group(self):
        # elements supported on the first m coordinates form a copy of the
        # rank-m projection group; the pair (w3, w4) of heisenberg(2) is outside it
        form, sub = H2.form, H2.form.restrict(2)
        x = elem(form, [0.3, -1.2, 0, 0], [0.5])
        y = elem(form, [0.7, 0.4, 0, 0], [-0.1])
        full = multiply(form, x, y)
        lead = multiply(sub, elem(sub, x.w[:2], x.c), elem(sub, y.w[:2], y.c))
        assert np.array_equal(full.w[:2], lead.w) and np.all(full.w[2:] == 0.0)
        assert np.array_equal(full.c, lead.c)


class TestPresets:
    def test_heisenberg_one(self):
        form = H1.form
        assert (form.n, form.d) == (2, 1)
        assert form.coeffs[0, 1, 0] == 1.0 and form.coeffs[1, 0, 0] == -1.0

    def test_block_sum(self):
        p = make_preset("block_sum", weights=[1, 1])
        assert (p.form.n, p.form.d) == (4, 2)
        assert p.form.coeffs[0, 1, 0] == 1.0
        assert p.form.coeffs[2, 3, 1] == 1.0
        assert p.form.coeffs[0, 1, 1] == 0.0

    def test_wiener_truncation_weights(self):
        p = make_preset("wiener_truncation", pairs=3, s=2)
        got = [p.form.coeffs[2 * j, 2 * j + 1, 0] for j in range(3)]
        assert got == pytest.approx([1.0, 0.25, 1.0 / 9.0])

    def test_wiener_truncation_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            make_preset("wiener_truncation", pairs=3, s=1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_preset("not_a_preset")

    def test_catalog_presets_are_valid(self):
        for _, _, preset in preset_catalog():
            form = preset.form
            assert np.allclose(form.coeffs, -np.transpose(form.coeffs, (1, 0, 2)))
            curvature_constants(form)     # raises HormanderError on a rank failure


def _dense_form(n, d, seed):
    a = np.random.default_rng(seed).standard_normal((n, n, d))
    return OmegaForm(n, d, a - np.transpose(a, (1, 0, 2)))


PAIR_FORMS = [pytest.param(p.form, id=p.name) for _, _, p in preset_catalog()] + [
    pytest.param(_dense_form(5, 3, 11), id="dense(5,3)")]


def _pair_by_definition(form, u, v):
    """sum_ij u_i v_j coeffs[i, j, l] by an explicit loop over i, j and l,
    with the absolute sum of its terms, the scale of its round-off."""
    shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (form.d,)
    out, scale = np.zeros(shape), np.zeros(shape)
    for i in range(form.n):
        for j in range(form.n):
            for l in range(form.d):
                term = u[..., i] * v[..., j] * form.coeffs[i, j, l]
                out[..., l] += term
                scale[..., l] += np.abs(term)
    return out, scale


class TestPair:
    @pytest.mark.parametrize("form", PAIR_FORMS)
    @pytest.mark.parametrize("u_lead,v_lead", [((), (6,)), ((6,), (6,)),
                                               ((6, 5), (6, 5))])
    def test_matches_the_definition(self, form, u_lead, v_lead):
        rng = np.random.default_rng(form.n * form.d)
        u = rng.standard_normal(u_lead + (form.n,))
        v = rng.standard_normal(v_lead + (form.n,))
        got = form.pair(u, v)
        ref, scale = _pair_by_definition(form, u, v)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize("form", PAIR_FORMS)
    def test_translate_endpoints_is_a_broadcast_product(self, form):
        # multiply_arrays left-translates N endpoints by one element x
        rng = np.random.default_rng(form.n + 7)
        x = GroupElement(rng.standard_normal(form.n), rng.standard_normal(form.d))
        W, C = rng.standard_normal((9, form.n)), rng.standard_normal((9, form.d))
        tw, tc = multiply_arrays(form, x.w, x.c, W, C)
        rw, rc = multiply_arrays(form, np.broadcast_to(x.w, W.shape),
                                 np.broadcast_to(x.c, C.shape), W, C)
        assert np.array_equal(tw, rw)
        assert np.allclose(tc, rc, rtol=1e-14, atol=0.0)


def _running_integral_by_definition(form, B):
    """Running left-point sums of form(B_k, B_{k+1}) with a zero row 0, by
    the explicit loop of ``_pair_by_definition``, and the running absolute
    sums of their terms."""
    steps, scale = _pair_by_definition(form, B[..., :-1, :], B[..., 1:, :])
    zero = np.zeros(B.shape[:-2] + (1, form.d))
    return (np.concatenate([zero, np.cumsum(steps, axis=-2)], axis=-2),
            np.concatenate([zero, np.cumsum(scale, axis=-2)], axis=-2))


def _random_positions(form, lead, K):
    rng = np.random.default_rng(form.n * form.d + K)
    return rng.standard_normal(lead + (K + 1, form.n)).cumsum(axis=-2)


class TestPathIntegral:
    @pytest.mark.parametrize("form", PAIR_FORMS)
    @pytest.mark.parametrize("lead", [(), (4,), (3, 2)])
    def test_matches_the_definition(self, form, lead):
        B = _random_positions(form, lead, 30)
        ref, scale = _running_integral_by_definition(form, B)
        running = form.running_path_integral(B)
        assert running.shape == B.shape[:-1] + (form.d,)
        assert np.all(running[..., 0, :] == 0.0)
        assert np.all(np.abs(running - ref) <= 1e-13 * scale)
        total = form.path_integral(B)
        assert total.shape == lead + (form.d,)
        assert np.all(np.abs(total - ref[..., -1, :]) <= 1e-13 * scale[..., -1, :])

    @pytest.mark.parametrize("form", PAIR_FORMS)
    def test_one_node_gives_zeros(self, form):
        for lead in [(), (5,)]:
            B = _random_positions(form, lead, 0)
            running = form.running_path_integral(B)
            assert running.shape == lead + (1, form.d) and np.all(running == 0.0)
            total = form.path_integral(B)
            assert total.shape == lead + (form.d,) and np.all(total == 0.0)

    @pytest.mark.parametrize("form", PAIR_FORMS)
    def test_last_running_row_is_the_path_integral(self, form):
        B = _random_positions(form, (6,), 64)
        last = form.running_path_integral(B)[:, -1]
        assert np.allclose(form.path_integral(B), last, rtol=0.0,
                           atol=1e-13 * np.abs(last).max())

    @pytest.mark.parametrize("form", PAIR_FORMS)
    def test_translation_adds_the_pairing_with_the_displacement(self, form):
        # sum_k form(B_k + x, B_{k+1} + x) = sum_k form(B_k, B_{k+1})
        #                                   + form(x, B_K - B_0)
        B = _random_positions(form, (6,), 40)
        x = np.random.default_rng(form.n + 1).standard_normal(form.n)
        got = form.path_integral(B + x)
        want = form.path_integral(B) + form.pair(x, B[:, -1] - B[:, 0])
        scale = _running_integral_by_definition(form, B + x)[1][:, -1]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestBatchedOps:
    def test_matches_scalar_multiply(self):
        rng = np.random.default_rng(3)
        form = H2.form
        w1, c1 = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
        w2, c2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 1))
        wb, cb = multiply_arrays(form, w1, c1, w2, c2)
        for k in range(5):
            z = multiply(form, GroupElement(w1[k], c1[k]), GroupElement(w2[k], c2[k]))
            assert np.allclose(z.w, wb[k]) and np.allclose(z.c, cb[k])


def test_form_rejects_non_antisymmetric():
    coeffs = np.zeros((2, 2, 1))
    coeffs[0, 1, 0] = 1.0
    coeffs[1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        OmegaForm(2, 1, coeffs)
