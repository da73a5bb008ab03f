import numpy as np
import pytest

from heislab.curvature import curvature_constants, hs_norm_sq, vertical_gram
from heislab.groups import HormanderError, OmegaForm, make_preset


def random_form(rng, n, d):
    a = rng.uniform(-1, 1, size=(n, n, d))
    return OmegaForm(n, d, a - np.transpose(a, (1, 0, 2)))


class TestHsNorm:
    def test_heisenberg_pair_count(self):
        form = make_preset("heisenberg", pairs=1).form
        assert hs_norm_sq(form.restrict(2)) == pytest.approx(2.0)

    def test_rank_one_vanishes(self):
        for name, kw in [("heisenberg", {"pairs": 2}), ("block_sum", {"weights": [1, 3]})]:
            form = make_preset(name, **kw).form
            assert hs_norm_sq(form.restrict(1)) == 0.0

    def test_wiener_truncation_value(self):
        form = make_preset("wiener_truncation", pairs=2, s=2).form
        assert hs_norm_sq(form.restrict(4)) == pytest.approx(2 * (1 + 1 / 16))

    def test_monotone_in_rank(self):
        rng = np.random.default_rng(11)
        form = random_form(rng, 7, 3)
        vals = [hs_norm_sq(form.restrict(m)) for m in range(1, 8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestVerticalGram:
    def test_heisenberg(self):
        form = make_preset("heisenberg", pairs=1).form
        assert np.allclose(vertical_gram(form.restrict(2)), [[2.0]])

    def test_block_sum_diagonal(self):
        form = make_preset("block_sum", weights=[1, 1]).form
        assert np.allclose(vertical_gram(form.restrict(4)), [[2.0, 0.0], [0.0, 2.0]])

    def test_zero_restriction(self):
        form = make_preset("block_sum", weights=[1, 1]).form
        assert np.allclose(vertical_gram(form.restrict(1)), 0.0)

    def test_trace_equals_hs_norm(self):
        rng = np.random.default_rng(5)
        form = random_form(rng, 6, 2)
        for m in (2, 4, 6):
            sub = form.restrict(m)
            assert np.trace(vertical_gram(sub)) == pytest.approx(hs_norm_sq(sub))


class TestRho2:
    def test_heisenberg(self):
        form = make_preset("heisenberg", pairs=1).form
        assert curvature_constants(form.restrict(2)).rho2 == pytest.approx(2.0)

    def test_d1_equals_hs_norm(self):
        for name, kw in [
            ("heisenberg", {"pairs": 2}),
            ("wiener_truncation", {"pairs": 4, "s": 2}),
        ]:
            form = make_preset(name, **kw).form
            assert curvature_constants(form).rho2 == pytest.approx(hs_norm_sq(form))

    def test_block_sum_takes_smallest_block(self):
        form = make_preset("block_sum", weights=[1, 3]).form
        assert curvature_constants(form.restrict(4)).rho2 == pytest.approx(2.0)

    def test_degenerate_rank_raises(self):
        form = make_preset("block_sum", weights=[1, 1]).form
        with pytest.raises(HormanderError):
            # first block only: second vertical direction unreachable
            curvature_constants(form.restrict(2))

    def test_bounded_by_hs_norm_on_random_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            form = random_form(rng, 5, 2)
            assert curvature_constants(form).rho2 <= hs_norm_sq(form) + 1e-12

    def test_eigenvalue_below_sampled_minimum(self):
        # random unit vectors only over-estimate the infimum
        rng = np.random.default_rng(23)
        for _ in range(20):
            form = random_form(rng, 5, 3)
            gram = vertical_gram(form)
            xs = rng.normal(size=(10000, 3))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            sampled = np.einsum("ki,ij,kj->k", xs, gram, xs).min()
            assert curvature_constants(form).rho2 <= sampled + 1e-9


class TestHarnackCoeff:
    def test_heisenberg(self):
        form = make_preset("heisenberg", pairs=1).form
        assert curvature_constants(form.restrict(2)).harnack_coeff == pytest.approx(3.0)

    def test_d1_presets_give_three(self):
        for name, kw in [
            ("heisenberg", {"pairs": 3}),
            ("wiener_truncation", {"pairs": 8, "s": 2}),
        ]:
            form = make_preset(name, **kw).form
            assert curvature_constants(form).harnack_coeff == pytest.approx(3.0)

    def test_block_sum_value(self):
        form = make_preset("block_sum", weights=[1, 3]).form
        assert curvature_constants(form.restrict(4)).harnack_coeff == pytest.approx(21.0)

    def test_at_least_three(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            form = random_form(rng, 5, 2)
            assert curvature_constants(form).harnack_coeff >= 3.0 - 1e-12


def test_constants_bundle():
    form = make_preset("heisenberg", pairs=1).form
    c = curvature_constants(form)
    assert (c.hs_norm_sq, c.rho2, c.harnack_coeff) == pytest.approx((2.0, 2.0, 3.0))
    assert np.trace(c.gram) == pytest.approx(c.hs_norm_sq)
    d = c.as_dict()
    assert d["gram"] == [[2.0]]


def test_constants_build_one_gram_matrix(monkeypatch):
    import heislab.curvature as curvature

    calls, real = [], curvature.vertical_gram

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(curvature, "vertical_gram", counted)
    form = make_preset("block_sum", weights=[1, 3]).form
    c = curvature_constants(form)
    assert len(calls) == 1
    # the smallest eigenvalue of that matrix, and the rank check
    assert c.rho2 == np.linalg.eigvalsh(c.gram)[0]
    with pytest.raises(HormanderError, match="at rank 2 is singular"):
        curvature_constants(make_preset("block_sum", weights=[1, 1]).form.restrict(2))
