import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.polynomials import PolynomialFunction, constant, random_polynomial

X0, X1 = PolynomialFunction(2, {(1, 0): 1.0}), PolynomialFunction(2, {(0, 1): 1.0})


def poly_strategy(nvars=3, max_degree=3):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_degree) for _ in range(nvars)])
    coeff = st.floats(min_value=-2, max_value=2, allow_nan=False)
    return st.dictionaries(exps, coeff, max_size=6).map(
        lambda terms: PolynomialFunction(nvars, terms)
    )


@settings(max_examples=50, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_sum_evaluates_pointwise(f, g):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(4, 3))
    assert np.allclose((f + g)(pts), f(pts) + g(pts), atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_product_evaluates_pointwise(f, g):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(4, 3))
    assert np.allclose((f * g)(pts), f(pts) * g(pts), rtol=1e-9, atol=1e-9)


def test_known_partial_derivatives():
    f = X0 * X0 * X1 + 3 * X1  # x0^2 x1 + 3 x1
    assert f.partial(0) == 2 * (X0 * X1)
    assert f.partial(1) == X0 * X0 + constant(2, 3.0)
    assert f.partial(0).partial(0) == 2 * X1


def test_partials_commute():
    rng = np.random.default_rng(3)
    f = random_polynomial(4, 5, rng, terms=12)
    for a in range(4):
        for b in range(4):
            assert f.partial(a).partial(b) == f.partial(b).partial(a)


def test_shift_mul_matches_general_product():
    rng = np.random.default_rng(4)
    f = random_polynomial(3, 4, rng, terms=10)
    assert f.shift_mul(1, 2.5) == f * PolynomialFunction(3, {(0, 1, 0): 2.5})


def test_no_zero_coefficients_stored():
    f = PolynomialFunction(2, {(1, 0): 1.0, (0, 1): 0.0})
    assert (0, 1) not in f.terms
    assert (f - f).terms == {}
    assert (f - f).is_zero()


def test_scalar_arithmetic():
    x0 = PolynomialFunction(1, {(1,): 1.0})
    f = 2 * x0 + 1
    assert f(np.array([3.0])) == pytest.approx(7.0)
    assert (1 - x0)(np.array([0.25])) == pytest.approx(0.75)
    assert (f * 0).is_zero()


def test_random_polynomial_respects_caps():
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = random_polynomial(4, 4, rng, terms=9, coeff_range=(-2, 2))
        assert max(map(sum, f.terms), default=0) <= 4
        assert all(abs(c) <= 2 * 9 for c in f.terms.values())


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        X0 + PolynomialFunction(3, {(1, 0, 0): 1.0})


def test_batch_and_single_evaluation_agree():
    rng = np.random.default_rng(6)
    f = random_polynomial(3, 4, rng, terms=8)
    pts = rng.uniform(-2, 2, size=(5, 3))
    batch = f(pts)
    singles = [f(p) for p in pts]
    assert np.allclose(batch, singles)
