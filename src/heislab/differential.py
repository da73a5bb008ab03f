"""Exact calculus of left-invariant fields on polynomial test functions.

Variables are ordered (w_1..w_n, c_1..c_d).  The horizontal field attached to
the i-th basis direction acts as

    X_i f = d/dw_i f + 0.5 * sum_l (sum_k w_k coeffs[k,i,l]) d/dc_l f,

the vertical fields are the plain d/dc_l, and the carre du champ Gamma, its
vertical variant Gamma^Z and their iterated forms are built from these.
Because test functions are polynomials, the curvature-dimension terms of
``cd_terms`` are exact polynomials, evaluated only at the end.  The
operators of the rank-m projection group are those of ``form.restrict(m)``,
on polynomials in m + d variables.
"""

from __future__ import annotations

import numpy as np

from .groups import OmegaForm
from .curvature import CurvatureConstants
from .polynomials import PolynomialFunction, constant
from .records import VerificationRecord, coords_str

__all__ = [
    "horizontal_field", "vertical_field", "sublaplacian",
    "gamma", "gamma_z", "cd_terms", "check_cd_inequality",
]

CD_RTOL = 1e-8


def _zero(form) -> PolynomialFunction:
    return constant(form.n + form.d, 0.0)


def horizontal_field(form: OmegaForm, i: int, f: PolynomialFunction) -> PolynomialFunction:
    """Left-invariant horizontal derivative in direction i (0-based)."""
    n, d = form.n, form.d
    out = f.partial(i)
    for l in range(d):
        g = f.partial(n + l)
        if g.is_zero():
            continue
        for k in range(n):
            cf = form.coeffs[k, i, l]
            if cf != 0.0:
                out = out + g.shift_mul(k, 0.5 * cf)
    return out


def vertical_field(form: OmegaForm, l: int, f: PolynomialFunction) -> PolynomialFunction:
    """Left-invariant vertical derivative d/dc_l (the field is constant)."""
    return f.partial(form.n + l)


def sublaplacian(form: OmegaForm, f: PolynomialFunction):
    """Sum of squares of the horizontal fields."""
    out = _zero(form)
    for i in range(form.n):
        out = out + horizontal_field(form, i, horizontal_field(form, i, f))
    return out


def _carre(form, field, count, f, g) -> PolynomialFunction:
    """sum_i (V_i f)(V_i g) over the ``count`` fields V_i = field(form, i, .)."""
    g = f if g is None else g
    out = _zero(form)
    for i in range(count):
        vf = field(form, i, f)
        vg = vf if g is f else field(form, i, g)
        out = out + vf * vg
    return out


def gamma(form, f, g=None) -> PolynomialFunction:
    """Horizontal carre du champ: sum_i (X_i f)(X_i g)."""
    return _carre(form, horizontal_field, form.n, f, g)


def gamma_z(form, f, g=None) -> PolynomialFunction:
    """Vertical carre du champ: sum_l (Z_l f)(Z_l g)."""
    return _carre(form, vertical_field, form.d, f, g)


def _iterated(form, carre, f, lf, carre_f) -> PolynomialFunction:
    """The iterated form 0.5*(L carre(f) - 2 carre(f, Lf)) of the carre du
    champ ``carre`` (``gamma`` or ``gamma_z``), given lf = L f and carre_f =
    carre(f)."""
    cross = carre(form, f, lf)
    return (sublaplacian(form, carre_f) - cross - cross) * 0.5


def cd_terms(form, f):
    """The four polynomials entering the curvature-dimension margin.

    Returns (Gamma_2, Gamma_2^Z, Gamma^Z, Gamma) of f, with L f, Gamma(f) and
    Gamma^Z(f) each built once; computing them once per test function lets
    callers sweep points and coupling constants cheaply.
    """
    lf = sublaplacian(form, f)
    g, gz = gamma(form, f), gamma_z(form, f)
    return _iterated(form, gamma, f, lf, g), _iterated(form, gamma_z, f, lf, gz), gz, g


def check_cd_inequality(form, f, points, nu_grid, constants: CurvatureConstants,
                        vertical_coeff: float, record_id="cd-inequality") -> list:
    """Pointwise curvature-dimension margins of f at points, for each coupling nu.

    ``points`` holds one row (w, c) per point.  The four polynomials of
    ``cd_terms`` are built once and evaluated at all points in one batch.
    Record ``{record_id}-x{j}-nu{nu:g}`` carries margin = G2 + nu*G2Z -
    vc*GZ + (hs/nu)*G at point j and coupling nu, points in the outer loop,
    with vc = ``vertical_coeff`` and hs = ``constants.hs_norm_sq``, the
    constants of ``form``; it passes when the margin is above -1e-8 times
    the scale of the terms.  The sharp coefficient is rho2/4 (see ``curvature``).
    """
    for nu in nu_grid:
        if not nu > 0:
            raise ValueError(f"coupling constant must be positive, got {nu}")
    pts = np.asarray(points, dtype=float)
    values = zip(*(t(pts).tolist() for t in cd_terms(form, f)))
    vc = float(vertical_coeff)
    hs = constants.hs_norm_sq
    records = []
    for j, (pt, (t_g2, t_g2z, t_gz, t_g)) in enumerate(zip(pts, values)):
        x = coords_str(pt)
        for nu in nu_grid:
            lhs = t_g2 + nu * t_g2z
            rhs = vc * t_gz - (hs / nu) * t_g
            scale = abs(t_g2) + nu * abs(t_g2z) + vc * abs(t_gz) + (hs / nu) * abs(t_g)
            margin = lhs - rhs
            records.append(VerificationRecord(
                record_id=f"{record_id}-x{j}-nu{nu:g}", rank=form.n, p_or_q=nu, x=x,
                lhs=lhs, rhs=rhs, margin=margin, passed=bool(margin >= -CD_RTOL * scale),
                detail={"scale": scale, "vertical_coeff": vc}))
    return records
