"""Exact calculus of left-invariant fields on polynomial test functions.

Variables are ordered (w_1..w_n, c_1..c_d).  The horizontal field attached to
the i-th basis direction acts as

    X_i f = d/dw_i f + 0.5 * sum_l (sum_k w_k coeffs[k,i,l]) d/dc_l f,

the vertical fields are the plain d/dc_l, and all iterated forms (the
carre-du-champ Gamma, its vertical variant, and their second-order versions)
are built from these.  Because test functions are polynomials every identity
check below compares exact coefficient dicts, not samples.
"""

from __future__ import annotations

import numpy as np

from .groups import GroupElement, OmegaForm
from .curvature import hs_norm_sq, rho2
from .polynomials import PolynomialFunction, constant
from .records import VerificationRecord, coords_str

__all__ = [
    "horizontal_field", "vertical_field", "sublaplacian",
    "gamma", "gamma_z", "gamma2", "gamma2_z",
    "cd_terms", "check_cd_inequality", "check_commutation",
    "check_bracket_relation", "check_generator_decomposition",
    "check_gamma_decomposition", "check_gamma2z_sum_of_squares",
]

IDENTITY_RTOL = 1e-9
CD_RTOL = 1e-8


def _zero(form) -> PolynomialFunction:
    return constant(form.n + form.d, 0.0)


def _field_coefficient(form, i, l) -> PolynomialFunction:
    """The polynomial sum_k w_k coeffs[k,i,l] multiplying d/dc_l inside X_i."""
    nvars = form.n + form.d
    terms = {}
    for k in range(form.n):
        cf = form.coeffs[k, i, l]
        if cf != 0.0:
            exps = [0] * nvars
            exps[k] = 1
            terms[tuple(exps)] = cf
    return PolynomialFunction(nvars, terms)


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


def sublaplacian(form: OmegaForm, f: PolynomialFunction, m: int | None = None):
    """Sum of squares of the first m horizontal fields."""
    m = form.n if m is None else m
    out = _zero(form)
    for i in range(m):
        out = out + horizontal_field(form, i, horizontal_field(form, i, f))
    return out


def gamma(form, f, g=None, m: int | None = None) -> PolynomialFunction:
    """Horizontal carre du champ: sum_{i<=m} (X_i f)(X_i g)."""
    g = f if g is None else g
    m = form.n if m is None else m
    out = _zero(form)
    for i in range(m):
        xf = horizontal_field(form, i, f)
        xg = xf if g is f else horizontal_field(form, i, g)
        out = out + xf * xg
    return out


def gamma_z(form, f, g=None) -> PolynomialFunction:
    """Vertical carre du champ: sum_l (Z_l f)(Z_l g)."""
    g = f if g is None else g
    out = _zero(form)
    for l in range(form.d):
        zf = vertical_field(form, l, f)
        zg = zf if g is f else vertical_field(form, l, g)
        out = out + zf * zg
    return out


def gamma2(form, f, g=None, m: int | None = None) -> PolynomialFunction:
    """Iterated form 0.5*(L Gamma(f,g) - Gamma(f, Lg) - Gamma(g, Lf))."""
    g = f if g is None else g
    lf = sublaplacian(form, f, m)
    lg = lf if g is f else sublaplacian(form, g, m)
    out = sublaplacian(form, gamma(form, f, g, m), m)
    out = out - gamma(form, f, lg, m) - gamma(form, g, lf, m)
    return out * 0.5


def gamma2_z(form, f, g=None, m: int | None = None) -> PolynomialFunction:
    """Iterated vertical form 0.5*(L Gamma^Z(f,g) - Gamma^Z(f,Lg) - Gamma^Z(g,Lf))."""
    g = f if g is None else g
    lf = sublaplacian(form, f, m)
    lg = lf if g is f else sublaplacian(form, g, m)
    out = sublaplacian(form, gamma_z(form, f, g), m)
    out = out - gamma_z(form, f, lg) - gamma_z(form, g, lf)
    return out * 0.5


def cd_terms(form, f, m: int | None = None):
    """The four polynomials entering the curvature-dimension margin.

    Returns (gamma2, gamma2_z, gamma_z, gamma) of f; computing them once per
    test function lets callers sweep points and coupling constants cheaply.
    """
    return (
        gamma2(form, f, None, m),
        gamma2_z(form, f, None, m),
        gamma_z(form, f),
        gamma(form, f, None, m),
    )


def check_cd_inequality(form, f, points, nu_grid, m: int | None = None,
                        vertical_coeff: float | None = None) -> list[VerificationRecord]:
    """Pointwise curvature-dimension margins of f at points, for each coupling nu.

    ``points`` holds one row (w, c) per point.  The four polynomials of
    ``cd_terms`` are built once and evaluated at all points in one batch.
    Each record carries margin = G2 + nu*G2Z - vc*GZ + (hs/nu)*G at one
    (point, nu), points in the outer loop, with the vertical coefficient vc
    defaulting to the group constant rho2; it passes when the margin is
    above -1e-8 times the scale of the terms.

    The default nominal rho2 is not a valid curvature-dimension constant: the
    vertical coordinate along the smallest Gram eigenvector has margin
    -3/4*rho2 at the identity.  The sharp coefficient is rho2/4, at which that
    margin is exactly 0; pass vertical_coeff=rho2/4 to check the inequality
    that holds.
    """
    for nu in nu_grid:
        if not nu > 0:
            raise ValueError(f"coupling constant must be positive, got {nu}")
    m = form.n if m is None else m
    pts = np.asarray(points, dtype=float)
    values = zip(*(t(pts).tolist() for t in cd_terms(form, f, m)))
    vc = rho2(form, m) if vertical_coeff is None else float(vertical_coeff)
    hs = hs_norm_sq(form, m)
    records = []
    for pt, (t_g2, t_g2z, t_gz, t_g) in zip(pts, values):
        x = coords_str(pt)
        for nu in nu_grid:
            lhs = t_g2 + nu * t_g2z
            rhs = vc * t_gz - (hs / nu) * t_g
            scale = abs(t_g2) + nu * abs(t_g2z) + vc * abs(t_gz) + (hs / nu) * abs(t_g)
            margin = lhs - rhs
            records.append(VerificationRecord(
                record_id="cd-inequality",
                rank=m,
                p_or_q=nu,
                x=x,
                lhs=lhs,
                rhs=rhs,
                margin=margin,
                passed=bool(margin >= -CD_RTOL * scale),
                detail={"scale": scale, "vertical_coeff": vc},
            ))
    return records


def _identity_record(record_id, lhs_poly, rhs_poly, x=None, rank=0) -> VerificationRecord:
    diff = (lhs_poly - rhs_poly).coeff_norm()
    scale = max(lhs_poly.coeff_norm(), rhs_poly.coeff_norm())
    tol = IDENTITY_RTOL * scale
    rec = VerificationRecord(
        record_id=record_id,
        rank=rank,
        lhs=lhs_poly(x) if x is not None else lhs_poly.coeff_norm(),
        rhs=rhs_poly(x) if x is not None else rhs_poly.coeff_norm(),
        margin=tol - diff,
        passed=bool(diff <= tol),
        detail={"coeff_diff": diff, "coeff_scale": scale},
    )
    if x is not None:
        rec.x = coords_str(x)
    return rec


def check_commutation(form, f, m: int | None = None) -> VerificationRecord:
    """Gamma(f, Gamma^Z(f)) = Gamma^Z(f, Gamma(f)) as exact polynomials."""
    m = form.n if m is None else m
    lhs = gamma(form, f, gamma_z(form, f), m)
    rhs = gamma_z(form, f, gamma(form, f, None, m))
    return _identity_record("commutation", lhs, rhs, rank=m)


def check_bracket_relation(form, i: int, j: int, f,
                           x: GroupElement | None = None) -> VerificationRecord:
    """X_i X_j f - X_j X_i f equals the vertical field of the paired directions."""
    if i == j:
        raise ValueError("bracket relation needs two distinct horizontal indices")
    lhs = horizontal_field(form, i, horizontal_field(form, j, f)) - \
        horizontal_field(form, j, horizontal_field(form, i, f))
    rhs = _zero(form)
    for l in range(form.d):
        cf = form.coeffs[i, j, l]
        if cf != 0.0:
            rhs = rhs + vertical_field(form, l, f) * cf
    pt = x.coords() if x is not None else None
    return _identity_record(f"bracket-relation-{i}-{j}", lhs, rhs, x=pt)


def _pairing_polys(form, j):
    """Polynomials p_l(w) = sum_k w_k coeffs[k,j,l] for l = 1..d."""
    return [_field_coefficient(form, j, l) for l in range(form.d)]


def check_generator_decomposition(form, f, x: GroupElement | None = None,
                                  m: int | None = None) -> VerificationRecord:
    """Sub-Laplacian equals flat Laplacian plus mixed and pure vertical Hessian terms."""
    n, d = form.n, form.d
    m = n if m is None else m
    lhs = sublaplacian(form, f, m)
    rhs = _zero(form)
    for j in range(m):
        rhs = rhs + f.partial(j).partial(j)
    for j in range(m):
        pair = _pairing_polys(form, j)
        for l in range(d):
            if pair[l].is_zero():
                continue
            rhs = rhs + pair[l] * f.partial(n + l).partial(j)
            for k in range(d):
                if not pair[k].is_zero():
                    hess = f.partial(n + l).partial(n + k)
                    if not hess.is_zero():
                        rhs = rhs + (pair[l] * pair[k] * hess) * 0.25
    pt = x.coords() if x is not None else None
    return _identity_record("generator-decomposition", lhs, rhs, x=pt, rank=m)


def check_gamma_decomposition(form, f, g=None, x: GroupElement | None = None,
                              m: int | None = None) -> VerificationRecord:
    """Gamma(f,g) equals the flat gradient pairing plus the mixed and pure terms."""
    n, d = form.n, form.d
    m = n if m is None else m
    g = f if g is None else g
    lhs = gamma(form, f, g, m)
    rhs = _zero(form)
    for j in range(m):
        rhs = rhs + f.partial(j) * g.partial(j)
    for j in range(m):
        pair = _pairing_polys(form, j)
        vf = _zero(form)
        vg = _zero(form)
        for l in range(d):
            if pair[l].is_zero():
                continue
            vf = vf + pair[l] * f.partial(n + l)
            vg = vg + pair[l] * g.partial(n + l)
        rhs = rhs + (vf * vg) * 0.25
        rhs = rhs + (vf * g.partial(j) + vg * f.partial(j)) * 0.5
    pt = x.coords() if x is not None else None
    return _identity_record("gamma-decomposition", lhs, rhs, x=pt, rank=m)


def check_gamma2z_sum_of_squares(form, f, m: int | None = None) -> VerificationRecord:
    """Gamma2^Z(f) equals sum_{j<=m, l} (X_j Z_l f)^2 as exact polynomials."""
    m = form.n if m is None else m
    lhs = gamma2_z(form, f, None, m)
    rhs = _zero(form)
    for j in range(m):
        for l in range(form.d):
            t = horizontal_field(form, j, vertical_field(form, l, f))
            rhs = rhs + t * t
    return _identity_record("gamma2z-sum-of-squares", lhs, rhs, rank=m)
