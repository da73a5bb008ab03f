"""Curvature constants of a projection group.

For a form restricted to the first m horizontal coordinates the two constants
are the squared Hilbert-Schmidt norm

    hs_norm_sq = sum_{i,j<=m} |coeffs[i,j,:]|^2

and the infimum of the associated quadratic over unit vertical vectors,

    rho2 = min_{|x|=1} sum_{i,j<=m} (coeffs[i,j,:] . x)^2,

which is the smallest eigenvalue of the d x d Gram matrix of the form.  The
derived coefficient 1 + 2*hs_norm_sq/rho2 is the constant entering every
Harnack-type bound downstream.

rho2 enters the curvature-dimension inequality only as rho2/4:

    Gamma_2 + nu*Gamma_2^Z >= (rho2/4)*Gamma^Z - (hs_norm_sq/nu)*Gamma,

because the antisymmetric part of a horizontal second derivative is half a
bracket.  The coefficient rho2/4 is sharp (for heisenberg(1), rho2 = 2 and the
sharp coefficient is 1/2); the vertical coordinate along the smallest Gram
eigenvector attains it at the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import HormanderError, OmegaForm

__all__ = ["CurvatureConstants", "hs_norm_sq", "vertical_gram", "rho2", "harnack_coeff",
           "curvature_constants"]

# Relative eigenvalue floor below which the restricted form is treated as
# degenerate; everything downstream divides by rho2.
RHO2_RTOL = 1e-10


@dataclass(frozen=True)
class CurvatureConstants:
    hs_norm_sq: float
    rho2: float
    harnack_coeff: float
    gram: np.ndarray

    def as_dict(self):
        return {
            "hs_norm_sq": self.hs_norm_sq,
            "rho2": self.rho2,
            "harnack_coeff": self.harnack_coeff,
            "gram": self.gram.tolist(),
        }


def hs_norm_sq(form: OmegaForm, m: int | None = None) -> float:
    """Squared Hilbert-Schmidt norm of the form restricted to rank m."""
    m = form.n if m is None else m
    _check_rank(form, m)
    block = form.coeffs[:m, :m, :]
    return float(np.sum(block * block))


def vertical_gram(form: OmegaForm, m: int | None = None) -> np.ndarray:
    """Symmetric PSD d x d matrix A with A[l,k] = sum_{i,j<=m} w[i,j,l] w[i,j,k]."""
    m = form.n if m is None else m
    _check_rank(form, m)
    block = form.coeffs[:m, :m, :]
    return np.einsum("ijl,ijk->lk", block, block)


def rho2(form: OmegaForm, m: int | None = None) -> float:
    """Smallest eigenvalue of the vertical Gram matrix (see curvature_constants)."""
    return curvature_constants(form, m).rho2


def harnack_coeff(form: OmegaForm, m: int | None = None) -> float:
    """1 + 2*hs_norm_sq/rho2; always >= 3, with equality iff rho2 = hs_norm_sq."""
    return curvature_constants(form, m).harnack_coeff


def curvature_constants(form: OmegaForm, m: int | None = None) -> CurvatureConstants:
    """hs_norm_sq, rho2, harnack_coeff and the Gram matrix at rank m, from one Gram matrix.

    Raises HormanderError when rho2 is zero or negligible relative to the
    trace, since the restricted horizontal directions then fail to generate
    some vertical direction.
    """
    m = form.n if m is None else m
    gram = vertical_gram(form, m)
    hs = hs_norm_sq(form, m)
    r2 = float(np.linalg.eigvalsh(gram)[0])
    trace = float(np.trace(gram))
    if trace <= 0.0 or r2 < RHO2_RTOL * trace:
        raise HormanderError(
            f"vertical Gram matrix at rank {m} is singular "
            f"(smallest eigenvalue {r2:.3e}, trace {trace:.3e})"
        )
    return CurvatureConstants(hs, r2, 1.0 + 2.0 * hs / r2, gram)


def _check_rank(form: OmegaForm, m: int):
    if not 1 <= m <= form.n:
        raise ValueError(f"rank must be in [1, {form.n}], got {m}")
