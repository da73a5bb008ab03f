"""Curvature constants of a projection group.

The constants of the rank-m projection group are those of its form,
``form.restrict(m)``: the squared Hilbert-Schmidt norm

    hs_norm_sq = sum_{i,j} |coeffs[i,j,:]|^2

and the infimum of the associated quadratic over unit vertical vectors,

    rho2 = min_{|x|=1} sum_{i,j} (coeffs[i,j,:] . x)^2,

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

__all__ = ["CurvatureConstants", "hs_norm_sq", "vertical_gram", "curvature_constants"]

# Relative eigenvalue floor below which the form is treated as degenerate;
# everything downstream divides by rho2.
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


def hs_norm_sq(form: OmegaForm) -> float:
    """Squared Hilbert-Schmidt norm of the form."""
    return float(np.sum(form.coeffs * form.coeffs))


def vertical_gram(form: OmegaForm) -> np.ndarray:
    """Symmetric PSD d x d matrix A with A[l,k] = sum_{i,j} w[i,j,l] w[i,j,k]."""
    return np.einsum("ijl,ijk->lk", form.coeffs, form.coeffs)


def curvature_constants(form: OmegaForm) -> CurvatureConstants:
    """hs_norm_sq, rho2, harnack_coeff and the Gram matrix, from one Gram matrix.

    This is the one Hormander rank rule of the package: it raises
    HormanderError when rho2 is zero or negligible relative to the trace,
    since the horizontal directions then fail to generate some vertical
    direction, and every constant divides by rho2.
    """
    gram = vertical_gram(form)
    hs = hs_norm_sq(form)
    r2 = float(np.linalg.eigvalsh(gram)[0])
    trace = float(np.trace(gram))
    if trace <= 0.0 or r2 < RHO2_RTOL * trace:
        raise HormanderError(
            f"vertical Gram matrix at rank {form.n} is singular "
            f"(smallest eigenvalue {r2:.3e}, trace {trace:.3e})"
        )
    return CurvatureConstants(hs, r2, 1.0 + 2.0 * hs / r2, gram)
