"""Curvature constants of a projection group, and the one chain from them to
every heat-semigroup verifier's right-hand side.

The constants of the rank-m projection group are those of its form,
``form.restrict(m)``: the squared Hilbert-Schmidt norm
hs_norm_sq = sum_{i,j} |coeffs[i,j,:]|^2, and
rho2 = min_{|x|=1} sum_{i,j} (coeffs[i,j,:] . x)^2, the smallest eigenvalue of
the d x d Gram matrix of the form.

Time: the package's P_T is exp(T L / 2) (``heat``), so the t of
Baudoin-Garofalo (2011), whose P_t is exp(t L), is T/2 here.

Curvature-dimension: rho2 enters the inequality only as rho2/4,

    Gamma_2 + nu*Gamma_2^Z >= (rho2/4)*Gamma^Z - (hs_norm_sq/nu)*Gamma,

because the antisymmetric part of a horizontal second derivative is half a
bracket.  rho2/4 is sharp: the vertical coordinate along the smallest Gram
eigenvector attains it at the identity (1/2 on heisenberg(1), where rho2 = 2).
``verify-cd`` checks ``vertical_coeff_scale`` * rho2, the nominal rho2 by default.

Right-hand sides: harnack_coeff = 1 + 2*hs_norm_sq/rho2 is Baudoin-Garofalo's
1 + 2*kappa/rho2 at kappa = hs_norm_sq and the nominal rho2.  With d^2 the
squared distance of x and y, g = P_T f or ln P_T f, and core the variance or
entropy of f under the law of x * g_T, the verifiers of ``heat`` check

    reverse Poincare, log-Sobolev  Gamma(g) + rho2*T*Gamma^Z(g) <= (harnack_coeff/T)*core
    Wang-type Harnack   (P_T f)^p(x) <= P_T f^p(y) * exp(harnack_coeff*d^2/(4(p-1)T))
    integrated Harnack  ||p_T(. y^-1)/p_T||_{L^q(p_T)} <= exp(harnack_coeff*q*d^2/(4T))
    strong Feller       |P_T f(x) - P_T f(y)|^2 <= sup(f)^2 * expm1(harnack_coeff*d^2/(2T))

with the constants of ``CurvatureConstants.reverse_weights`` (the pair
(rho2*T, harnack_coeff/T)), ``wang_factor``, ``integrated_harnack_bound`` and
``feller_modulus``.  They are nominal, not derived: they read rho2 for rho2/4
and T for t = T/2, and ROADMAP.md item 1 (findings A-C) shows them unsound, so
a derived chain changes those methods and nothing in ``heat``.
"""

from __future__ import annotations

import math
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
        return {**vars(self), "gram": self.gram.tolist()}

    def reverse_weights(self, T):
        return self.rho2 * T, self.harnack_coeff / T

    def wang_factor(self, dist_sq, p, T):
        return math.exp(self.harnack_coeff * dist_sq / (4.0 * (p - 1.0) * T))

    def integrated_harnack_bound(self, dist_sq, q, T):
        return math.exp(self.harnack_coeff * q * dist_sq / (4.0 * T))

    def feller_modulus(self, dist_sq, T):
        return math.expm1(self.harnack_coeff * dist_sq / (2.0 * T))


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
    if hs <= 0.0 or r2 < RHO2_RTOL * hs:      # hs is the Gram trace
        raise HormanderError(
            f"vertical Gram matrix at rank {form.n} is singular "
            f"(smallest eigenvalue {r2:.3e}, trace {hs:.3e})"
        )
    return CurvatureConstants(hs, r2, 1.0 + 2.0 * hs / r2, gram)
