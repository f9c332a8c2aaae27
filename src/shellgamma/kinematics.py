"""Infinitesimal isometries, finite strains, and the expansion identities.

The skew field A of an isometry V is assembled pointwise from the chart
derivatives of V: A t_a = d_{t_a} V on the orthonormal tangent frame, the
normal column is fixed by skewness, and the result is projected onto skew
matrices.  Chart derivatives of assembled fields (A n and the composite
fields downstream) are taken by 4th-order central differences.  The fields
and tensors broadcast over leading batch axes of the chart parameter (or of
the frame they are given), so `build_isometry` and the expansion residuals
are array expressions over the quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, NotAnIsometryError
from .fields import (VectorField, domain_widths, fd_partial, first_point, matvec,
                     outer, transpose)
from .geometry import SurfacePatch, surface_quadrature

DEFAULT_ISOMETRY_TOL = 1e-8
COMPOSITE_FD_REL_STEP = 1e-3


def tangential_strain(frame, d1_value):
    """sym of the tangential 2x2 minor of the surface gradient of a vector field."""
    G = frame.grad3(d1_value)
    M = frame.tan2(G)
    return 0.5 * (M + transpose(M))


@dataclass(frozen=True)
class IsometryField:
    """An infinitesimal isometry V with its skew matrix field A = grad V."""

    patch: SurfacePatch
    displacement: VectorField
    tol: float = DEFAULT_ISOMETRY_TOL
    fd_rel_step: float = COMPOSITE_FD_REL_STEP

    def _fd_steps(self):
        return self.fd_rel_step * domain_widths(self.patch.domain)

    def A_at(self, u):
        """The 3x3 skew matrix with A tau = d_tau V on the tangent plane."""
        fr = self.patch.frame(u)
        DV = self.displacement.d1(fr.u)
        T = fr.tangents()
        coeff = fr.metric_inv @ (transpose(fr.jac) @ T)
        cols = DV @ coeff  # directional derivatives of V along t1, t2
        an = -matvec(T, matvec(transpose(cols), fr.n))
        R = np.concatenate([T, fr.n[..., None]], axis=-1)
        A_raw = np.concatenate([cols, an[..., None]], axis=-1) @ transpose(R)
        return 0.5 * (A_raw - transpose(A_raw))

    def An_at(self, u):
        return matvec(self.A_at(u), np.asarray(self.patch.normal(u), dtype=float))

    def An_partials(self, u):
        """Chart partials of the field u -> A(u) n(u), shape (3, 2)."""
        steps = self._fd_steps()
        cols = [fd_partial(self.An_at, u, ax, steps[ax], self.patch.domain)
                for ax in (0, 1)]
        return np.stack(cols, axis=-1)

    def grad3_An(self, frame):
        """Ambient surface gradient of An at the given frame."""
        return frame.grad3(self.An_partials(frame.u))


def build_isometry(patch, V, tol=DEFAULT_ISOMETRY_TOL, quad=None):
    """Check that V is an infinitesimal isometry and wrap it with its A field.

    Raises NotAnIsometryError naming the worst node when the symmetric
    tangential strain exceeds tol anywhere on the quadrature grid.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    fr = quad.frame
    r = np.linalg.norm(tangential_strain(fr, V.d1(fr.u)), axis=(-2, -1))
    bad = ~np.isfinite(r)
    if np.any(bad):
        raise EvaluationError(f"displacement field not finite at u={first_point(fr.u, bad)}")
    i = np.argmax(r)
    if r[i] > tol:
        raise NotAnIsometryError(
            f"sym tangential gradient of V reaches {r[i]:.3e} > tol={tol:.1e} "
            f"at u={tuple(fr.u[i].tolist())}", u=fr.u[i], residual=float(r[i]))
    return IsometryField(patch=patch, displacement=V, tol=tol)


@dataclass(frozen=True)
class StrainField:
    """A finite-strain input B_tan, usually generated as sym grad of a field w."""

    b_tan: Callable  # frame -> (..., 2, 2) symmetric, in the (t1, t2) frame of each point
    generator: Optional[VectorField] = None

    def __call__(self, frame):
        B = np.asarray(self.b_tan(frame), dtype=float)
        return 0.5 * (B + transpose(B))

    @staticmethod
    def from_generator(w):
        return StrainField(
            b_tan=lambda fr: tangential_strain(fr, w.d1(fr.u)),
            generator=w)

    @staticmethod
    def from_tensor(func):
        """Directly supplied tensor field; no generator, so no recovery from it."""
        return StrainField(b_tan=func, generator=None)

    @staticmethod
    def zero(domain):
        from .fields import zero_vector_field
        return StrainField.from_generator(zero_vector_field(domain))


# ---------------------------------------------------------------------------
# the two tensors entering the limit functional
# ---------------------------------------------------------------------------

def _gamma_n_partials(frame, thick):
    """Chart partials of the field (g2 - g1) n, shape (..., 3, 2)."""
    gamma = thick.gamma(frame.u)
    Dn = frame.shape_op @ frame.jac                 # chart partials of the normal
    return outer(frame.n, thick.gamma_d(frame.u)) + gamma[..., None, None] * Dn


def grad3_gamma_n(frame, thick):
    """Ambient surface gradient of the field (g2 - g1) n."""
    return frame.grad3(_gamma_n_partials(frame, thick))


def bending_matrix(iso, frame):
    """The ambient 3x3 matrix grad(A n) - A Pi at a frame."""
    return iso.grad3_An(frame) - iso.A_at(frame.u) @ frame.shape_op


def bending_tensor(iso, patch):
    """Tangential minor of grad(A n) - A Pi, symmetrized; frame -> 2x2."""

    def tensor(fr):
        Mt = fr.tan2(bending_matrix(iso, fr))
        return 0.5 * (Mt + transpose(Mt))

    return tensor


def stretching_tensor(iso, strain, thick, kappa, patch):
    """B_tan - (kappa/2)(A^2)_tan - (1/2) sym(A grad((g2-g1) n))_tan; frame -> 2x2."""
    if kappa < 0.0 or not np.isfinite(kappa):
        raise EvaluationError("kappa must be finite and nonnegative")

    def tensor(fr):
        out = np.array(strain(fr), dtype=float)
        gamma = thick.gamma(fr.u)
        dgamma = thick.gamma_d(fr.u)
        thickness_term = np.any(gamma != 0.0) or np.any(dgamma != 0.0)
        if kappa != 0.0 or thickness_term:
            A = iso.A_at(fr.u)
        if kappa != 0.0:
            out = out - 0.5 * kappa * fr.tan2(A @ A)
        if thickness_term:
            T = fr.tan2(A @ grad3_gamma_n(fr, thick))
            out = out - 0.25 * (T + transpose(T))
        return 0.5 * (out + transpose(out))

    return tensor


# ---------------------------------------------------------------------------
# numerical verification of the expansion identities
# ---------------------------------------------------------------------------

def _phi_tilde_partials(frame, thick, h):
    """Chart partials of the geometric mid-surface map id + (h/2)(g2-g1) n, (..., 3, 2)."""
    return frame.jac + 0.5 * h * _gamma_n_partials(frame, thick)


def _tangent_quadratic(frame, M):
    """tau_i^T M tau_i for the two chart tangents tau_i, shape (..., 2)."""
    return (frame.jac * (M @ frame.jac)).sum(axis=-2)


def stretching_expansion_residual(patch, iso, w, thick, h, quad=None):
    """Max-node defect of the second-order first-fundamental-form expansion.

    Compares |d_tau phi|^2 - |d_tau phi_tilde|^2 for phi = phi_tilde + hV + h^2 w
    against 2 h^2 tau^T (sym grad w - A^2/2 - sym(A grad((g2-g1)n))/2) tau on
    both chart tangents.  Exact when w = 0; O(h^3) otherwise.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    fr = quad.frame
    A = iso.A_at(fr.u)
    Dw = w.d1(fr.u)
    Gw = fr.grad3(Dw)
    AG = A @ grad3_gamma_n(fr, thick)
    M = 0.5 * (Gw + transpose(Gw)) - 0.5 * (A @ A) - 0.25 * (AG + transpose(AG))
    dpt = _phi_tilde_partials(fr, thick, h)
    dp = dpt + h * iso.displacement.d1(fr.u) + h * h * Dw
    lhs = (dp * dp).sum(axis=-2) - (dpt * dpt).sum(axis=-2)
    rhs = 2.0 * h * h * _tangent_quadratic(fr, M)
    return float(np.max(np.abs(lhs - rhs)))


def _deformed_chart_shape_coeffs(P, P_stencil, fd_step, orient_n):
    """Coefficient matrices C of the shape operator of a deformed chart.

    P holds the (..., 3, 2) chart partials of the deformed chart at the
    points, P_stencil the same at the points shifted by +fd_step and
    -fd_step along each chart axis, stacked as (sign, axis, ...).  The
    deformed normal is the normalized column cross product, oriented to
    orient_n, and differentiated by central differences.  C satisfies
    Pi (d_i Y) = sum_j C[..., j, i] (d_j Y).
    """
    nrm = np.cross(P_stencil[..., 0], P_stencil[..., 1])
    nrm = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
    nrm = np.where(((nrm * orient_n).sum(axis=-1) < 0.0)[..., None], -nrm, nrm)
    Dn = np.moveaxis((nrm[0] - nrm[1]) / (2.0 * fd_step), 0, -1)
    return np.linalg.solve(transpose(P) @ P, transpose(P) @ Dn)


def bending_expansion_residual(patch, iso, thick, h, quad=None, fd_step=1e-5):
    """Max-node defect of the first-order second-fundamental-form expansion.

    Both shape operators are pulled back through their chart jacobians and
    compared in the chart frame of the undeformed patch; the deformed shape
    operator is computed numerically from the deformed chart phi^h o chart.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    V = iso.displacement
    fr = quad.frame
    shifts = np.array([1.0, -1.0])[:, None, None] * (fd_step * np.eye(2))
    stencil = fr.u + shifts[..., None, :]            # (sign, axis, N, 2)
    tilde_st = _phi_tilde_partials(patch.frame(stencil), thick, h)
    tilde = _phi_tilde_partials(fr, thick, h)
    C_full = _deformed_chart_shape_coeffs(tilde + h * V.d1(fr.u),
                                          tilde_st + h * V.d1(stencil), fd_step, fr.n)
    C_tilde = _deformed_chart_shape_coeffs(tilde, tilde_st, fd_step, fr.n)
    lhs = fr.jac @ (C_full - C_tilde)
    rhs = h * (iso.An_partials(fr.u) - iso.A_at(fr.u) @ (fr.shape_op @ fr.jac))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-2)))


def midsurface_strain_deficit(patch, iso, thick, h, quad=None):
    """First-order isometry deficit of V on the geometric mid-surface.

    |d_tau V . d_tau phi_tilde + (h/2) tau^T sym(A grad((g2-g1) n)) tau|,
    maximized over nodes and chart tangents.  Zero in exact arithmetic.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    fr = quad.frame
    AG = iso.A_at(fr.u) @ grad3_gamma_n(fr, thick)
    lhs = (iso.displacement.d1(fr.u) * _phi_tilde_partials(fr, thick, h)).sum(axis=-2)
    return float(np.max(np.abs(lhs + 0.5 * h * _tangent_quadratic(fr, AG))))
