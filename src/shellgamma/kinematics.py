"""Infinitesimal isometries, finite strains, and the expansion identities.

The skew field A of an isometry V is assembled from the chart derivatives
of V at a frame: A t_a = d_{t_a} V on the orthonormal tangent frame, the
normal column is fixed by skewness, and the result is projected onto skew
matrices.  A n has a formula of its own that needs neither the tangent
frame nor A: skewness gives (A n) . tau = -n . d_tau V, so A n is minus the
surface gradient of the chart partials n . d_i V.  Its chart partials are
4th-order central differences of A n at the stencil frames.  The fields
and tensors broadcast over leading batch axes of the frame they are given,
so `build_isometry` and the expansion residuals are array expressions over
the quadrature nodes, and the h-independent part of the expansion
identities is built once per scene by `expansion_data`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NotAnIsometryError
from .fields import VectorField, fd_columns, first_point, outer, transpose
from .fields import fd_partial  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .geometry import NodeFrame, SurfacePatch

DEFAULT_ISOMETRY_TOL = 1e-8
# central-difference step of the deformed normal in bending_expansion_residual
NORMAL_FD_STEP = 1e-5


def tangential_strain(frame, d1_value):
    """sym of the tangential 2x2 minor of the surface gradient of a vector field."""
    G = frame.grad3(d1_value)
    M = frame.tan2(G)
    return 0.5 * (M + transpose(M))


def _An(frame, DV):
    """A n = -J g^-1 (DV^T n) from the chart partials DV of V at a frame.

    A is skew with A tau = d_tau V, so (A n) . tau = -n . d_tau V and
    (A n) . n = 0.
    """
    return -frame.grad3((frame.n[..., :, None] * DV).sum(axis=-2))


@dataclass(frozen=True)
class IsometryField:
    """An infinitesimal isometry V with its skew matrix field A = grad V."""

    patch: SurfacePatch
    displacement: VectorField

    def A_at(self, frame):
        """The 3x3 skew matrix with A tau = d_tau V on the tangent plane, at a frame."""
        DV = self.displacement.d1(frame.u)
        T = frame.tangents()
        coeff = frame.metric_inv @ (transpose(frame.jac) @ T)
        cols = DV @ coeff  # directional derivatives of V along t1, t2
        R = np.concatenate([T, frame.n[..., None]], axis=-1)
        A_raw = np.concatenate([cols, _An(frame, DV)[..., None]], axis=-1) @ transpose(R)
        return 0.5 * (A_raw - transpose(A_raw))

    def An(self, frame):
        """A n at a frame, with no tangent basis and no A."""
        return _An(frame, self.displacement.d1(frame.u))

    def An_partials(self, u):
        """Chart partials of the field u -> A(u) n(u) at chart points u, shape (..., 3, 2).

        The frames at the stencil points live only inside this call.
        """
        return fd_columns(lambda points: self.An(self.patch.frame(points)), u,
                          self.patch.domain)


def build_isometry(patch, V, quad):
    """Check that V is an infinitesimal isometry and wrap it with its A field.

    Raises NotAnIsometryError naming the worst node when the symmetric
    tangential strain exceeds DEFAULT_ISOMETRY_TOL anywhere on the quadrature grid.
    """
    fr = quad.frame
    r = np.linalg.norm(tangential_strain(fr, V.d1(fr.u)), axis=(-2, -1))
    bad = ~np.isfinite(r)
    if np.any(bad):
        raise EvaluationError(f"displacement field not finite at u={first_point(fr.u, bad)}")
    i = np.argmax(r)
    if r[i] > DEFAULT_ISOMETRY_TOL:
        raise NotAnIsometryError(
            f"sym tangential gradient of V reaches {r[i]:.3e} > tol={DEFAULT_ISOMETRY_TOL:.1e} "
            f"at u={tuple(fr.u[i].tolist())}", u=fr.u[i], residual=float(r[i]))
    return IsometryField(patch=patch, displacement=V)


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


def bending_matrix(frame, A, An_partials):
    """The ambient 3x3 matrix grad(A n) - A Pi, from A and the chart partials of A n."""
    return frame.grad3(An_partials) - A @ frame.shape_op


def stretching_tensor(frame, A, AG, b_tan, thick, kappa):
    """B_tan - (kappa/2)(A^2)_tan - (1/2) sym(A grad((g2-g1) n))_tan at a frame, 2x2.

    b_tan is the symmetric finite strain B_tan at the frame's points, in
    their (t1, t2) frame; AG is A grad((g2-g1) n) there
    (`A @ grad3_gamma_n(frame, thick)`).
    """
    if kappa < 0.0 or not np.isfinite(kappa):
        raise EvaluationError("kappa must be finite and nonnegative")
    out = np.array(b_tan, dtype=float)
    gamma = thick.gamma(frame.u)
    dgamma = thick.gamma_d(frame.u)
    if kappa != 0.0:
        out = out - 0.5 * kappa * frame.tan2(A @ A)
    if np.any(gamma != 0.0) or np.any(dgamma != 0.0):
        T = frame.tan2(AG)
        out = out - 0.25 * (T + transpose(T))
    return 0.5 * (out + transpose(out))


# ---------------------------------------------------------------------------
# numerical verification of the expansion identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionData:
    """The h-independent fields of the expansion identities of one scene.

    Arrays over the quadrature nodes, and over the (sign, axis, N) stencil
    that differentiates the deformed normal.
    """

    frame: NodeFrame
    A: np.ndarray              # (N, 3, 3)
    DV: np.ndarray             # (N, 3, 2) chart partials of V
    Dw: np.ndarray             # (N, 3, 2) chart partials of w
    gamma_n: np.ndarray        # (N, 3, 2) chart partials of (g2 - g1) n
    M_tau: np.ndarray          # (N, 2) tau^T S tau, S the stretching tensor of B_tan = sym grad w
    bending: np.ndarray        # (N, 3, 2) (grad(A n) - A Pi) tau, both chart tangents
    stencil_jac: np.ndarray    # (2, 2, N, 3, 2) chart jacobian at u +- step e_axis
    stencil_gamma_n: np.ndarray  # (2, 2, N, 3, 2)
    stencil_DV: np.ndarray     # (2, 2, N, 3, 2)


def _phi_tilde_partials(jac, gamma_n, h):
    """Chart partials of the geometric mid-surface map id + (h/2)(g2-g1) n, (..., 3, 2)."""
    return jac + 0.5 * h * gamma_n


def expansion_data(patch, iso, w, thick, quad):
    """Build the fields of the expansion identities that do not depend on h.

    These are the limit's own stretching tensor (of B_tan = sym grad w, at
    kappa = 1) and bending matrix, read along the two chart tangents; the
    residual functions below only combine them with powers of h.
    """
    fr = quad.frame
    A = iso.A_at(fr)
    Dw = w.d1(fr.u)
    gamma_n = _gamma_n_partials(fr, thick)
    AG = A @ fr.grad3(gamma_n)
    S = stretching_tensor(fr, A, AG, tangential_strain(fr, Dw), thick, 1.0)
    C = transpose(fr.tangents()) @ fr.jac  # the chart tangents in the (t1, t2) frame
    shifts = np.array([1.0, -1.0])[:, None, None] * (NORMAL_FD_STEP * np.eye(2))
    stencil = fr.u + shifts[..., None, :]            # (sign, axis, N, 2)
    st = patch.frame(stencil)
    V = iso.displacement
    return ExpansionData(
        frame=fr, A=A, DV=V.d1(fr.u), Dw=Dw, gamma_n=gamma_n,
        M_tau=(C * (S @ C)).sum(axis=-2),
        bending=bending_matrix(fr, A, iso.An_partials(fr.u)) @ fr.jac,
        stencil_jac=st.jac, stencil_gamma_n=_gamma_n_partials(st, thick),
        stencil_DV=V.d1(stencil))


def stretching_expansion_residual(data, h):
    """Max-node defect of the second-order first-fundamental-form expansion.

    Compares |d_tau phi|^2 - |d_tau phi_tilde|^2 for phi = phi_tilde + hV + h^2 w
    against 2 h^2 tau^T S tau on both chart tangents, S the stretching tensor
    sym grad w - A^2/2 - sym(A grad((g2-g1)n))/2.  Exact when w = 0; O(h^3) otherwise.
    """
    dpt = _phi_tilde_partials(data.frame.jac, data.gamma_n, h)
    dp = dpt + h * data.DV + h * h * data.Dw
    lhs = (dp * dp).sum(axis=-2) - (dpt * dpt).sum(axis=-2)
    rhs = 2.0 * h * h * data.M_tau
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


def bending_expansion_residual(data, h):
    """Max-node defect of the first-order second-fundamental-form expansion.

    Both shape operators are pulled back through their chart jacobians and
    compared in the chart frame of the undeformed patch; the deformed shape
    operator is computed numerically from the deformed chart phi^h o chart.
    """
    fr = data.frame
    tilde_st = _phi_tilde_partials(data.stencil_jac, data.stencil_gamma_n, h)
    tilde = _phi_tilde_partials(fr.jac, data.gamma_n, h)
    C_full = _deformed_chart_shape_coeffs(tilde + h * data.DV,
                                          tilde_st + h * data.stencil_DV,
                                          NORMAL_FD_STEP, fr.n)
    C_tilde = _deformed_chart_shape_coeffs(tilde, tilde_st, NORMAL_FD_STEP, fr.n)
    lhs = fr.jac @ (C_full - C_tilde)
    rhs = h * data.bending
    return float(np.max(np.linalg.norm(lhs - rhs, axis=-2)))

