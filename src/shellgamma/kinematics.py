"""Infinitesimal isometries, finite strains, and the expansion identities.

The skew field A of an isometry V is the skew part of grad V + (A n) (x) n,
as grad V maps each tangent vector tau to d_tau V and kills n.  A n needs
neither a tangent frame nor A: skewness gives (A n) . tau = -n . d_tau V, so
A n is minus the surface gradient of the chart partials n . d_i V.  Its
chart partials and those of the deformed normal take the one stencil of
`fields`.  The fields and tensors broadcast over leading batch axes of the
frame they are given, so `build_isometry` and the expansion residuals are
array expressions over the quadrature nodes, and the h-independent part of
the expansion identities is built once per scene by `expansion_data`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NotAnIsometryError
from .fields import (VectorField, fd_columns, first_point, outer, stencil_partials,
                     stencil_points, stencil_steps, transpose)
from .fields import fd_partial  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .geometry import NodeFrame, SurfacePatch, inv2

DEFAULT_ISOMETRY_TOL = 1e-8


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
        """A at a frame: the skew part of grad V + (A n) (x) n, as grad V kills n."""
        DV = self.displacement.d1(frame.u)
        A_raw = frame.grad3(DV) + outer(_An(frame, DV), frame.n)
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

def gamma_n_partials(frame, thick):
    """Chart partials of the field (g2 - g1) n, shape (..., 3, 2)."""
    gamma = thick.gamma(frame.u)
    Dn = frame.shape_op @ frame.jac                 # chart partials of the normal
    return outer(frame.n, thick.gamma_d(frame.u)) + gamma[..., None, None] * Dn


def grad3_gamma_n(frame, thick):
    """Ambient surface gradient of the field (g2 - g1) n."""
    return frame.grad3(gamma_n_partials(frame, thick))


def bending_matrix(frame, A, An_partials):
    """The ambient 3x3 matrix grad(A n) - A Pi, from A and the chart partials of A n."""
    return frame.grad3(An_partials) - A @ frame.shape_op


def stretching_tensor(frame, A, AG, b_tan, kappa):
    """B_tan - (kappa/2)(A^2)_tan - (1/2) sym(A grad((g2-g1) n))_tan at a frame, 2x2.

    b_tan is the symmetric finite strain B_tan at the frame's points, in
    their (t1, t2) frame; AG is A grad((g2-g1) n) there
    (`A @ grad3_gamma_n(frame, thick)`).
    """
    if kappa < 0.0 or not np.isfinite(kappa):
        raise EvaluationError("kappa must be finite and nonnegative")
    T = frame.tan2(AG)
    out = (np.asarray(b_tan, dtype=float) - 0.5 * kappa * frame.tan2(A @ A)
           - 0.25 * (T + transpose(T)))
    return 0.5 * (out + transpose(out))


# ---------------------------------------------------------------------------
# numerical verification of the expansion identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionData:
    """The h-independent fields of the expansion identities of one scene.

    Arrays over the quadrature nodes, and over the (axis, offset, N) stencil
    of `fields.stencil_points` that differentiates the deformed normal.
    """

    frame: NodeFrame
    DV: np.ndarray             # (N, 3, 2) chart partials of V
    Dw: np.ndarray             # (N, 3, 2) chart partials of w
    gamma_n: np.ndarray        # (N, 3, 2) chart partials of (g2 - g1) n
    M_tau: np.ndarray          # (N, 2) tau^T S tau, S the stretching tensor of B_tan = sym grad w
    bending: np.ndarray        # (N, 3, 2) (grad(A n) - A Pi) tau, both chart tangents
    steps: np.ndarray          # (2, N) stencil steps of `fields.stencil_steps`
    stencil_jac: np.ndarray    # (2, 4, N, 3, 2) chart jacobian at the stencil points
    stencil_gamma_n: np.ndarray  # (2, 4, N, 3, 2)
    stencil_DV: np.ndarray     # (2, 4, N, 3, 2)


def _phi_tilde_partials(jac, gamma_n, h):
    """Chart partials of the geometric mid-surface map id + (h/2)(g2-g1) n, (..., 3, 2)."""
    return jac + 0.5 * h * gamma_n


def expansion_data(patch, iso, w, thick, quad):
    """Build the fields of the expansion identities that do not depend on h.

    These are the limit's own stretching tensor (of B_tan = sym grad w, at
    kappa = 1) and bending matrix, read along the two chart tangents; the
    residual functions below only combine them with powers of h.  One frame
    call, at the stencil points of the nodes, serves A n and the residuals.
    """
    fr = quad.frame
    A = iso.A_at(fr)
    Dw = w.d1(fr.u)
    gamma_n = gamma_n_partials(fr, thick)
    AG = A @ fr.grad3(gamma_n)
    S = stretching_tensor(fr, A, AG, tangential_strain(fr, Dw), 1.0)
    C = transpose(fr.tangents()) @ fr.jac  # the chart tangents in the (t1, t2) frame
    d = stencil_steps(fr.u, patch.domain)
    st = patch.frame(stencil_points(fr.u, d))
    V = iso.displacement
    return ExpansionData(
        frame=fr, DV=V.d1(fr.u), Dw=Dw, gamma_n=gamma_n,
        M_tau=(C * (S @ C)).sum(axis=-2),
        bending=bending_matrix(fr, A, stencil_partials(iso.An(st), d)) @ fr.jac,
        steps=d, stencil_jac=st.jac, stencil_gamma_n=gamma_n_partials(st, thick),
        stencil_DV=V.d1(st.u))


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


def _deformed_chart_shape_coeffs(P, P_stencil, d, orient_n):
    """Coefficient matrices C of the shape operator of a deformed chart.

    P holds the (..., 3, 2) chart partials of the deformed chart at the
    points, P_stencil the same at their `fields.stencil_points` of steps d;
    axes after the points' batch axes may stack several charts.  The
    deformed normal is the normalized column cross product, oriented to
    orient_n, and differentiated by `fields.stencil_partials`.
    C satisfies Pi (d_i Y) = sum_j C[..., j, i] (d_j Y).
    """
    nrm = np.cross(P_stencil[..., 0], P_stencil[..., 1])
    nrm = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
    nrm = np.where(((nrm * orient_n).sum(axis=-1) < 0.0)[..., None], -nrm, nrm)
    Dn = stencil_partials(nrm, d)
    G = transpose(P) @ P
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    return inv2(G, det) @ (transpose(P) @ Dn)


def bending_expansion_residual(data, h):
    """Max-node defect of the first-order second-fundamental-form expansion.

    Both shape operators are pulled back through their chart jacobians and
    compared in the chart frame of the undeformed patch; the deformed shape
    operator is computed numerically from the deformed chart phi^h o chart,
    in one call with the geometric chart phi_tilde, stacked after the nodes.
    """
    fr = data.frame
    tilde_st = _phi_tilde_partials(data.stencil_jac, data.stencil_gamma_n, h)
    tilde = _phi_tilde_partials(fr.jac, data.gamma_n, h)
    C = _deformed_chart_shape_coeffs(
        np.stack([tilde + h * data.DV, tilde], axis=-3),
        np.stack([tilde_st + h * data.stencil_DV, tilde_st], axis=-3), data.steps,
        fr.n[..., None, :])
    lhs = fr.jac @ (C[..., 0, :, :] - C[..., 1, :, :])
    return float(np.max(np.linalg.norm(lhs - h * data.bending, axis=-2)))
