"""Infinitesimal isometries, finite strains, and the expansion identities.

The skew field A of an isometry V is the skew part of grad V + (A n) (x) n,
as grad V maps each tangent vector tau to d_tau V and kills n.  A n needs
neither a tangent frame nor A: skewness gives (A n) . tau = -n . d_tau V, so
A n is minus the surface gradient of n . d_i V, from a `geometry.ChartMetric`,
and A is formed from A n and DV.  The chart partials of A n and of the
deformed normal take the one stencil of `fields`.  `limit_fields` is the
one record of the limit's h-independent fields at a point array; the limit
functional, the recovery deformation and the expansion identities all read
it.  Everything broadcasts over leading batch axes of the frame, so
`build_isometry` and the expansion residuals are array expressions over the
quadrature nodes, and `expansion_data` builds the h-independent part of the
expansion identities once per scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NotAnIsometryError
from .fields import (VectorField, first_point, matvec, outer, stencil_partials, stencil_points,
                     stencil_steps, transpose)
from .fields import fd_partial  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .geometry import NodeFrame, inv2

DEFAULT_ISOMETRY_TOL = 1e-8


def tangential_strain(frame, d1_value):
    """sym of the tangential 2x2 minor of the surface gradient of a vector field."""
    G = frame.grad3(d1_value)
    M = frame.tan2(G)
    return 0.5 * (M + transpose(M))


@dataclass(frozen=True)
class IsometryField:
    """An infinitesimal isometry V with its skew matrix field A = grad V."""

    displacement: VectorField

    def A_at(self, frame, An, DV):
        """A at a frame from A n and DV there: the skew part of grad V + (A n) (x) n."""
        A_raw = frame.grad3(DV) + outer(An, frame.n)
        return 0.5 * (A_raw - transpose(A_raw))

    def An(self, m):
        """(A n, DV) at the points of a ChartMetric m (or a frame), DV the chart
        partials of V: A n = -J g^-1 (DV^T n), as A is skew with A tau = d_tau V."""
        DV = self.displacement.d1(m)
        n = m.n[..., None]
        # DV^T n term by term, in the order of a sum over the axis of n, without the
        # (..., 3, 2) product across the two arrays' memory layouts
        nDV = (n[..., 0, :] * DV[..., 0, :] + n[..., 1, :] * DV[..., 1, :]
               + n[..., 2, :] * DV[..., 2, :])
        return -matvec(m.jac, matvec(m.metric_inv, nDV)), DV


def build_isometry(V, quad):
    """Check that V is an infinitesimal isometry and wrap it with its A field.

    Raises NotAnIsometryError naming the worst node when the symmetric
    tangential strain exceeds DEFAULT_ISOMETRY_TOL anywhere on the quadrature grid.
    """
    fr = quad.frame
    r = np.linalg.norm(tangential_strain(fr, V.d1(fr)), axis=(-2, -1))
    bad = ~np.isfinite(r)
    if np.any(bad):
        raise EvaluationError(f"displacement field not finite at u={first_point(fr.u, bad)}")
    i = np.argmax(r)
    if r[i] > DEFAULT_ISOMETRY_TOL:
        raise NotAnIsometryError(
            f"sym tangential gradient of V reaches {r[i]:.3e} > tol={DEFAULT_ISOMETRY_TOL:.1e} "
            f"at u={tuple(fr.u[i].tolist())}", u=fr.u[i], residual=float(r[i]))
    return IsometryField(displacement=V)


# ---------------------------------------------------------------------------
# the h-independent fields of the limit functional
# ---------------------------------------------------------------------------

def gamma_n_partials(m, dn, thick):
    """Chart partials of the field (g2 - g1) n, shape (..., 3, 2), at the points of
    a ChartMetric m from dn, the chart partials Pi J of the normal there."""
    return outer(m.n, thick.gamma_d(m.u)) + thick.gamma(m.u)[..., None, None] * dn


def bending_matrix(frame, A, An_partials):
    """The ambient 3x3 matrix grad(A n) - A Pi, from A and the chart partials of A n."""
    return frame.grad3(An_partials) - A @ frame.shape_op


def stretching_tensor(frame, A, AG, b_tan, kappa):
    """B_tan - (kappa/2)(A^2)_tan - (1/2) sym(A grad((g2-g1) n))_tan at a frame, 2x2.

    b_tan is the symmetric finite strain B_tan at the frame's points, in
    their tangent frame T; AG is A grad((g2-g1) n) there.
    """
    if kappa < 0.0 or not np.isfinite(kappa):
        raise EvaluationError("kappa must be finite and nonnegative")
    # one tangential minor: tan2 and sym commute, and A^2 is symmetric
    out = np.asarray(b_tan, dtype=float) - frame.tan2((0.5 * kappa) * (A @ A) + 0.5 * AG)
    return 0.5 * (out + transpose(out))


@dataclass(frozen=True)
class LimitFields:
    """The h-independent fields of the limit at a batch of chart points; no material enters."""

    frame: NodeFrame
    DV: np.ndarray              # (..., 3, 2) chart partials of V
    Dw: np.ndarray              # (..., 3, 2) chart partials of w
    Dgamma_n: np.ndarray        # (..., 3, 2) chart partials of (g2 - g1) n
    An: np.ndarray              # (..., 3) A n
    A: np.ndarray               # (..., 3, 3) skew field of the isometry
    AG: np.ndarray              # (..., 3, 3) A grad((g2-g1) n)
    stretching: np.ndarray      # (..., 2, 2) stretching tensor of B_tan = sym grad w
    bending_matrix: np.ndarray  # (..., 3, 3) grad(A n) - A Pi
    bending: np.ndarray         # (..., 2, 2) its symmetrized tangential minor


def limit_fields(iso, w, thick, kappa, frame, An, DV, An_partials):
    """Evaluate the LimitFields of (V, B_tan = sym grad w) at a frame.

    An, DV and An_partials are A n, the chart partials of V and those of A n
    at the frame's points (`IsometryField.An`, `fields.grid_partials`); the
    chart partials of w and of (g2 - g1) n are read once each.
    """
    Dw = w.d1(frame)
    Dgamma_n = gamma_n_partials(frame, frame.dn, thick)
    A = iso.A_at(frame, An, DV)
    AG = A @ frame.grad3(Dgamma_n)
    M = bending_matrix(frame, A, An_partials)
    Mt = frame.tan2(M)
    return LimitFields(
        frame=frame, DV=DV, Dw=Dw, Dgamma_n=Dgamma_n, An=An, A=A, AG=AG,
        stretching=stretching_tensor(frame, A, AG, tangential_strain(frame, Dw), kappa),
        bending_matrix=M, bending=0.5 * (Mt + transpose(Mt)))


# ---------------------------------------------------------------------------
# numerical verification of the expansion identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionData:
    """The h-independent fields of the expansion identities of one scene.

    The limit's own record at the quadrature nodes, at kappa = 1, and the
    arrays over the (axis, offset, N) stencil of `fields.stencil_points`
    that differentiate the deformed normal.
    """

    nodes: LimitFields
    steps: np.ndarray          # (2, N) stencil steps of `fields.stencil_steps`
    stencil_jac: np.ndarray    # (2, 4, N, 3, 2) chart jacobian at the stencil points
    stencil_gamma_n: np.ndarray  # (2, 4, N, 3, 2) chart partials of (g2 - g1) n there
    stencil_DV: np.ndarray     # (2, 4, N, 3, 2) chart partials of V there


def expansion_data(patch, iso, w, thick, quad):
    """Build the fields of the expansion identities that do not depend on h.

    These are the limit's LimitFields at the nodes, at kappa = 1; the
    residual functions below read its stretching tensor and bending matrix
    along the two chart tangents and combine them with powers of h.  One
    ChartMetric, at the stencil points of the nodes, with the chart partials
    Pi J of the normal there, serves the partials of A n and the deformed
    normal; V is differentiated once there, for both, and once at the nodes.
    """
    fr = quad.frame
    d = stencil_steps(fr.u, patch.domain)
    st = patch.metric(stencil_points(fr.u, d))
    An_st, DV_st = iso.An(st)
    _, dn_st = patch.normal_partials(st)
    return ExpansionData(
        nodes=limit_fields(iso, w, thick, 1.0, fr, *iso.An(fr), stencil_partials(An_st, d)),
        steps=d, stencil_jac=st.jac, stencil_gamma_n=gamma_n_partials(st, dn_st, thick),
        stencil_DV=DV_st)


def stretching_expansion_residual(data, h):
    """Max-node defect of the second-order first-fundamental-form expansion.

    Compares |d_tau phi|^2 - |d_tau phi_tilde|^2 for phi = phi_tilde + hV + h^2 w
    against 2 h^2 tau^T S tau on both chart tangents, S the stretching tensor
    sym grad w - A^2/2 - sym(A grad((g2-g1)n))/2.  Exact when w = 0; O(h^3) otherwise.
    A 1-D schedule of h gives one defect per h.
    """
    h = np.asarray(h, dtype=float)
    hm = h.reshape(h.shape + (1, 1, 1))  # against (N, 3, 2)
    nodes = data.nodes
    fr = nodes.frame
    dpt = fr.jac + 0.5 * hm * nodes.Dgamma_n  # of the mid-surface map id + (h/2)(g2-g1) n
    dp = dpt + hm * nodes.DV + hm * hm * nodes.Dw
    lhs = (dp * dp).sum(axis=-2) - (dpt * dpt).sum(axis=-2)
    C = transpose(fr.tangents) @ fr.jac  # the chart tangents in the tangent frame T
    rhs = 2.0 * hm[..., 0] * hm[..., 0] * (C * (nodes.stretching @ C)).sum(axis=-2)
    return np.max(np.abs(lhs - rhs).reshape(h.shape + (-1,)), axis=-1)[()]


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
    Pt = transpose(P)
    G = Pt @ P
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    return inv2(G, det) @ (Pt @ Dn)


def bending_expansion_residual(data, h):
    """Max-node defect of the first-order second-fundamental-form expansion.

    Both shape operators are pulled back through their chart jacobians and
    compared in the chart frame of the undeformed patch; the deformed shape
    operator is computed numerically from the deformed chart phi^h o chart,
    in one call with the geometric chart phi_tilde, stacked after the nodes.
    A 1-D schedule of h gives one defect per h, its charts stacked there too.
    """
    h = np.asarray(h, dtype=float)
    hm = h.reshape(h.shape + (1, 1))
    nodes = data.nodes
    fr = nodes.frame

    def charts(jac, gamma_n, DV):
        # of the deformed and the geometric chart id + (h/2)(g2-g1) n, after the points
        tilde = jac[..., None, :, :] + 0.5 * hm * gamma_n[..., None, :, :]
        return np.stack([tilde + hm * DV[..., None, :, :], tilde], axis=-3)

    C = _deformed_chart_shape_coeffs(
        charts(fr.jac, nodes.Dgamma_n, nodes.DV),
        charts(data.stencil_jac, data.stencil_gamma_n, data.stencil_DV), data.steps,
        fr.n[..., None, None, :])
    lhs = fr.jac[..., None, :, :] @ (C[..., 0, :, :] - C[..., 1, :, :])
    r = np.linalg.norm(lhs - hm * (nodes.bending_matrix @ fr.jac)[..., None, :, :], axis=-2)
    return np.max(np.moveaxis(r, -2, 0).reshape(h.shape + (-1,)), axis=-1)[()]  # r: (N, H, 2)
