"""Infinitesimal isometries, finite strains, and the expansion identities.

The skew field A of an isometry V is assembled pointwise from the chart
derivatives of V: A t_a = d_{t_a} V on the orthonormal tangent frame, the
normal column is fixed by skewness, and the result is projected onto skew
matrices.  Chart derivatives of assembled fields (A n and the composite
fields downstream) are taken by 4th-order central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, NotAnIsometryError
from .fields import VectorField, domain_widths, fd_partial
from .geometry import SurfacePatch, surface_quadrature

DEFAULT_ISOMETRY_TOL = 1e-8
COMPOSITE_FD_REL_STEP = 1e-3


def tangential_strain(frame, d1_value):
    """sym of the tangential 2x2 minor of the surface gradient of a vector field."""
    G = frame.grad3(d1_value)
    M = frame.tan2(G)
    return 0.5 * (M + M.T)


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
        cols = []
        for t in (fr.t1, fr.t2):
            coeff = fr.metric_inv @ (fr.jac.T @ t)
            cols.append(DV @ coeff)  # directional derivative of V along t
        an = -(cols[0] @ fr.n) * fr.t1 - (cols[1] @ fr.n) * fr.t2
        R = np.column_stack([fr.t1, fr.t2, fr.n])
        A_raw = np.column_stack([cols[0], cols[1], an]) @ R.T
        return 0.5 * (A_raw - A_raw.T)

    def An_at(self, u):
        fr = self.patch.frame(u)
        return self.A_at(u) @ fr.n

    def An_partials(self, u):
        """Chart partials of the field u -> A(u) n(u), shape (3, 2)."""
        steps = self._fd_steps()
        cols = [fd_partial(self.An_at, u, ax, steps[ax], self.patch.domain)
                for ax in (0, 1)]
        return np.stack(cols, axis=-1)

    def grad3_An(self, frame):
        """Ambient surface gradient of An at the given frame."""
        return frame.grad3(self.An_partials(frame.u))


def isometry_residual(patch, V, u):
    """Norm of the symmetric tangential strain of V at one chart point."""
    fr = patch.frame(u)
    S = tangential_strain(fr, V.d1(fr.u))
    return float(np.linalg.norm(S))


def build_isometry(patch, V, tol=DEFAULT_ISOMETRY_TOL, quad=None):
    """Check that V is an infinitesimal isometry and wrap it with its A field.

    Raises NotAnIsometryError naming the worst node when the symmetric
    tangential strain exceeds tol anywhere on the quadrature grid.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    worst_u, worst_r = None, 0.0
    for node in quad.nodes:
        r = isometry_residual(patch, V, node.frame.u)
        if not np.isfinite(r):
            raise EvaluationError(
                f"displacement field not finite at u={tuple(node.frame.u)}")
        if r > worst_r:
            worst_u, worst_r = node.frame.u, r
    if worst_r > tol:
        raise NotAnIsometryError(
            f"sym tangential gradient of V reaches {worst_r:.3e} > tol={tol:.1e} "
            f"at u={tuple(worst_u)}", u=worst_u, residual=worst_r)
    return IsometryField(patch=patch, displacement=V, tol=tol)


@dataclass(frozen=True)
class StrainField:
    """A finite-strain input B_tan, usually generated as sym grad of a field w."""

    b_tan: Callable  # frame -> symmetric 2x2 in the (t1, t2) frame
    generator: Optional[VectorField] = None

    def __call__(self, frame):
        B = np.asarray(self.b_tan(frame), dtype=float)
        return 0.5 * (B + B.T)

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

def grad3_gamma_n(frame, thick):
    """Ambient surface gradient of the field (g2 - g1) n."""
    gamma = thick.gamma(frame.u)
    dgamma = thick.gamma_d(frame.u)
    Dn = frame.shape_op @ frame.jac                 # chart partials of the normal
    partials = np.outer(frame.n, dgamma) + gamma * Dn
    return frame.grad3(partials)


def bending_matrix(iso, frame):
    """The ambient 3x3 matrix grad(A n) - A Pi at one frame."""
    return iso.grad3_An(frame) - iso.A_at(frame.u) @ frame.shape_op


def bending_tensor(iso, patch):
    """Tangential minor of grad(A n) - A Pi, symmetrized; frame -> 2x2."""

    def tensor(fr):
        Mt = fr.tan2(bending_matrix(iso, fr))
        return 0.5 * (Mt + Mt.T)

    return tensor


def stretching_tensor(iso, strain, thick, kappa, patch):
    """B_tan - (kappa/2)(A^2)_tan - (1/2) sym(A grad((g2-g1) n))_tan; frame -> 2x2."""
    if kappa < 0.0 or not np.isfinite(kappa):
        raise EvaluationError("kappa must be finite and nonnegative")

    def tensor(fr):
        out = np.array(strain(fr), dtype=float)
        if kappa != 0.0:
            A = iso.A_at(fr.u)
            out = out - 0.5 * kappa * fr.tan2(A @ A)
        gamma = thick.gamma(fr.u)
        dgamma = thick.gamma_d(fr.u)
        if gamma != 0.0 or np.any(dgamma != 0.0):
            AG = iso.A_at(fr.u) @ grad3_gamma_n(fr, thick)
            T = fr.tan2(AG)
            out = out - 0.25 * (T + T.T)
        return 0.5 * (out + out.T)

    return tensor


# ---------------------------------------------------------------------------
# numerical verification of the expansion identities
# ---------------------------------------------------------------------------

def _phi_tilde_partial(fr, thick, h, i):
    """d/du_i of the geometric mid-surface map id + (h/2)(g2-g1) n."""
    gamma = thick.gamma(fr.u)
    dgamma = thick.gamma_d(fr.u)
    dn = fr.shape_op @ fr.jac[:, i]
    return fr.jac[:, i] + 0.5 * h * (dgamma[i] * fr.n + gamma * dn)


def stretching_expansion_residual(patch, iso, w, thick, h, quad=None):
    """Max-node defect of the second-order first-fundamental-form expansion.

    Compares |d_tau phi|^2 - |d_tau phi_tilde|^2 for phi = phi_tilde + hV + h^2 w
    against 2 h^2 tau^T (sym grad w - A^2/2 - sym(A grad((g2-g1)n))/2) tau on
    both chart tangents.  Exact when w = 0; O(h^3) otherwise.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    V = iso.displacement
    worst = 0.0
    for node in quad.nodes:
        fr = node.frame
        A = iso.A_at(fr.u)
        Gw = fr.grad3(w.d1(fr.u))
        AG = A @ grad3_gamma_n(fr, thick)
        M = 0.5 * (Gw + Gw.T) - 0.5 * (A @ A) - 0.25 * (AG + AG.T)
        DV = V.d1(fr.u)
        Dw = w.d1(fr.u)
        for i in (0, 1):
            tau = fr.jac[:, i]
            dpt = _phi_tilde_partial(fr, thick, h, i)
            dp = dpt + h * DV[:, i] + h * h * Dw[:, i]
            lhs = float(dp @ dp - dpt @ dpt)
            rhs = 2.0 * h * h * float(tau @ M @ tau)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _deformed_chart_shape_coeffs(patch, partials_fn, u, fd_step, orient_n):
    """Coefficient matrix C of the shape operator of a deformed chart.

    partials_fn(u) returns the (3, 2) chart partials of the deformed chart;
    the deformed normal is the normalized column cross product, oriented to
    orient_n, and differentiated by central differences with step fd_step.
    C satisfies Pi (d_i Y) = sum_j C[j, i] (d_j Y).
    """

    def normal_at(v):
        P = partials_fn(v)
        nrm = np.cross(P[:, 0], P[:, 1])
        nrm /= np.linalg.norm(nrm)
        if nrm @ orient_n < 0.0:
            nrm = -nrm
        return nrm

    cols = []
    for ax in (0, 1):
        e = np.zeros(2)
        e[ax] = fd_step
        cols.append((normal_at(u + e) - normal_at(u - e)) / (2.0 * fd_step))
    Dn = np.stack(cols, axis=-1)
    P = partials_fn(u)
    G = P.T @ P
    return np.linalg.solve(G, P.T @ Dn)


def bending_expansion_residual(patch, iso, thick, h, quad=None, fd_step=1e-5):
    """Max-node defect of the first-order second-fundamental-form expansion.

    Both shape operators are pulled back through their chart jacobians and
    compared in the chart frame of the undeformed patch; the deformed shape
    operator is computed numerically from the deformed chart phi^h o chart.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    V = iso.displacement
    worst = 0.0
    for node in quad.nodes:
        fr = node.frame

        def tilde_partials(v):
            f2 = patch.frame(v)
            return np.stack([_phi_tilde_partial(f2, thick, h, i) for i in (0, 1)],
                            axis=-1)

        def full_partials(v):
            f2 = patch.frame(v)
            DV = V.d1(f2.u)
            return np.stack(
                [_phi_tilde_partial(f2, thick, h, i) + h * DV[:, i] for i in (0, 1)],
                axis=-1)

        C_full = _deformed_chart_shape_coeffs(patch, full_partials, fr.u, fd_step, fr.n)
        C_tilde = _deformed_chart_shape_coeffs(patch, tilde_partials, fr.u, fd_step, fr.n)
        dAn = iso.An_partials(fr.u)
        A = iso.A_at(fr.u)
        for i in (0, 1):
            lhs = fr.jac @ (C_full - C_tilde)[:, i]
            rhs = h * (dAn[:, i] - A @ (fr.shape_op @ fr.jac[:, i]))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def midsurface_strain_deficit(patch, iso, thick, h, quad=None):
    """First-order isometry deficit of V on the geometric mid-surface.

    |d_tau V . d_tau phi_tilde + (h/2) tau^T sym(A grad((g2-g1) n)) tau|,
    maximized over nodes and chart tangents.  Zero in exact arithmetic.
    """
    if quad is None:
        quad = surface_quadrature(patch)
    V = iso.displacement
    worst = 0.0
    for node in quad.nodes:
        fr = node.frame
        A = iso.A_at(fr.u)
        AG = A @ grad3_gamma_n(fr, thick)
        DV = V.d1(fr.u)
        for i in (0, 1):
            tau = fr.jac[:, i]
            dpt = _phi_tilde_partial(fr, thick, h, i)
            lhs = float(DV[:, i] @ dpt)
            worst = max(worst, abs(lhs + 0.5 * h * float(tau @ AG @ tau)))
    return worst
