"""Parametric surface patches, thickness profiles, and quadrature.

A patch is a single chart over an open parameter rectangle.  The shape
operator follows the convention Pi = grad(n) with the patch's declared
normal orientation, represented as an ambient 3x3 matrix that maps
tangent vectors to tangent vectors and annihilates the normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError, ThicknessError
from .fields import ScalarField, chart_diameter, constant_scalar

DEFAULT_SURFACE_ORDER = 10
DEFAULT_TRANSVERSAL_ORDER = 4
DEFAULT_FD_REL_STEP = 1e-4  # times chart diameter, for shape_operator_fd


@dataclass(frozen=True)
class NodeFrame:
    """Everything the downstream formulas need at one chart point."""

    u: np.ndarray            # (2,) chart parameter
    x: np.ndarray            # (3,) surface point
    jac: np.ndarray          # (3, 2) chart jacobian, columns d(chart)/du_i
    metric: np.ndarray       # (2, 2) first fundamental form J^T J
    metric_inv: np.ndarray   # (2, 2)
    sqrt_det_metric: float
    t1: np.ndarray           # orthonormal tangent frame (Gram-Schmidt of jac)
    t2: np.ndarray
    n: np.ndarray            # (3,) unit normal
    shape_op: np.ndarray     # (3, 3) ambient Pi = grad(n); Pi @ n == 0

    def tan2(self, M):
        """Tangential 2x2 minor of an ambient 3x3 matrix in the (t1, t2) frame."""
        T = np.column_stack([self.t1, self.t2])
        return T.T @ M @ T

    def grad3(self, chart_partials):
        """Ambient surface gradient from chart partials.

        chart_partials has shape (2,) for scalars (returns a (3,) tangent
        vector) or (3, 2) for vector fields (returns a 3x3 matrix that maps
        tangent vectors to the field's directional derivatives and kills n).
        """
        P = np.asarray(chart_partials, dtype=float)
        back = self.metric_inv @ self.jac.T  # (2, 3): ambient tangent -> chart coeffs
        if P.ndim == 1:
            return self.jac @ (self.metric_inv @ P)
        return P @ back


@dataclass(frozen=True)
class SurfacePatch:
    """Chart-based smooth surface with analytic normal and shape operator."""

    chart: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    shape_operator: Callable[[np.ndarray], np.ndarray]  # ambient 3x3
    domain: tuple
    name: str = ""
    principal_curvatures: Callable[[np.ndarray], np.ndarray] | None = None

    def frame(self, u):
        u = np.asarray(u, dtype=float)
        self._check_inside(u)
        x = np.asarray(self.chart(u), dtype=float)
        J = np.asarray(self.chart_jacobian(u), dtype=float)
        g = J.T @ J
        det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        if det_g <= 0.0:
            raise EvaluationError(f"degenerate metric at u={tuple(u)}")
        g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det_g
        t1 = J[:, 0] / np.linalg.norm(J[:, 0])
        t2 = J[:, 1] - (J[:, 1] @ t1) * t1
        t2 = t2 / np.linalg.norm(t2)
        return NodeFrame(u=u, x=x, jac=J, metric=g, metric_inv=g_inv,
                         sqrt_det_metric=math.sqrt(det_g), t1=t1, t2=t2,
                         n=np.asarray(self.normal(u), dtype=float),
                         shape_op=np.asarray(self.shape_operator(u), dtype=float))

    def diameter(self):
        return chart_diameter(self.domain)

    def _check_inside(self, u):
        for ax in (0, 1):
            lo, hi = self.domain[ax]
            if not (lo <= u[ax] <= hi):
                raise DomainError(
                    f"u={tuple(u)} outside chart rectangle axis {ax}: ({lo}, {hi})")


@dataclass(frozen=True)
class ThicknessPair:
    """Relative thickness profiles g1 (below) and g2 (above), in units of h."""

    g1: ScalarField
    g2: ScalarField
    lipschitz_bound: float = 1.0

    def gamma(self, u):
        """Thickness asymmetry g2 - g1."""
        return self.g2.value(u) - self.g1.value(u)

    def gamma_d(self, u):
        return self.g2.d(u) - self.g1.d(u)

    def total(self, u):
        return self.g1.value(u) + self.g2.value(u)

    @staticmethod
    def constant(g1_value, g2_value, domain):
        return ThicknessPair(g1=constant_scalar(g1_value, domain),
                             g2=constant_scalar(g2_value, domain),
                             lipschitz_bound=0.0)


# ---------------------------------------------------------------------------
# builtin patches
# ---------------------------------------------------------------------------

def _plate(extent):
    (a1, b1), (a2, b2) = extent
    J = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    n = np.array([0.0, 0.0, 1.0])

    return SurfacePatch(
        chart=lambda u: np.array([u[0], u[1], 0.0]),
        chart_jacobian=lambda u: J.copy(),
        normal=lambda u: n.copy(),
        shape_operator=lambda u: np.zeros((3, 3)),
        domain=((a1, b1), (a2, b2)),
        name="plate",
        principal_curvatures=lambda u: np.zeros(2),
    )


def _sphere_chart(radius, theta_range, phi_range, name):
    R = float(radius)

    def chart(u):
        th, ph = u
        st, ct = np.sin(th), np.cos(th)
        return R * np.array([st * np.cos(ph), st * np.sin(ph), ct])

    def jac(u):
        th, ph = u
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        return R * np.array([[ct * cp, -st * sp],
                             [ct * sp, st * cp],
                             [-st, 0.0]])

    def normal(u):
        return chart(u) / R

    def shape_operator(u):
        nv = normal(u)
        return (np.eye(3) - np.outer(nv, nv)) / R  # outward normal: Pi = Id/R on T_xS

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(theta_range), tuple(phi_range)),
                        name=name,
                        principal_curvatures=lambda u: np.array([1.0 / R, 1.0 / R]))


def _cylinder(radius, height, angle_range):
    R = float(radius)
    e3 = np.array([0.0, 0.0, 1.0])

    def chart(u):
        return np.array([R * np.cos(u[0]), R * np.sin(u[0]), u[1]])

    def jac(u):
        return np.array([[-R * np.sin(u[0]), 0.0],
                         [R * np.cos(u[0]), 0.0],
                         [0.0, 1.0]])

    def normal(u):
        return np.array([np.cos(u[0]), np.sin(u[0]), 0.0])

    def shape_operator(u):
        nv = normal(u)
        return (np.eye(3) - np.outer(nv, nv) - np.outer(e3, e3)) / R

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(angle_range), (0.0, float(height))),
                        name="cylinder",
                        principal_curvatures=lambda u: np.array([1.0 / R, 0.0]))


def _torus_patch(major_radius, minor_radius, u1_range, u2_range):
    R, r = float(major_radius), float(minor_radius)

    def chart(u):
        a, b = u  # a: angle around the axis, b: angle around the tube
        w = R + r * np.cos(b)
        return np.array([w * np.cos(a), w * np.sin(a), r * np.sin(b)])

    def jac(u):
        a, b = u
        w = R + r * np.cos(b)
        return np.array([[-w * np.sin(a), -r * np.sin(b) * np.cos(a)],
                         [w * np.cos(a), -r * np.sin(b) * np.sin(a)],
                         [0.0, r * np.cos(b)]])

    def normal(u):
        a, b = u
        return np.array([np.cos(b) * np.cos(a), np.cos(b) * np.sin(a), np.sin(b)])

    def curvatures(u):
        b = u[1]
        return np.array([np.cos(b) / (R + r * np.cos(b)), 1.0 / r])

    def shape_operator(u):
        a, b = u
        k1, k2 = curvatures(u)
        e_ring = np.array([-np.sin(a), np.cos(a), 0.0])
        e_tube = np.array([-np.sin(b) * np.cos(a), -np.sin(b) * np.sin(a), np.cos(b)])
        return k1 * np.outer(e_ring, e_ring) + k2 * np.outer(e_tube, e_tube)

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(u1_range), tuple(u2_range)),
                        name="torus_patch",
                        principal_curvatures=curvatures)


def make_builtin_patch(kind, **params):
    """Instantiate a builtin patch with analytic normal and shape operator.

    Kinds and parameters:
      plate        extent=((0,1),(0,1))
      sphere_cap   radius=1, cap_angle in (0, pi/2], azimuth_range=(0, 2pi)
      sphere       radius=1 (full sphere chart, poles/seam excluded from nodes)
      cylinder     radius, height, angle_range=(0, 2pi)
      torus_patch  major_radius, minor_radius, u1_range, u2_range
    """
    if kind == "plate":
        extent = params.pop("extent", ((0.0, 1.0), (0.0, 1.0)))
        _reject_unknown(kind, params)
        _check_range(extent[0], "plate extent[0]")
        _check_range(extent[1], "plate extent[1]")
        return _plate(extent)

    if kind == "sphere_cap":
        radius = params.pop("radius", 1.0)
        cap_angle = params.pop("cap_angle", np.pi / 3)
        azimuth_range = params.pop("azimuth_range", (0.0, 2 * np.pi))
        _reject_unknown(kind, params)
        if radius <= 0:
            raise ParameterError("sphere_cap radius must be positive")
        if not (0.0 < cap_angle <= np.pi / 2):
            raise ParameterError("sphere_cap cap_angle must lie in (0, pi/2]")
        _check_range(azimuth_range, "sphere_cap azimuth_range")
        return _sphere_chart(radius, (0.0, cap_angle), azimuth_range, "sphere_cap")

    if kind == "sphere":
        radius = params.pop("radius", 1.0)
        _reject_unknown(kind, params)
        if radius <= 0:
            raise ParameterError("sphere radius must be positive")
        return _sphere_chart(radius, (0.0, np.pi), (0.0, 2 * np.pi), "sphere")

    if kind == "cylinder":
        radius = params.pop("radius", 1.0)
        height = params.pop("height", 1.0)
        angle_range = params.pop("angle_range", (0.0, 2 * np.pi))
        _reject_unknown(kind, params)
        if radius <= 0 or height <= 0:
            raise ParameterError("cylinder radius and height must be positive")
        _check_range(angle_range, "cylinder angle_range")
        return _cylinder(radius, height, angle_range)

    if kind == "torus_patch":
        R = params.pop("major_radius", 2.0)
        r = params.pop("minor_radius", 0.5)
        u1_range = params.pop("u1_range", (0.0, 2 * np.pi))
        u2_range = params.pop("u2_range", (0.0, 2 * np.pi))
        _reject_unknown(kind, params)
        if r <= 0 or R <= r:
            raise ParameterError("torus needs 0 < minor_radius < major_radius")
        _check_range(u1_range, "torus u1_range")
        _check_range(u2_range, "torus u2_range")
        return _torus_patch(R, r, u1_range, u2_range)

    raise ParameterError(f"unknown patch kind {kind!r}")


def _check_range(rng, label):
    lo, hi = rng
    if not (hi > lo):
        raise ParameterError(f"{label} must be a nonempty interval, got {rng}")


def _reject_unknown(kind, params):
    if params:
        raise ParameterError(f"unknown parameters for {kind}: {sorted(params)}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfNode:
    frame: NodeFrame
    weight: float  # gauss weight times sqrt(det metric)


@dataclass(frozen=True)
class SurfaceQuadrature:
    nodes: List[SurfNode]
    order: int


def gauss_legendre(order, lo, hi):
    """Gauss-Legendre nodes/weights on (lo, hi); `order` is the point count."""
    x, w = np.polynomial.legendre.leggauss(int(order))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def surface_quadrature(patch, order=DEFAULT_SURFACE_ORDER):
    """Tensor Gauss-Legendre rule over the chart rectangle, with area weights."""
    if order < 1:
        raise ParameterError("quadrature order must be >= 1")
    x1, w1 = gauss_legendre(order, *patch.domain[0])
    x2, w2 = gauss_legendre(order, *patch.domain[1])
    nodes = []
    for a, wa in zip(x1, w1):
        for b, wb in zip(x2, w2):
            fr = patch.frame(np.array([a, b]))
            nodes.append(SurfNode(frame=fr, weight=wa * wb * fr.sqrt_det_metric))
    return SurfaceQuadrature(nodes=nodes, order=int(order))


@dataclass(frozen=True)
class TransversalRule:
    """Per-surface-node Gauss rule for the transversal coordinate t in (-g1, g2)."""

    order: int
    ref_nodes: np.ndarray    # on (0, 1)
    ref_weights: np.ndarray

    @staticmethod
    def make(order=DEFAULT_TRANSVERSAL_ORDER):
        if order < 1:
            raise ParameterError("transversal order must be >= 1")
        x, w = gauss_legendre(order, 0.0, 1.0)
        return TransversalRule(order=int(order), ref_nodes=x, ref_weights=w)

    def nodes_at(self, g1_value, g2_value):
        if g1_value <= 0.0 or g2_value <= 0.0:
            raise ParameterError("thickness profiles must be positive")
        length = g1_value + g2_value
        return -g1_value + length * self.ref_nodes, length * self.ref_weights


def integrate_surface(patch, quad, f):
    """Gauss quadrature of a scalar field over the patch, f called with each NodeFrame."""
    total = 0.0
    for node in quad.nodes:
        v = float(f(node.frame))
        if not math.isfinite(v):
            raise EvaluationError(
                f"non-finite integrand value at u={tuple(node.frame.u)}")
        total += node.weight * v
    return total


# ---------------------------------------------------------------------------
# offsets and curvature checks
# ---------------------------------------------------------------------------

def offset_jacobian(patch, u, t):
    """Id + t*Pi (identity on the normal) and its determinant at chart point u.

    t is the physical normal offset.  Raises ThicknessError when the offset
    leaves the thin-shell regime det(Id + t*Pi) <= 0.
    """
    Pi = np.asarray(patch.shape_operator(u), dtype=float)
    M = np.eye(3) + t * Pi
    det = float(np.linalg.det(M))
    if det <= 0.0:
        raise ThicknessError(
            f"det(Id + t*Pi) = {det:.3e} <= 0 at u={tuple(np.asarray(u))}, t={t}")
    return M, det


def shape_operator_fd(patch, u, step=None):
    """Central finite-difference shape operator, as a 2x2 matrix in the (t1, t2) frame.

    Cross-check only; builtin patches carry analytic shape operators.
    """
    u = np.asarray(u, dtype=float)
    if step is None:
        step = DEFAULT_FD_REL_STEP * patch.diameter()
    for ax in (0, 1):
        lo, hi = patch.domain[ax]
        if u[ax] - step < lo or u[ax] + step > hi:
            raise DomainError(
                f"u={tuple(u)} closer than step={step} to chart boundary on axis {ax}")
    fr = patch.frame(u)
    cols = []
    for ax in (0, 1):
        e = np.zeros(2)
        e[ax] = step
        cols.append((np.asarray(patch.normal(u + e)) -
                     np.asarray(patch.normal(u - e))) / (2.0 * step))
    Dn = np.stack(cols, axis=-1)           # (3, 2) chart partials of the normal
    Pi_fd = fr.grad3(Dn)
    return fr.tan2(Pi_fd)


def shape_operator_in_frame(patch, u):
    """Analytic shape operator expressed in the same 2x2 frame as shape_operator_fd."""
    fr = patch.frame(u)
    return fr.tan2(fr.shape_op)


def validate_patch(patch, quad, normal_tol=1e-12, orth_tol=1e-10,
                   metric_tol=1e-10, selfadj_tol=1e-8):
    """Check the SurfacePatch invariants at every quadrature node.

    Raises EvaluationError on the first violation; returns the worst residuals.
    """
    worst = {"normal_norm": 0.0, "normal_orth": 0.0, "metric": 0.0, "selfadj": 0.0}
    for node in quad.nodes:
        fr = node.frame
        r = abs(np.linalg.norm(fr.n) - 1.0)
        worst["normal_norm"] = max(worst["normal_norm"], r)
        if r > normal_tol:
            raise EvaluationError(f"normal not unit at u={tuple(fr.u)}: {r:.2e}")
        r = max(abs(fr.n @ fr.jac[:, 0]), abs(fr.n @ fr.jac[:, 1]))
        worst["normal_orth"] = max(worst["normal_orth"], r)
        if r > orth_tol:
            raise EvaluationError(f"normal not orthogonal to tangents at u={tuple(fr.u)}")
        g_ref = fr.jac.T @ fr.jac
        r = np.linalg.norm(fr.metric - g_ref) / max(1.0, np.linalg.norm(g_ref))
        worst["metric"] = max(worst["metric"], r)
        if r > metric_tol:
            raise EvaluationError(f"metric != J^T J at u={tuple(fr.u)}")
        S = fr.tan2(fr.shape_op)
        r = abs(S[0, 1] - S[1, 0])
        worst["selfadj"] = max(worst["selfadj"], r)
        if r > selfadj_tol:
            raise EvaluationError(f"shape operator not self-adjoint at u={tuple(fr.u)}")
    return worst


def validate_thickness(thick, quad):
    """Positivity and Lipschitz bound of the thickness profiles at the nodes."""
    for node in quad.nodes:
        fr = node.frame
        for name, g in (("g1", thick.g1), ("g2", thick.g2)):
            val = g.value(fr.u)
            if val <= 0.0:
                raise ParameterError(f"{name} = {val} <= 0 at u={tuple(fr.u)}")
            grad = fr.grad3(g.d(fr.u))
            if np.linalg.norm(grad) > thick.lipschitz_bound + 1e-12:
                raise ParameterError(
                    f"surface gradient of {name} exceeds lipschitz_bound at u={tuple(fr.u)}")
