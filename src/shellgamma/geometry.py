"""Parametric surface patches, thickness profiles, and quadrature.

A patch is a single chart over an open parameter rectangle.  The shape
operator follows the convention Pi = grad(n) with the patch's declared
normal orientation, represented as an ambient 3x3 matrix that maps
tangent vectors to tangent vectors and annihilates the normal.  Patches,
frames and offsets broadcast over leading batch axes of the chart
parameter: u of shape (..., 2) gives a NodeFrame whose fields carry the
same leading axes, and a single point of shape (2,) is the unbatched case.
A frame carries the products its readers need as fields, formed once by
`SurfacePatch.complete`: the orthonormal tangent frame T, which tangential
minors read, the dual basis g^-1 J^T, which surface gradients read, and the
chart partials Pi J of the normal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError, ThicknessError
from .fields import (ScalarField, batch_matrix, batch_vector, constant_scalar,
                     first_point, matvec, outer, transpose)

DEFAULT_SURFACE_ORDER = 10
DEFAULT_TRANSVERSAL_ORDER = 4
# validate_patch tolerances: unit normal, normal orthogonality, metric, self-adjointness
_PATCH_TOLS = (1e-12, 1e-10, 1e-10, 1e-8)


_I3 = np.eye(3)
_ADJ2_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inv2(g, det):
    """Inverse [[g11, -g01], [-g10, g00]] / det of each 2x2 matrix g of determinant det."""
    return transpose(g[..., ::-1, ::-1]) * _ADJ2_SIGN / det[..., None, None]


@dataclass(frozen=True)
class ChartMetric:
    """The chart jacobian, metric and normal at a batch of chart points, all that
    A n reads; every field carries the batch axes of u ahead of its shape."""

    u: np.ndarray            # (2,) chart parameter
    jac: np.ndarray          # (3, 2) chart jacobian, columns d(chart)/du_i
    metric: np.ndarray       # (2, 2) first fundamental form J^T J
    det_metric: np.ndarray   # ()
    metric_inv: np.ndarray   # (2, 2)
    n: np.ndarray            # (3,) unit normal

    def __getitem__(self, index):
        """The record at a subset of the batch (index applies to the batch axes); an
        array index copies each field in its own memory order, as the patch lays it
        out (numpy's batch-first copies slow the recovery bundle's products)."""
        def take(a):
            sub = a[index]
            if np.may_share_memory(sub, a):  # a basic index: the view
                return sub
            out = np.empty_like(a, shape=sub.shape)
            out[...] = sub
            return out
        return type(self)(**{f.name: take(getattr(self, f.name))
                             for f in dataclasses.fields(self)})


@dataclass(frozen=True)
class NodeFrame(ChartMetric):
    """Everything the downstream formulas need at a batch of chart points:
    their ChartMetric completed, with the three products of its fields that
    the formulas read, formed once by `SurfacePatch.complete`."""

    x: np.ndarray            # (3,) surface point
    sqrt_det_metric: np.ndarray  # ()
    shape_op: np.ndarray     # (3, 3) ambient Pi = grad(n); Pi @ n == 0
    tangents: np.ndarray     # (3, 2) T, the orthonormal tangent frame: Gram-Schmidt of jac
    dual: np.ndarray         # (2, 3) g^-1 J^T, rows grad u^1, grad u^2: ambient -> chart coeffs
    dn: np.ndarray           # (3, 2) Pi J, the chart partials of the normal

    def tan2(self, M):
        """Tangential 2x2 minor T^T M T of an ambient 3x3 matrix in the tangent frame T."""
        T = self.tangents
        return transpose(T) @ M @ T

    def grad3(self, chart_partials):
        """Ambient surface gradient from chart partials.

        chart_partials has shape (..., 2) for scalars (returns a (..., 3)
        tangent vector) or (..., 3, 2) for vector fields (returns the 3x3
        matrix P g^-1 J^T that maps tangent vectors to the field's
        directional derivatives and kills n).  Scalars are told apart by
        having the frame's ndim.
        """
        P = np.asarray(chart_partials, dtype=float)
        if P.ndim == self.u.ndim:
            return matvec(self.jac, matvec(self.metric_inv, P))
        return P @ self.dual


@dataclass(frozen=True)
class SurfacePatch:
    """Chart-based smooth surface with analytic normal and shape operator.

    The callables take u of shape (..., 2) and return (..., 3) points and
    normals, (..., 3, 2) jacobians and (..., 3, 3) shape operators.
    """

    chart: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    shape_operator: Callable[[np.ndarray], np.ndarray]  # ambient 3x3
    domain: tuple
    name: str = ""
    principal_curvatures: Callable[[np.ndarray], np.ndarray] | None = None

    def metric(self, u):
        """The ChartMetric at chart points u; `complete` makes it the NodeFrame."""
        u = np.asarray(u, dtype=float)
        self._check_inside(u)
        J = np.asarray(self.chart_jacobian(u), dtype=float)
        J0, J1 = J[..., 0], J[..., 1]
        g01 = (J0 * J1).sum(axis=-1)
        g = np.stack([(J0 * J0).sum(axis=-1), g01, g01, (J1 * J1).sum(axis=-1)],
                     axis=-1).reshape(J.shape[:-2] + (2, 2))
        det_g = g[..., 0, 0] * g[..., 1, 1] - g01 * g01
        degenerate = det_g <= 0.0
        if np.count_nonzero(degenerate):
            raise EvaluationError(f"degenerate metric at u={first_point(u, degenerate)}")
        return ChartMetric(u=u, jac=J, metric=g, det_metric=det_g,
                           metric_inv=inv2(g, det_g), n=np.asarray(self.normal(u), dtype=float))

    def frame(self, u):
        """The NodeFrame at chart points u."""
        return self.complete(self.metric(u))

    def complete(self, m):
        """The NodeFrame at the points of the ChartMetric m, reusing its fields."""
        return NodeFrame(**vars(m), x=np.asarray(self.chart(m.u), dtype=float),
                         sqrt_det_metric=np.sqrt(m.det_metric), **self.frame_products(m))

    def frame_products(self, m):
        """The fields Pi, T, g^-1 J^T and Pi J that `complete` adds to the ChartMetric
        m, as a dict: all but the surface points x and sqrt(det g)."""
        J, g = m.jac, m.metric
        # Gram-Schmidt of the jacobian columns, with the norms read off the metric
        len1 = np.sqrt(g[..., 0, 0])
        t1 = J[..., 0] / len1[..., None]
        t2 = J[..., 1] - (g[..., 0, 1] / len1)[..., None] * t1
        t2 = t2 * (len1 / np.sqrt(m.det_metric))[..., None]
        shape_op, dn = self.normal_partials(m)
        return dict(shape_op=shape_op, tangents=np.stack([t1, t2], axis=-1),
                    dual=m.metric_inv @ transpose(J), dn=dn)

    def normal_partials(self, m):
        """The shape operator Pi and the chart partials Pi J of the normal at the
        points of the ChartMetric m."""
        shape_op = np.asarray(self.shape_operator(m.u), dtype=float)
        return shape_op, shape_op @ m.jac

    @cached_property
    def _bounds(self):
        return np.array(self.domain, dtype=float).T  # rows: lower, upper corner

    def _check_inside(self, u):
        lo, hi = self._bounds
        inside = (lo <= u) & (u <= hi)
        if np.count_nonzero(inside) != inside.size:
            point = first_point(u, ~inside.all(axis=-1))
            ax = 1 if lo[0] <= point[0] <= hi[0] else 0
            raise DomainError(f"u={point} outside chart rectangle axis {ax}: "
                              f"{self.domain[ax]}")


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

    def chart(u):
        return np.concatenate([u, np.zeros(u.shape[:-1] + (1,))], axis=-1)

    return SurfacePatch(
        chart=chart,
        chart_jacobian=lambda u: np.zeros(u.shape[:-1] + (3, 2)) + J,
        normal=lambda u: np.zeros(u.shape[:-1] + (3,)) + n,
        shape_operator=lambda u: np.zeros(u.shape[:-1] + (3, 3)),
        domain=((a1, b1), (a2, b2)),
        name="plate",
        principal_curvatures=lambda u: np.zeros(u.shape),
    )


def _sphere_chart(radius, theta_range, phi_range, name):
    R = float(radius)

    def chart(u):
        th, ph = u[..., 0], u[..., 1]
        st, ct = np.sin(th), np.cos(th)
        return R * batch_vector([st * np.cos(ph), st * np.sin(ph), ct])

    def jac(u):
        th, ph = u[..., 0], u[..., 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        return R * batch_matrix([[ct * cp, -st * sp],
                                 [ct * sp, st * cp],
                                 [-st, np.zeros(u.shape[:-1])]])

    def normal(u):
        return chart(u) / R

    def shape_operator(u):
        nv = normal(u)
        return (_I3 - outer(nv, nv)) / R  # outward normal: Pi = Id/R on T_xS

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(theta_range), tuple(phi_range)),
                        name=name,
                        principal_curvatures=lambda u: np.full(u.shape, 1.0 / R))


def _cylinder(radius, height, angle_range):
    R = float(radius)
    e3 = np.array([0.0, 0.0, 1.0])
    P = _I3 - np.outer(e3, e3)  # projection off the axis

    def chart(u):
        return batch_vector([R * np.cos(u[..., 0]), R * np.sin(u[..., 0]), u[..., 1]])

    def jac(u):
        zero = np.zeros(u.shape[:-1])
        return batch_matrix([[-R * np.sin(u[..., 0]), zero],
                             [R * np.cos(u[..., 0]), zero],
                             [zero, zero + 1.0]])

    def normal(u):
        return batch_vector([np.cos(u[..., 0]), np.sin(u[..., 0]), np.zeros(u.shape[:-1])])

    def shape_operator(u):
        nv = normal(u)
        return (P - outer(nv, nv)) / R

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(angle_range), (0.0, float(height))),
                        name="cylinder",
                        principal_curvatures=lambda u: np.broadcast_to(
                            np.array([1.0 / R, 0.0]), u.shape))


def _torus_patch(major_radius, minor_radius, u1_range, u2_range):
    R, r = float(major_radius), float(minor_radius)

    def chart(u):
        a, b = u[..., 0], u[..., 1]  # a: angle around the axis, b: angle around the tube
        w = R + r * np.cos(b)
        return batch_vector([w * np.cos(a), w * np.sin(a), r * np.sin(b)])

    def jac(u):
        a, b = u[..., 0], u[..., 1]
        w = R + r * np.cos(b)
        return batch_matrix([[-w * np.sin(a), -r * np.sin(b) * np.cos(a)],
                             [w * np.cos(a), -r * np.sin(b) * np.sin(a)],
                             [np.zeros(u.shape[:-1]), r * np.cos(b)]])

    def normal(u):
        a, b = u[..., 0], u[..., 1]
        return batch_vector([np.cos(b) * np.cos(a), np.cos(b) * np.sin(a), np.sin(b)])

    def curvatures(u):
        b = u[..., 1]
        return batch_vector([np.cos(b) / (R + r * np.cos(b)), np.full(b.shape, 1.0 / r)])

    def shape_operator(u):
        a, b = u[..., 0], u[..., 1]
        k = curvatures(u)
        e_ring = batch_vector([-np.sin(a), np.cos(a), np.zeros(u.shape[:-1])])
        e_tube = batch_vector([-np.sin(b) * np.cos(a), -np.sin(b) * np.sin(a), np.cos(b)])
        return (k[..., 0, None, None] * outer(e_ring, e_ring)
                + k[..., 1, None, None] * outer(e_tube, e_tube))

    return SurfacePatch(chart=chart, chart_jacobian=jac, normal=normal,
                        shape_operator=shape_operator,
                        domain=(tuple(u1_range), tuple(u2_range)),
                        name="torus_patch",
                        principal_curvatures=curvatures)


@dataclass(frozen=True)
class PatchKind:
    """A builtin patch kind: its builder, its parameters with their defaults,
    and the checks on their values.

    Each check is (parameter, predicate on all parameters, message); the
    predicates are written so that nan fails them.
    """

    build: Callable[..., SurfacePatch]
    defaults: dict
    checks: tuple = ()


def _positive(name):
    return name, lambda p: p[name] > 0.0, "must be positive"


def _interval(name):
    return name, lambda p: p[name][1] > p[name][0], "must be a nonempty interval"


_FULL_TURN = (0.0, 2 * np.pi)

PATCH_KINDS = {
    "plate": PatchKind(
        _plate, {"extent": ((0.0, 1.0), (0.0, 1.0))},
        (("extent", lambda p: all(hi > lo for lo, hi in p["extent"]),
          "must be two nonempty intervals"),)),
    "sphere_cap": PatchKind(
        lambda radius, cap_angle, azimuth_range: _sphere_chart(
            radius, (0.0, cap_angle), azimuth_range, "sphere_cap"),
        {"radius": 1.0, "cap_angle": np.pi / 3, "azimuth_range": _FULL_TURN},
        (_positive("radius"),
         ("cap_angle", lambda p: 0.0 < p["cap_angle"] <= np.pi / 2, "must lie in (0, pi/2]"),
         _interval("azimuth_range"))),
    # full sphere chart; the poles and the seam carry no quadrature nodes
    "sphere": PatchKind(
        lambda radius: _sphere_chart(radius, (0.0, np.pi), _FULL_TURN, "sphere"),
        {"radius": 1.0}, (_positive("radius"),)),
    "cylinder": PatchKind(
        _cylinder, {"radius": 1.0, "height": 1.0, "angle_range": _FULL_TURN},
        (_positive("radius"), _positive("height"), _interval("angle_range"))),
    "torus_patch": PatchKind(
        _torus_patch, {"major_radius": 2.0, "minor_radius": 0.5,
                       "u1_range": _FULL_TURN, "u2_range": _FULL_TURN},
        (_positive("major_radius"),
         ("minor_radius", lambda p: 0.0 < p["minor_radius"] < p["major_radius"],
          "must lie in (0, major_radius)"),
         _interval("u1_range"), _interval("u2_range"))),
}


def make_builtin_patch(kind, **params):
    """Instantiate a builtin patch (a key of PATCH_KINDS) with analytic normal
    and shape operator; parameters left out take their PATCH_KINDS defaults."""
    if kind not in PATCH_KINDS:
        raise ParameterError(f"unknown patch kind {kind!r}")
    spec = PATCH_KINDS[kind]
    unknown = params.keys() - spec.defaults.keys()
    if unknown:
        raise ParameterError(f"unknown parameters for {kind}: {sorted(unknown)}")
    params = {**spec.defaults, **params}
    for name, ok, message in spec.checks:
        if not ok(params):
            raise ParameterError(f"{kind} {name} {message}, got {params[name]}")
    return spec.build(**params)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceQuadrature:
    """Tensor rule on the chart: one batched frame over its (N,) nodes and the weights."""

    frame: NodeFrame      # batch shape (N,)
    weights: np.ndarray   # (N,) gauss weight times sqrt(det metric)


@lru_cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per order; read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(order, lo, hi):
    """Gauss-Legendre nodes/weights on (lo, hi); `order` is the point count."""
    x, w = _leggauss(int(order))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def surface_quadrature(patch, order=DEFAULT_SURFACE_ORDER):
    """Tensor Gauss-Legendre rule over the chart rectangle, with area weights."""
    if order < 1:
        raise ParameterError("quadrature order must be >= 1")
    x1, w1 = gauss_legendre(order, *patch.domain[0])
    x2, w2 = gauss_legendre(order, *patch.domain[1])
    u = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    frame = patch.frame(u)
    return SurfaceQuadrature(frame=frame,
                             weights=np.outer(w1, w2).ravel() * frame.sqrt_det_metric)


@dataclass(frozen=True)
class TransversalRule:
    """Per-surface-node Gauss rule for the transversal coordinate t in (-g1, g2)."""

    ref_nodes: np.ndarray    # on (0, 1)
    ref_weights: np.ndarray

    @staticmethod
    def make(order=DEFAULT_TRANSVERSAL_ORDER):
        if order < 1:
            raise ParameterError("transversal order must be >= 1")
        x, w = gauss_legendre(order, 0.0, 1.0)
        return TransversalRule(ref_nodes=x, ref_weights=w)

    def nodes_at(self, g1_value, g2_value):
        """Nodes and weights through the thickness, shape (order,) + shape of g1, g2.

        The transversal axis leads, so the result broadcasts against arrays
        over the surface nodes.
        """
        g1_value = np.asarray(g1_value, dtype=float)
        g2_value = np.asarray(g2_value, dtype=float)
        if np.any(g1_value <= 0.0) or np.any(g2_value <= 0.0):
            raise ParameterError("thickness profiles must be positive")
        length = g1_value + g2_value
        return (-g1_value + np.multiply.outer(self.ref_nodes, length),
                np.multiply.outer(self.ref_weights, length))

    def across(self, thick, u):
        """Nodes and weights through the thickness profile at chart points u."""
        return self.nodes_at(thick.g1.value(u), thick.g2.value(u))


# ---------------------------------------------------------------------------
# offsets and curvature checks
# ---------------------------------------------------------------------------

def offset_determinant(frame, t):
    """det(Id + t*Pi) at a frame's points, from the per-node invariants of Pi.

    Pi is the frame's shape operator and t the physical normal offset; the
    frame's batch axes and t broadcast against each other.  Pi n = 0, so
    det Pi = 0 and det(Id + t*Pi) = 1 + t (tr Pi + t sigma2(Pi)), with
    sigma2 = ((tr Pi)^2 - tr Pi^2) / 2: no 3x3 matrix is formed.  Raises
    ThicknessError, naming the point of smallest principal factor 1 + t k,
    when the offset leaves the thin-shell regime: a factor that is not
    positive, or not finite.  Pi is self-adjoint, so the two factors have
    the product det(Id + t*Pi) and the sum 2 + t tr Pi, and both are
    positive exactly when these two are.  A NaN factor counts as the
    smallest.
    """
    t = np.asarray(t, dtype=float)
    P = frame.shape_op
    tr = P[..., 0, 0] + P[..., 1, 1] + P[..., 2, 2]
    sigma2 = 0.5 * (tr * tr - np.einsum("...ij,...ji->...", P, P))
    det = 1.0 + t * (tr + t * sigma2)
    s = 2.0 + t * tr
    if not np.all((det > 0.0) & (s > 0.0)):
        factor = 0.5 * s - np.sqrt(np.maximum(0.25 * s * s - det, 0.0))
        k = np.argmin(factor)
        uk = np.broadcast_to(frame.u, det.shape + (2,)).reshape(-1, 2)[k]
        tk = np.broadcast_to(t, det.shape).ravel()[k]
        raise ThicknessError(
            f"principal factor of Id + t*Pi = {factor.ravel()[k]:.3e} is not positive "
            f"at u={tuple(uk.tolist())}, t={tk}")
    return det


def offset_jacobian(frame, t):
    """Id + t*Pi (identity on the normal) and its determinant at a frame's points.

    The determinant, and the ThicknessError naming the worst point, come
    from `offset_determinant`; t broadcasts against the frame's batch axes.
    """
    det = offset_determinant(frame, t)
    return _I3 + np.asarray(t, dtype=float)[..., None, None] * frame.shape_op, det


def _raise_first_failure(error, u, checks):
    """Raise `error` naming the first node (C order) that fails one of `checks`.

    checks lists (bad, values, message) triples over the (N,) nodes; the
    message is formatted with the node's value, and at a node failing
    several checks the first listed wins.
    """
    bad = np.array([b for b, _, _ in checks])
    if bad.any():
        i = np.argmax(bad.any(axis=0))
        _, values, message = checks[np.argmax(bad[:, i])]
        raise error(f"{message.format(values[i])} at u={tuple(u[i].tolist())}")


def validate_patch(patch, quad):
    """Check the SurfacePatch invariants at every quadrature node, to _PATCH_TOLS.

    Raises EvaluationError naming the first violating node; returns the
    worst residuals.
    """
    fr = quad.frame
    g_ref = transpose(fr.jac) @ fr.jac
    S = fr.tan2(fr.shape_op)
    resid = {
        "normal_norm": np.abs(np.linalg.norm(fr.n, axis=-1) - 1.0),
        "normal_orth": np.abs(matvec(transpose(fr.jac), fr.n)).max(axis=-1),
        "metric": (np.linalg.norm(fr.metric - g_ref, axis=(-2, -1))
                   / np.maximum(1.0, np.linalg.norm(g_ref, axis=(-2, -1)))),
        "selfadj": np.abs(S[..., 0, 1] - S[..., 1, 0]),
    }
    what = ("normal not unit", "normal not orthogonal to tangents",
            "metric != J^T J", "shape operator not self-adjoint")
    _raise_first_failure(EvaluationError, fr.u, [
        (r > tol, r, message + ": {:.2e}")
        for r, tol, message in zip(resid.values(), _PATCH_TOLS, what)])
    return {name: float(np.max(r)) for name, r in resid.items()}


def validate_thickness(thick, quad):
    """Positivity and Lipschitz bound of the thickness profiles at the nodes.

    Raises ParameterError naming the first violating node.
    """
    fr = quad.frame
    checks = []
    for name, g in (("g1", thick.g1), ("g2", thick.g2)):
        val = g.value(fr.u)
        slope = np.linalg.norm(fr.grad3(g.d(fr.u)), axis=-1)
        checks += [(val <= 0.0, val, name + " = {} <= 0"),
                   (slope > thick.lipschitz_bound + 1e-12, slope,
                    "surface gradient of " + name + " = {:.3e} exceeds lipschitz_bound")]
    _raise_first_failure(ParameterError, fr.u, checks)
