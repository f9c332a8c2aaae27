"""Scalar and vector fields on a chart rectangle, with their first chart partials.

Fields are functions of the chart parameter u = (u1, u2).  Every function
here broadcasts over leading batch axes: u has shape (..., 2), and a field
returns its value with the same leading axes, so a single point of shape
(2,) is the unbatched case of the same code.  Every field family carries
analytic partials.  Every chart finite difference is one 4th-order central
stencil: `stencil_steps` gives its steps, shrunk point by point near the
chart boundary so stencils never leave the rectangle, `stencil_points` its
points and `stencil_partials` the partials; `fd_columns` runs it on a
function.  The partials of a field at the stencil points of u come from one
shared grid around u (`fd_stencil_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

# relative step of every chart finite difference, times the chart widths;
# read at call time
FD_REL_STEP = 1e-3
_STENCIL = np.array([-2.0, -1.0, 1.0, 2.0])


def domain_widths(domain):
    (a1, b1), (a2, b2) = domain
    return np.array([b1 - a1, b2 - a2], dtype=float)


def batch_vector(entries):
    """(..., k) array from k entries of a common batch shape."""
    a = np.array(entries, dtype=float)
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def batch_matrix(rows):
    """(..., r, c) array from r rows of c entries of a common batch shape."""
    a = np.array(rows, dtype=float)
    return a.transpose(tuple(range(2, a.ndim)) + (0, 1))


def matvec(M, v):
    """M v over leading batch axes: (..., r, c) times (..., c)."""
    return (M @ v[..., None])[..., 0]


def transpose(M):
    """Swap the two trailing (matrix) axes of an array."""
    return M.swapaxes(-1, -2)


def outer(a, b):
    """a b^T over leading batch axes: (..., r) and (..., c) give (..., r, c)."""
    return a[..., :, None] * b[..., None, :]


def first_point(u, bad):
    """The first chart point of u (in C order) where the mask `bad` holds."""
    return tuple(np.reshape(u, (-1, 2))[np.flatnonzero(bad)[0]].tolist())


def _clamped_step(domain, u, axis, step, reach):
    # a stencil reaching u +- reach*step stays strictly inside the rectangle
    lo, hi = domain[axis]
    margin = np.minimum(u[..., axis] - lo, hi - u[..., axis])
    outside = margin <= 0.0
    if outside.any():
        raise DomainError(f"point {first_point(u, outside)} outside chart axis "
                          f"{axis} range ({lo}, {hi})")
    return np.minimum(step, margin / (reach + 1.0))


def _fd_combine(values, d):
    """4th-order central difference from the values at the offsets _STENCIL * d.

    values has the four stencil values on its leading axis; d (the step of
    each point) broadcasts against the batch axes that follow it.
    """
    fm2, fm1, fp1, fp2 = values
    d = d.reshape(d.shape + (1,) * (fm2.ndim - d.ndim))
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * d)


# no caller in the package: kept, with its import sites in kinematics and
# recovery3d, only because perfbench/tracing.py wraps all three
def fd_partial(f, u, axis, step, domain):
    """4th-order central difference of f along one chart axis, at every point of u.

    The four stencil points of every point are stacked ahead of u's batch
    axes and passed to f in one call; each point uses its own clamped step.
    """
    u = np.asarray(u, dtype=float)
    d = _clamped_step(domain, u, axis, step, reach=2)
    e = np.zeros(2)
    e[axis] = 1.0
    offsets = _STENCIL.reshape((4,) + (1,) * d.ndim) * d
    return _fd_combine(np.asarray(f(u + offsets[..., None] * e)), d)


def stencil_steps(u, domain):
    """Steps (2, ...) of the shared stencil of each point of u, one row per axis.

    FD_REL_STEP times the chart width, clamped to a fifth of the point's
    distance from the edge: `fd_stencil_columns` reaches 4 steps out.
    """
    u = np.asarray(u, dtype=float)
    steps = FD_REL_STEP * domain_widths(domain)
    return np.stack([_clamped_step(domain, u, ax, steps[ax], reach=4) for ax in (0, 1)])


def _axis_points(u, d, offsets):
    # u + k d_a e_a for the offsets k along each chart axis a, (2, len(offsets), ..., 2)
    pts = np.broadcast_to(u, (2, len(offsets)) + u.shape).copy()
    for ax in (0, 1):
        pts[ax, ..., ax] += offsets.reshape((-1,) + (1,) * d[ax].ndim) * d[ax]
    return pts


def stencil_points(u, d):
    """The stencil points u + k d_a e_a, k in (-2, -1, 1, 2), shape (2, 4, ..., 2).

    d holds the steps of `stencil_steps(u, domain)`; the leading axes are
    the chart axis a and the offset k.
    """
    return _axis_points(np.asarray(u, dtype=float), d, _STENCIL)


def stencil_partials(values, d):
    """Both chart partials at u from values at `stencil_points(u, d)`.

    values has shape (2, 4, ..., *f); the result has shape (..., *f, 2).
    """
    return np.stack([_fd_combine(values[ax], d[ax]) for ax in (0, 1)], axis=-1)


def fd_columns(f, u, domain):
    """Both chart partials of f at every point of u, stacked on a new last axis.

    f is called once, on `stencil_points(u, stencil_steps(u, domain))`.
    """
    d = stencil_steps(u, domain)
    return stencil_partials(np.asarray(f(stencil_points(u, d))), d)


# grid offsets of `fd_stencil_columns`: the 9-point line k = -4..4 of each axis
_LINE = np.arange(-4.0, 5.0)
# [j, k]: index on the line of the offset k + j, for stencil offsets j and k
_LINE_INDEX = (_STENCIL[:, None] + _STENCIL[None, :]).astype(int) + 4


def fd_stencil_columns(f, u, domain):
    """Both chart partials of f at every stencil point of u, shape (2, 4, ..., *f, 2).

    Entry [a, i] is taken at stencil_points(u, stencil_steps(u, domain))[a, i],
    with the same 4th-order weights and steps as at u.  f is called once,
    on 33 grid points per point of u: the 9-point line u + k d_a e_a,
    k = -4..4, of each axis (u itself shared), which gives the partial along
    a at the stencil points of axis a, and the 4x4 block u + i d_1 e_1 +
    j d_2 e_2, i, j in (-2, -1, 1, 2), which gives the partial along the
    other axis at the stencil points of both axes.
    """
    u = np.asarray(u, dtype=float)
    d = stencil_steps(u, domain)
    nb = (1,) * d[0].ndim
    lines = _axis_points(u, d, _LINE)
    block = np.broadcast_to(u, (4, 4) + u.shape).copy()
    block[..., 0] += _STENCIL.reshape((4, 1) + nb) * d[0]
    block[..., 1] += _STENCIL.reshape((1, 4) + nb) * d[1]
    line_pts = np.concatenate([lines[0], lines[1, :4], lines[1, 5:]])
    F = np.asarray(f(np.concatenate([line_pts, block.reshape((16,) + u.shape)])))
    shape = F.shape[1:]
    line = [F[:9], np.concatenate([F[9:13], F[4:5], F[13:17]])]
    grid = F[17:].reshape((4, 4) + shape)   # [i, j] at u + i d_1 e_1 + j d_2 e_2
    d = d[:, None]  # the steps broadcast against the stencil offset axis
    along = [_fd_combine(line[ax][_LINE_INDEX], d[ax]) for ax in (0, 1)]
    across = [_fd_combine(np.swapaxes(grid, 0, 1), d[1]), _fd_combine(grid, d[0])]
    return np.stack([np.stack([along[0], across[0]], axis=-1),
                     np.stack([across[1], along[1]], axis=-1)])


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the chart parameter with its chart partials."""

    value: Callable[[np.ndarray], np.ndarray]  # (...,) at u of shape (..., 2)
    d: Callable[[np.ndarray], np.ndarray]      # (..., 2) partials wrt u1, u2
    domain: tuple


@dataclass(frozen=True)
class VectorField:
    """R^3-valued function of the chart parameter with its chart partials."""

    value: Callable[[np.ndarray], np.ndarray]      # (..., 3)
    d1: Callable[[np.ndarray], np.ndarray]         # (..., 3, 2)
    domain: tuple


def _batch_shape(u):
    return np.shape(u)[:-1]


# ---------------------------------------------------------------------------
# builtin scalar families (thickness profiles)
# ---------------------------------------------------------------------------

def constant_scalar(c, domain):
    c = float(c)
    return ScalarField(value=lambda u: np.full(_batch_shape(u), c),
                       d=lambda u: np.zeros(np.shape(u)),
                       domain=domain)


def affine_scalar(base, slope, domain):
    base = float(base)
    slope = np.asarray(slope, dtype=float)
    return ScalarField(value=lambda u: base + np.asarray(u, float) @ slope,
                       d=lambda u: np.broadcast_to(slope, np.shape(u)).copy(),
                       domain=domain)


def sine_scalar(base, amplitude, freq, phase, domain):
    base, amp = float(base), float(amplitude)
    f1, f2 = (float(f) for f in freq)
    p1, p2 = (float(p) for p in phase)

    def value(u):
        return base + amp * np.sin(f1 * u[..., 0] + p1) * np.sin(f2 * u[..., 1] + p2)

    def d(u):
        return batch_vector([
            amp * f1 * np.cos(f1 * u[..., 0] + p1) * np.sin(f2 * u[..., 1] + p2),
            amp * f2 * np.sin(f1 * u[..., 0] + p1) * np.cos(f2 * u[..., 1] + p2),
        ])

    return ScalarField(value=value, d=d, domain=domain)


# ---------------------------------------------------------------------------
# builtin vector families (displacements V and second-order fields w)
# ---------------------------------------------------------------------------

def zero_vector_field(domain):
    return VectorField(value=lambda u: np.zeros(_batch_shape(u) + (3,)),
                       d1=lambda u: np.zeros(_batch_shape(u) + (3, 2)),
                       domain=domain)


def skew_matrix(omega):
    """Skew matrix with skew(omega) @ x == cross(omega, x)."""
    wx, wy, wz = (float(c) for c in omega)
    return np.array([[0.0, -wz, wy],
                     [wz, 0.0, -wx],
                     [-wy, wx, 0.0]])


def rigid_field(patch, omega, b=(0.0, 0.0, 0.0)):
    """Rigid infinitesimal motion V(x) = omega x x + b restricted to the patch."""
    W = skew_matrix(omega)
    b = np.asarray(b, dtype=float)

    def value(u):
        return matvec(W, patch.chart(u)) + b

    def d1(u):
        return W @ patch.chart_jacobian(u)

    return VectorField(value=value, d1=d1, domain=patch.domain)


def plate_sine_field(amplitude, m, n, domain):
    """Out-of-plane plate displacement (0, 0, a sin(m pi u1) sin(n pi u2))."""
    a = float(amplitude)
    km, kn = m * np.pi, n * np.pi

    def value(u):
        out = np.zeros(_batch_shape(u) + (3,))
        out[..., 2] = a * np.sin(km * u[..., 0]) * np.sin(kn * u[..., 1])
        return out

    def d1(u):
        s1, c1 = np.sin(km * u[..., 0]), np.cos(km * u[..., 0])
        s2, c2 = np.sin(kn * u[..., 1]), np.cos(kn * u[..., 1])
        out = np.zeros(_batch_shape(u) + (3, 2))
        out[..., 2, 0] = a * km * c1 * s2
        out[..., 2, 1] = a * kn * s1 * c2
        return out

    return VectorField(value=value, d1=d1, domain=domain)


def trig_vector_field(components, domain):
    """Generic smooth field: component k is amp*sin(f1*u1 + p1)*sin(f2*u2 + p2).

    components: three 5-tuples (amp, f1, p1, f2, p2).
    """
    comps = [tuple(float(x) for x in c) for c in components]
    if len(comps) != 3:
        raise ValueError("trig_vector_field needs exactly three components")
    a, f1, p1, f2, p2 = np.array(comps).T  # each (3,), one entry per component

    def phases(u):
        x1 = f1 * u[..., 0, None] + p1
        x2 = f2 * u[..., 1, None] + p2
        return np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)

    def value(u):
        s1, _, s2, _ = phases(u)
        return a * s1 * s2

    def d1(u):
        s1, c1, s2, c2 = phases(u)
        return np.stack([a * f1 * c1 * s2, a * f2 * s1 * c2], axis=-1)

    return VectorField(value=value, d1=d1, domain=domain)


def sum_fields(*fields):
    """Pointwise sum of vector fields on a common domain."""
    domain = fields[0].domain

    def value(u):
        return np.sum([f.value(u) for f in fields], axis=0)

    def d1(u):
        return np.sum([f.d1(u) for f in fields], axis=0)

    return VectorField(value=value, d1=d1, domain=domain)
