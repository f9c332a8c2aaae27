"""Scalar and vector fields on a chart rectangle, with their first chart partials.

Fields are functions of the chart parameter u = (u1, u2).  Every function
here broadcasts over leading batch axes: u has shape (..., 2), and a field
returns its value with the same leading axes, so a single point of shape
(2,) is the unbatched case of the same code.  Every field family carries
analytic partials; a vector field takes the `geometry.ChartMetric` of its
points for them, so a family reads the chart jacobian from there.  Every
chart finite difference is one 4th-order central stencil: `stencil_steps`
gives its steps, shrunk point by point near the chart boundary so stencils
never leave the rectangle, `stencil_points` its points and
`stencil_partials` the partials.  The partials of a field at u
and at its stencil points come from one shared grid around u
(`stencil_grid`, `grid_partials`), which holds u and its stencil points
among its rows (`GRID_ROWS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

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
    """M v over leading batch axes: (..., r, c) times (..., c).

    One einsum over the whole stack: a stacked `@` would dispatch one BLAS
    call per 2x2 or 3x3 matrix, which costs more than its arithmetic.
    """
    return np.einsum("...ij,...j->...i", M, v)


def transpose(M):
    """Swap the two trailing (matrix) axes, into a copy: stacked matmul is faster on it."""
    return np.ascontiguousarray(M.swapaxes(-1, -2))


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
    distance from the edge: `stencil_grid` reaches 4 steps out.
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


# grid offsets of `stencil_grid`: the 9-point line k = -4..4 of each axis
_LINE = np.arange(-4.0, 5.0)
# [j, c]: line index of the offset c + j, for stencil offsets j and centers c = 0, -2, -1, 1, 2
_LINE_INDEX = (_STENCIL[:, None] + np.concatenate([[0.0], _STENCIL])).astype(int) + 4
# rows of `stencil_grid` that hold u (line 0 at k = 0), then stencil_points(u, d)[a, i]:
# k = -2, -1, 1, 2 on line 0 (rows 0..8) and on line 1 without u (rows 9..12, 13..16)
GRID_ROWS = np.array([4, 2, 3, 5, 6, 11, 12, 13, 14])


def stencil_grid(u, domain):
    """33 points per point of u, shape (33, ..., 2), and their `stencil_steps` d.

    The 9-point line u + k d_a e_a, k = -4..4, of each axis (u shared), then
    the 4x4 block u + i d_1 e_1 + j d_2 e_2, i, j in (-2, -1, 1, 2).
    """
    u = np.asarray(u, dtype=float)
    d = stencil_steps(u, domain)
    nb = (1,) * d[0].ndim
    lines = _axis_points(u, d, _LINE)
    block = np.broadcast_to(u, (4, 4) + u.shape).copy()
    block[..., 0] += _STENCIL.reshape((4, 1) + nb) * d[0]
    block[..., 1] += _STENCIL.reshape((1, 4) + nb) * d[1]
    return np.concatenate([lines[0], lines[1, :4], lines[1, 5:],
                           block.reshape((16,) + u.shape)]), d


def grid_partials(F, d):
    """Both chart partials, (9, ..., *f, 2) in the order of GRID_ROWS, from the
    (33, ..., *f) values F on `stencil_grid` of steps d: each line gives the
    partial along its axis, the block the one across, all with one stencil."""
    shape = F.shape[1:]
    line = [F[:9], np.concatenate([F[9:13], F[4:5], F[13:17]])]
    grid = F[17:].reshape((4, 4) + shape)   # [i, j] at u + i d_1 e_1 + j d_2 e_2
    d = d[:, None]  # the steps broadcast against the center axis
    along = [_fd_combine(line[ax][_LINE_INDEX], d[ax]) for ax in (0, 1)]  # u, then axis ax
    across = [_fd_combine(np.swapaxes(grid, 0, 1), d[1]), _fd_combine(grid, d[0])]
    return np.concatenate([np.stack([along[0][:1], along[1][:1]], axis=-1),
                           np.stack([along[0][1:], across[0]], axis=-1),
                           np.stack([across[1], along[1][1:]], axis=-1)])


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the chart parameter with its chart partials."""

    value: Callable[[np.ndarray], np.ndarray]  # (...,) at u of shape (..., 2)
    d: Callable[[np.ndarray], np.ndarray]      # (..., 2) partials wrt u1, u2


@dataclass(frozen=True)
class VectorField:
    """R^3-valued function of the chart parameter with its chart partials."""

    value: Callable[[np.ndarray], np.ndarray]      # (..., 3) at u of shape (..., 2)
    d1: Callable[[object], np.ndarray]             # (..., 3, 2) at the points of a ChartMetric


def _batch_shape(u):
    return np.shape(u)[:-1]


# ---------------------------------------------------------------------------
# builtin scalar families (thickness profiles)
# ---------------------------------------------------------------------------

def constant_scalar(c):
    c = float(c)
    return ScalarField(value=lambda u: np.full(_batch_shape(u), c),
                       d=lambda u: np.zeros(np.shape(u)))


def affine_scalar(base, slope):
    base = float(base)
    slope = np.asarray(slope, dtype=float)
    return ScalarField(value=lambda u: base + np.asarray(u, float) @ slope,
                       d=lambda u: np.broadcast_to(slope, np.shape(u)).copy())


def sine_scalar(base, amplitude, freq, phase):
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

    return ScalarField(value=value, d=d)


# ---------------------------------------------------------------------------
# builtin vector families (displacements V and second-order fields w)
# ---------------------------------------------------------------------------

def zero_vector_field():
    return VectorField(value=lambda u: np.zeros(_batch_shape(u) + (3,)),
                       d1=lambda m: np.zeros(_batch_shape(m.u) + (3, 2)))


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

    def d1(m):
        return W @ m.jac

    return VectorField(value=value, d1=d1)


def plate_sine_field(amplitude, m, n):
    """Out-of-plane plate displacement (0, 0, a sin(m pi u1) sin(n pi u2))."""
    a = float(amplitude)
    km, kn = m * np.pi, n * np.pi

    def value(u):
        out = np.zeros(_batch_shape(u) + (3,))
        out[..., 2] = a * np.sin(km * u[..., 0]) * np.sin(kn * u[..., 1])
        return out

    def d1(m):
        u = m.u
        s1, c1 = np.sin(km * u[..., 0]), np.cos(km * u[..., 0])
        s2, c2 = np.sin(kn * u[..., 1]), np.cos(kn * u[..., 1])
        out = np.zeros(_batch_shape(u) + (3, 2))
        out[..., 2, 0] = a * km * c1 * s2
        out[..., 2, 1] = a * kn * s1 * c2
        return out

    return VectorField(value=value, d1=d1)


def trig_vector_field(components):
    """Generic smooth field: component k is amp*sin(f1*u1 + p1)*sin(f2*u2 + p2).

    components: three 5-tuples (amp, f1, p1, f2, p2), a (3, 5) table.
    """
    if len(components) != 3 or any(len(c) != 5 for c in components):
        raise ParameterError("trig_vector_field needs components of shape (3, 5): "
                             f"three (amp, f1, p1, f2, p2), got {components!r}")
    a, f1, p1, f2, p2 = np.array(components, dtype=float).T  # each (3,), one per component

    def phases(u):
        x1 = f1 * u[..., 0, None] + p1
        x2 = f2 * u[..., 1, None] + p2
        return np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)

    def value(u):
        s1, _, s2, _ = phases(u)
        return a * s1 * s2

    def d1(m):
        s1, c1, s2, c2 = phases(m.u)
        return np.stack([a * f1 * c1 * s2, a * f2 * s1 * c2], axis=-1)

    return VectorField(value=value, d1=d1)
