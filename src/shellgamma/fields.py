"""Scalar and vector fields on a chart rectangle, with derivatives.

Fields are functions of the chart parameter u = (u1, u2).  Analytic
derivatives are used when a family provides them; otherwise derivatives
fall back to 4th-order central finite differences with a step that is
shrunk near the chart boundary so stencils never leave the rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

DEFAULT_FD_REL_STEP = 1e-3


def domain_widths(domain):
    (a1, b1), (a2, b2) = domain
    return np.array([b1 - a1, b2 - a2], dtype=float)


def chart_diameter(domain):
    w = domain_widths(domain)
    return float(np.hypot(w[0], w[1]))


def _clamped_step(domain, u, axis, step):
    # stencil reaches u +- 2*step; keep it strictly inside the rectangle
    lo, hi = domain[axis]
    margin = min(u[axis] - lo, hi - u[axis])
    if margin <= 0.0:
        raise DomainError(f"point {tuple(u)} outside chart axis {axis} range ({lo}, {hi})")
    return min(step, margin / 3.0)


def fd_partial(f, u, axis, step, domain):
    """4th-order central difference of f along one chart axis."""
    u = np.asarray(u, dtype=float)
    d = _clamped_step(domain, u, axis, step)
    e = np.zeros(2)
    e[axis] = 1.0
    fm2 = np.asarray(f(u - 2 * d * e))
    fm1 = np.asarray(f(u - d * e))
    fp1 = np.asarray(f(u + d * e))
    fp2 = np.asarray(f(u + 2 * d * e))
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * d)


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the chart parameter with its chart partials."""

    value: Callable[[np.ndarray], float]
    d: Callable[[np.ndarray], np.ndarray]  # (2,) partials wrt u1, u2
    domain: tuple


@dataclass(frozen=True)
class VectorField:
    """R^3-valued function of the chart parameter with chart partials up to order 2."""

    value: Callable[[np.ndarray], np.ndarray]      # (3,)
    d1: Callable[[np.ndarray], np.ndarray]         # (3, 2)
    d2: Callable[[np.ndarray], np.ndarray]         # (3, 2, 2)
    domain: tuple
    name: str = ""

    @staticmethod
    def from_callables(value, domain, d1=None, d2=None, name="",
                       rel_step=DEFAULT_FD_REL_STEP):
        steps = rel_step * domain_widths(domain)
        if d1 is None:
            def d1(u, _v=value, _dom=domain, _s=steps):
                cols = [fd_partial(_v, u, ax, _s[ax], _dom) for ax in (0, 1)]
                return np.stack(cols, axis=-1)

        if d2 is None:
            def d2(u, _d1=d1, _dom=domain, _s=steps):
                blocks = [fd_partial(_d1, u, ax, _s[ax], _dom) for ax in (0, 1)]
                # blocks[ax][:, j] = d^2 value / du_ax du_j
                return np.stack(blocks, axis=-1)

        return VectorField(value=value, d1=d1, d2=d2, domain=domain, name=name)


# ---------------------------------------------------------------------------
# builtin scalar families (thickness profiles)
# ---------------------------------------------------------------------------

def constant_scalar(c, domain):
    c = float(c)
    return ScalarField(value=lambda u: c,
                       d=lambda u: np.zeros(2),
                       domain=domain)


def affine_scalar(base, slope, domain):
    base = float(base)
    slope = np.asarray(slope, dtype=float)
    return ScalarField(value=lambda u: base + slope @ np.asarray(u, float),
                       d=lambda u: slope.copy(),
                       domain=domain)


def sine_scalar(base, amplitude, freq, phase, domain):
    base, amp = float(base), float(amplitude)
    f1, f2 = (float(f) for f in freq)
    p1, p2 = (float(p) for p in phase)

    def value(u):
        return base + amp * np.sin(f1 * u[0] + p1) * np.sin(f2 * u[1] + p2)

    def d(u):
        return np.array([
            amp * f1 * np.cos(f1 * u[0] + p1) * np.sin(f2 * u[1] + p2),
            amp * f2 * np.sin(f1 * u[0] + p1) * np.cos(f2 * u[1] + p2),
        ])

    return ScalarField(value=value, d=d, domain=domain)


# ---------------------------------------------------------------------------
# builtin vector families (displacements V and second-order fields w)
# ---------------------------------------------------------------------------

def zero_vector_field(domain):
    z3 = np.zeros(3)
    z32 = np.zeros((3, 2))
    z322 = np.zeros((3, 2, 2))
    return VectorField(value=lambda u: z3.copy(), d1=lambda u: z32.copy(),
                       d2=lambda u: z322.copy(), domain=domain, name="zero")


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
        return W @ patch.chart(u) + b

    def d1(u):
        return W @ patch.chart_jacobian(u)

    return VectorField.from_callables(value, patch.domain, d1=d1,
                                      name="rigid")


def plate_sine_field(amplitude, m, n, domain):
    """Out-of-plane plate displacement (0, 0, a sin(m pi u1) sin(n pi u2))."""
    a = float(amplitude)
    km, kn = m * np.pi, n * np.pi

    def value(u):
        return np.array([0.0, 0.0, a * np.sin(km * u[0]) * np.sin(kn * u[1])])

    def d1(u):
        s1, c1 = np.sin(km * u[0]), np.cos(km * u[0])
        s2, c2 = np.sin(kn * u[1]), np.cos(kn * u[1])
        out = np.zeros((3, 2))
        out[2, 0] = a * km * c1 * s2
        out[2, 1] = a * kn * s1 * c2
        return out

    def d2(u):
        s1, c1 = np.sin(km * u[0]), np.cos(km * u[0])
        s2, c2 = np.sin(kn * u[1]), np.cos(kn * u[1])
        out = np.zeros((3, 2, 2))
        out[2, 0, 0] = -a * km * km * s1 * s2
        out[2, 0, 1] = a * km * kn * c1 * c2
        out[2, 1, 0] = out[2, 0, 1]
        out[2, 1, 1] = -a * kn * kn * s1 * s2
        return out

    return VectorField(value=value, d1=d1, d2=d2, domain=domain, name="plate_sine")


def trig_vector_field(components, domain):
    """Generic smooth field: component k is amp*sin(f1*u1 + p1)*sin(f2*u2 + p2).

    components: three 5-tuples (amp, f1, p1, f2, p2).
    """
    comps = [tuple(float(x) for x in c) for c in components]
    if len(comps) != 3:
        raise ValueError("trig_vector_field needs exactly three components")

    def value(u):
        return np.array([a * np.sin(f1 * u[0] + p1) * np.sin(f2 * u[1] + p2)
                         for (a, f1, p1, f2, p2) in comps])

    def d1(u):
        out = np.zeros((3, 2))
        for k, (a, f1, p1, f2, p2) in enumerate(comps):
            s1, c1 = np.sin(f1 * u[0] + p1), np.cos(f1 * u[0] + p1)
            s2, c2 = np.sin(f2 * u[1] + p2), np.cos(f2 * u[1] + p2)
            out[k, 0] = a * f1 * c1 * s2
            out[k, 1] = a * f2 * s1 * c2
        return out

    def d2(u):
        out = np.zeros((3, 2, 2))
        for k, (a, f1, p1, f2, p2) in enumerate(comps):
            s1, c1 = np.sin(f1 * u[0] + p1), np.cos(f1 * u[0] + p1)
            s2, c2 = np.sin(f2 * u[1] + p2), np.cos(f2 * u[1] + p2)
            out[k, 0, 0] = -a * f1 * f1 * s1 * s2
            out[k, 0, 1] = a * f1 * f2 * c1 * c2
            out[k, 1, 0] = out[k, 0, 1]
            out[k, 1, 1] = -a * f2 * f2 * s1 * s2
        return out

    return VectorField(value=value, d1=d1, d2=d2, domain=domain, name="trig")


def sum_fields(*fields):
    """Pointwise sum of vector fields on a common domain."""
    domain = fields[0].domain

    def value(u):
        return np.sum([f.value(u) for f in fields], axis=0)

    def d1(u):
        return np.sum([f.d1(u) for f in fields], axis=0)

    def d2(u):
        return np.sum([f.d2(u) for f in fields], axis=0)

    return VectorField(value=value, d1=d1, d2=d2, domain=domain, name="sum")
