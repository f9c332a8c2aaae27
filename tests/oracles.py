"""Oracles and fixtures of the suite that the package itself has no use for.

`fd_columns` is the 8-point route to the chart partials: the one stencil of
`shellgamma.fields`, run on a function at the stencil points of u alone.
It does not share the 33-point grid (`fields.stencil_grid`) on which the
recovery data differentiates A n, so it serves as that grid's oracle.
"""

import numpy as np

from shellgamma.fields import VectorField, stencil_partials, stencil_points, stencil_steps


def fd_columns(f, u, domain):
    """Both chart partials of f at every point of u, stacked on a new last axis.

    f is called once, on `stencil_points(u, stencil_steps(u, domain))`.
    """
    d = stencil_steps(u, domain)
    return stencil_partials(np.asarray(f(stencil_points(u, d))), d)


def det3(M):
    """Determinant of each 3x3 matrix M, by cofactor expansion along the first row; the
    oracle of `geometry.offset_determinant`."""
    return (M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
            - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
            + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0]))


def An_partials(patch, iso, u):
    """Chart partials of A n of the isometry `iso` on `patch` at chart points u, shape
    (..., 3, 2).

    A n at the stencil points reads only their ChartMetric.
    """
    return fd_columns(lambda points: iso.An(patch.metric(points))[0], u, patch.domain)


def sum_fields(*fields):
    """Pointwise sum of vector fields."""
    def value(u):
        return np.sum([f.value(u) for f in fields], axis=0)

    def d1(m):
        return np.sum([f.d1(m) for f in fields], axis=0)

    return VectorField(value=value, d1=d1)
