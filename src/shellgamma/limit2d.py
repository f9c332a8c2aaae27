"""Evaluation of the two-dimensional limit energy functionals.

The stretching term integrates (g1+g2) Q2 of the stretching tensor, the
bending term integrates (g1+g2)^3/12 Q2 of the bending tensor, both with a
per-node Q2 built from the node's tangent frame.  The tensors are read off
`kinematics.LimitFields`, the one record of the h-independent fields at a
point array, which the recovery deformation and the expansion identities
read too; every integrand, the load term included, is one batched pass over
the quadrature nodes.  The total-energy variant subtracts from a computed
limit energy the action of the load's node values against a fixed rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .material import reduce_q2  # noqa: F401  (perfbench/tracing.py wraps this import site)


@dataclass(frozen=True)
class LimitEnergyBreakdown:
    stretching: float
    bending: float
    load_term: float

    @property
    def total(self):
        return self.stretching + self.bending - self.load_term


def eval_I(fields, q2, thick, quad):
    """The variable-thickness von Karman energy of (V, B_tan).

    stretching = (1/2) integral of (g1+g2)   Q2(stretching tensor)
    bending    = (1/24) integral of (g1+g2)^3 Q2(bending tensor)

    fields are the LimitFields at the nodes of quad, q2 the QuadForm2
    reduced in their tangent frames.
    """
    weights = quad.weights
    mu_t = thick.total(fields.frame.u)
    stretching = np.sum(0.5 * weights * mu_t * q2.apply_tangential(fields.stretching))
    bending = np.sum(weights * mu_t ** 3 / 24.0 * q2.apply_tangential(fields.bending))
    return LimitEnergyBreakdown(stretching=float(stretching), bending=float(bending),
                                load_term=0.0)


def check_rotation(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3):
        raise ParameterError("rotation must be a 3x3 matrix")
    if np.linalg.norm(Q.T @ Q - np.eye(3)) > 1e-10:
        raise ParameterError("matrix is not orthogonal within 1e-10")
    if np.linalg.det(Q) < 0.0:
        raise ParameterError("matrix has determinant -1, not a rotation")
    return Q


def eval_J(limit, thick, iso, f, Qbar, quad):
    """Total limit energy J = I - integral (g1+g2) f . (Qbar V).

    limit is the LimitEnergyBreakdown of I (`eval_I(...)`) for the same
    scene; f is the limit surface load at the nodes of quad, an (N, 3)
    array.
    """
    Qbar = check_rotation(Qbar)
    u = quad.frame.u
    QV = iso.displacement.value(u) @ Qbar.T
    density = thick.total(u) * (f * QV).sum(axis=-1)
    return replace(limit, load_term=float(np.sum(quad.weights * density)))
