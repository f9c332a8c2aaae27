"""Evaluation of the two-dimensional limit energy functionals.

The stretching term integrates (g1+g2) Q2 of the stretching tensor, the
bending term integrates (g1+g2)^3/12 Q2 of the bending tensor, both with a
per-node Q2 built from the node's tangent frame.  `limit_fields` evaluates
these h-independent fields once at a point array, and the recovery
deformation reads the same evaluation at its nodes and stencils; every
integrand, the load term included, is one batched pass over the quadrature
nodes.  The total-energy variant subtracts from a computed limit energy the
action of the load's node values against a fixed rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .fields import transpose
from .geometry import NodeFrame
from .kinematics import bending_matrix, grad3_gamma_n, stretching_tensor
from .material import QuadForm2, reduce_q2


@dataclass(frozen=True)
class LimitEnergyBreakdown:
    stretching: float
    bending: float
    load_term: float

    @property
    def total(self):
        return self.stretching + self.bending - self.load_term


@dataclass(frozen=True)
class LimitFields:
    """The h-independent fields of the limit functional at a batch of chart points."""

    frame: NodeFrame
    A: np.ndarray               # (..., 3, 3) skew field of the isometry
    AG: np.ndarray              # (..., 3, 3) A grad((g2-g1) n)
    q2: QuadForm2               # Q2 reduced in the frame's tangent plane
    stretching: np.ndarray      # (..., 2, 2) stretching tensor
    bending_matrix: np.ndarray  # (..., 3, 3) grad(A n) - A Pi
    bending: np.ndarray         # (..., 2, 2) its symmetrized tangential minor


def limit_fields(material, iso, b_tan, thick, kappa, frame, An_partials):
    """Evaluate A, Q2 and both tensors at a frame, given B_tan and the partials of A n there.

    The material enters only through its Q3, reduced in each point's tangent frame.
    """
    A = iso.A_at(frame)
    AG = A @ grad3_gamma_n(frame, thick)
    M = bending_matrix(frame, A, An_partials)
    Mt = frame.tan2(M)
    return LimitFields(frame=frame, A=A, AG=AG,
                       q2=reduce_q2(material.q3, frame.n, frame.t1, frame.t2),
                       stretching=stretching_tensor(frame, A, AG, b_tan, kappa),
                       bending_matrix=M, bending=0.5 * (Mt + transpose(Mt)))


def eval_I(fields, thick, quad):
    """The variable-thickness von Karman energy of (V, B_tan).

    stretching = (1/2) integral of (g1+g2)   Q2(stretching tensor)
    bending    = (1/24) integral of (g1+g2)^3 Q2(bending tensor)

    fields are the LimitFields at the nodes of quad.
    """
    weights = quad.weights
    q2 = fields.q2
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
