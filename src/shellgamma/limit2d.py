"""Evaluation of the two-dimensional limit energy functionals.

The stretching term integrates (g1+g2) Q2 of the stretching tensor, the
bending term integrates (g1+g2)^3/12 Q2 of the bending tensor, both with a
per-node Q2 built from the node's tangent frame.  The total-energy variant
subtracts the dead-load action against a fixed rotation and adds the
relaxation value supplied by the loads module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import surface_quadrature
from .kinematics import StrainField, bending_tensor, stretching_tensor
from .material import as_q3, reduce_q2


@dataclass(frozen=True)
class LimitEnergyBreakdown:
    stretching: float
    bending: float
    load_term: float
    relaxation_term: float

    @property
    def total(self):
        return self.stretching + self.bending - self.load_term + self.relaxation_term


def _node_q2(q3, frame):
    return reduce_q2(q3, frame.n, frame.t1, frame.t2)


def eval_I(patch, thick, material, iso, strain, kappa, quad=None):
    """The variable-thickness von Karman energy of (V, B_tan).

    stretching = (1/2) integral of (g1+g2)   Q2(stretching tensor)
    bending    = (1/24) integral of (g1+g2)^3 Q2(bending tensor)
    """
    if quad is None:
        quad = surface_quadrature(patch)
    q3 = as_q3(material)
    s_tensor = stretching_tensor(iso, strain, thick, kappa, patch)
    b_tensor = bending_tensor(iso, patch)
    stretching = 0.0
    bending = 0.0
    for node in quad.nodes:
        fr = node.frame
        q2 = _node_q2(q3, fr)
        mu_t = thick.total(fr.u)
        stretching += 0.5 * node.weight * mu_t * q2.apply_tangential(s_tensor(fr))
        bending += node.weight * mu_t ** 3 / 24.0 * q2.apply_tangential(b_tensor(fr))
    return LimitEnergyBreakdown(stretching=stretching, bending=bending,
                                load_term=0.0, relaxation_term=0.0)


def eval_I_tilde(patch, thick, material, iso, quad=None):
    """Bending-only energy for approximately robust surfaces; equals eval_I().bending."""
    return eval_I(patch, thick, material, iso, StrainField.zero(patch.domain), 0.0,
                  quad).bending


def check_rotation(Q, tol=1e-10):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3):
        raise ParameterError("rotation must be a 3x3 matrix")
    if np.linalg.norm(Q.T @ Q - np.eye(3)) > tol:
        raise ParameterError("matrix is not orthogonal within 1e-10")
    if np.linalg.det(Q) < 0.0:
        raise ParameterError("matrix has determinant -1, not a rotation")
    return Q


def eval_J(patch, thick, material, iso, strain, kappa, f, Qbar, r_value, quad=None):
    """Total limit energy J = I - integral (g1+g2) f . (Qbar V) + r_value.

    f is the limit surface load (frame -> R^3); r_value is the relaxation
    penalty of Qbar, supplied externally (zero in the maximizer-set example).
    """
    Qbar = check_rotation(Qbar)
    if quad is None:
        quad = surface_quadrature(patch)
    base = eval_I(patch, thick, material, iso, strain, kappa, quad=quad)
    V = iso.displacement
    load = 0.0
    for node in quad.nodes:
        fr = node.frame
        load += node.weight * thick.total(fr.u) * float(
            np.asarray(f(fr), dtype=float) @ (Qbar @ V.value(fr.u)))
    return LimitEnergyBreakdown(stretching=base.stretching, bending=base.bending,
                                load_term=load, relaxation_term=float(r_value))
