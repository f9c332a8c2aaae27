"""Dead loads on the shell: extension, rotation-maximized action, total energy.

Loads are declared on the mid-surface and extended through the thickness
with the det(Id + t Pi)^{-1} weight, which makes transversal integrals of
the extension collapse exactly; moment matrices are therefore assembled
from the closed-form transversal reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, UnsupportedCaseError
from .geometry import offset_jacobian

PROCRUSTES_TIE_TOL = 1e-10


@dataclass(frozen=True)
class LoadField:
    """Surface force density with its h-scaling declaration.

    scaling "h_sqrt_eh" declares the von Karman schedule f^h = h sqrt(e_h) f;
    a user schedule supplies the multiplicative factor directly.
    """

    f: Callable  # frame -> R^3 (limit load, per unit area of S)
    scaling: str = "h_sqrt_eh"
    schedule: Optional[Callable] = None  # (h, e_h) -> scalar factor

    def factor(self, h, e_h):
        if self.scaling == "h_sqrt_eh":
            return h * float(np.sqrt(e_h))
        if self.scaling == "schedule":
            if self.schedule is None:
                raise ParameterError("scaling 'schedule' requires a schedule callable")
            return float(self.schedule(h, e_h))
        raise ParameterError(f"unknown load scaling {self.scaling!r}")


def load_compatibility_residual(patch, thick, load, squad):
    """Norm of int (g1+g2) f dS relative to the field's L1 mass.

    The compatibility condition requires this to vanish at quadrature
    accuracy (<= 1e-8 of the mass); the scaling factor cancels.
    """
    total = np.zeros(3)
    mass = 0.0
    for node in squad.nodes:
        fr = node.frame
        val = np.asarray(load.f(fr), dtype=float)
        mu_t = thick.total(fr.u)
        total += node.weight * mu_t * val
        mass += node.weight * mu_t * float(np.linalg.norm(val))
    return float(np.linalg.norm(total)), mass


def extend_load(patch, f_surface, u, t):
    """Thickness extension f^h(x + t n) = det(Id + t Pi)^{-1} f^h(x); t physical."""
    _, det = offset_jacobian(patch, u, t)
    fr = patch.frame(u)
    return np.asarray(f_surface(fr), dtype=float) / det


@dataclass(frozen=True)
class RotationActionResult:
    moment_matrix: np.ndarray     # N = (1/h) int_{S^h} z (f^h)^T dz
    optimal_rotation: np.ndarray
    m_h: float
    non_unique: bool
    singular_values: np.ndarray


def wahba_maximize(N, tie_tol=PROCRUSTES_TIE_TOL):
    """Maximize tr(Q N) over SO(3) in closed form (orthogonal-factor decomposition).

    Returns (Q, value, non_unique, singular_values).  Rank-deficient ties are
    broken toward the rotation closest to the identity in geodesic distance.
    """
    N = np.asarray(N, dtype=float)
    U, sv, Vt = np.linalg.svd(N)
    V = Vt.T
    s0 = float(np.sign(np.linalg.det(V @ U.T)))
    if s0 == 0.0:
        s0 = 1.0
    value = sv[0] + sv[1] + s0 * sv[2]
    ambiguous = bool(sv[1] <= tie_tol or (s0 < 0.0 and sv[1] - sv[2] <= tie_tol))
    if not ambiguous:
        Q = V @ np.diag([1.0, 1.0, s0]) @ U.T
        return Q, float(value), False, sv

    if sv[0] <= tie_tol:
        return np.eye(3), float(value), True, sv

    # one-parameter optimal family in the (2, 3) singular block; pick the
    # member maximizing tr(Q), i.e. closest to Id
    K = U.T @ V
    rotation_block = s0 > 0.0  # det of the 2x2 block must match s0
    if rotation_block:
        a = K[1, 1] + K[2, 2]
        b = K[2, 1] - K[1, 2]
    else:
        a = K[1, 1] - K[2, 2]
        b = K[1, 2] + K[2, 1]
    theta = np.arctan2(b, a)
    c, s = np.cos(theta), np.sin(theta)
    if rotation_block:
        B = np.array([[c, -s], [s, c]])
    else:
        B = np.array([[c, s], [s, -c]])
    Z = np.eye(3)
    Z[1:, 1:] = B
    Q = V @ Z @ U.T
    return Q, float(value), True, sv


def moment_matrix(load, thick, h, e_h, squad):
    """N = (1/h) int_{S^h} z (f^h)^T dz via the exact transversal reduction.

    The extension weight cancels the volume element, leaving
    int_S (g1+g2) x (f^h)^T + (h/2) int_S (g2^2 - g1^2) n (f^h)^T.
    """
    fac = load.factor(h, e_h)
    N = np.zeros((3, 3))
    for node in squad.nodes:
        fr = node.frame
        fh = fac * np.asarray(load.f(fr), dtype=float)
        g1v, g2v = thick.g1.value(fr.u), thick.g2.value(fr.u)
        N += node.weight * ((g1v + g2v) * np.outer(fr.x, fh)
                            + 0.5 * h * (g2v ** 2 - g1v ** 2) * np.outer(fr.n, fh))
    return N


def maximize_action(load, thick, h, e_h, squad):
    """The maximized action m^h of f^h over all rotations of the shell."""
    N = moment_matrix(load, thick, h, e_h, squad)
    Q, value, non_unique, sv = wahba_maximize(N)
    return RotationActionResult(moment_matrix=N, optimal_rotation=Q,
                                m_h=float(value), non_unique=non_unique,
                                singular_values=sv)


@dataclass(frozen=True)
class ExampleMaximizerSet:
    """Maximizer set of the limit action for the balanced scaling with g1 = g2."""

    moment_matrix: np.ndarray     # int_S x f^T dS of the limit load
    optimal_rotation: np.ndarray
    max_action: float
    classification: str           # unique | one_parameter_family | all_SO3
    r_value: float
    singular_values: np.ndarray


def example_maximizer_set(patch, load, thick, squad, tol=1e-8):
    """Maximizer set and relaxation value under the special scaling f^h = h sqrt(e_h) f.

    Refuses other scalings or g1 != g2: outside this case only one inclusion
    of the maximizer-set identity survives, so no classification is computed.
    Singular values below tol times the L1 mass of the moment integrand are
    treated as zero (quadrature resolution).
    """
    if load.scaling != "h_sqrt_eh":
        raise UnsupportedCaseError(
            "maximizer-set classification requires the scaling f^h = h sqrt(e_h) f")
    for node in squad.nodes:
        if abs(thick.gamma(node.frame.u)) > 1e-12:
            raise UnsupportedCaseError(
                f"maximizer-set classification requires g1 = g2; "
                f"g2 - g1 = {thick.gamma(node.frame.u):.3e} at u={tuple(node.frame.u)}")
    N0 = np.zeros((3, 3))
    mass = 0.0
    for node in squad.nodes:
        fr = node.frame
        fv = np.asarray(load.f(fr), dtype=float)
        N0 += node.weight * np.outer(fr.x, fv)
        mass += node.weight * float(np.linalg.norm(fr.x) * np.linalg.norm(fv))
    U, sv, Vt = np.linalg.svd(N0)
    s0 = float(np.sign(np.linalg.det(Vt.T @ U.T))) or 1.0
    Q, value, _, _ = wahba_maximize(N0)
    floor = tol * max(1.0, mass)
    if sv[0] <= floor:
        classification = "all_SO3"
        Q = np.eye(3)
        value = 0.0
    elif sv[1] <= floor:
        classification = "one_parameter_family"
    elif s0 < 0.0 and sv[1] - sv[2] <= floor:
        classification = "one_parameter_family"
    else:
        classification = "unique"
    return ExampleMaximizerSet(moment_matrix=N0, optimal_rotation=Q,
                               max_action=float(value),
                               classification=classification, r_value=0.0,
                               singular_values=sv)


def eval_J_h(rec, E_h, load, squad, trule):
    """Total shell energy J^h = E^h + m^h - (1/h) int_{S^h} f^h . u^h.

    E_h is the shell energy of rec (`eval_shell_energy(...).E_h`).  The load
    integral uses the exact transversal cancellation of the extension weight:
    (1/h) int f^h u^h = int_S f^h(x) . int_t y^h dt dS, with y^h read once
    over the (T, N) grid of transversal and surface nodes.
    """
    thick = rec.thick
    action = maximize_action(load, thick, rec.h, rec.e_h, squad)
    fac = load.factor(rec.h, rec.e_h)
    u = squad.frame.u
    t, wt = trule.across(thick, u)
    y_int = np.sum(wt[..., None] * rec.evaluate(u, t), axis=0)
    fh = fac * np.array([load.f(node.frame) for node in squad.nodes], dtype=float)
    work = float(np.sum(squad.weights * (fh * y_int).sum(axis=-1)))
    return E_h + action.m_h - work


def random_rotations(rng, count):
    """Uniform rotations from normalized quaternions, as an (n, 3, 3) array."""
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - z * w)
    R[:, 0, 2] = 2 * (x * z + y * w)
    R[:, 1, 0] = 2 * (x * y + z * w)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - x * w)
    R[:, 2, 0] = 2 * (x * z - y * w)
    R[:, 2, 1] = 2 * (y * z + x * w)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def rotation_actions(N, rotations):
    """tr(Q N) for a batch of rotations."""
    return np.einsum("kij,ji->k", rotations, np.asarray(N, dtype=float))
