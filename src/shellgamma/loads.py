"""Dead loads on the shell: extension, rotation-maximized action, total energy.

Loads are declared on the mid-surface and extended through the thickness
with the det(Id + t Pi)^{-1} weight, which makes transversal integrals of
the extension collapse exactly; moment matrices are therefore assembled
from the closed-form transversal reduction.  A load f(frame) is called
once with the batched frame of the quadrature nodes and returns (..., 3)
values; a constant (3,) result broadcasts over the nodes.  Every load
integral is an array sum over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, UnsupportedCaseError
from .fields import first_point
from .geometry import offset_jacobian, values_on

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


def load_compatibility_residual(thick, load, squad):
    """Norm of int (g1+g2) f dS relative to the field's L1 mass.

    The compatibility condition requires this to vanish at quadrature
    accuracy (<= 1e-8 of the mass); the scaling factor cancels.
    """
    fr = squad.frame
    val = values_on(load.f, fr, (3,))
    wmu = squad.weights * thick.total(fr.u)
    total = (wmu[:, None] * val).sum(axis=0)
    mass = float(np.sum(wmu * np.linalg.norm(val, axis=-1)))
    return float(np.linalg.norm(total)), mass


def extend_load(patch, f_surface, u, t):
    """Thickness extension f^h(x + t n) = det(Id + t Pi)^{-1} f^h(x); t physical."""
    fr = patch.frame(u)
    _, det = offset_jacobian(fr, t)
    return np.asarray(f_surface(fr), dtype=float) / det[..., None]


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
    fr = squad.frame
    fh = load.factor(h, e_h) * values_on(load.f, fr, (3,))
    g1v, g2v = thick.g1.value(fr.u), thick.g2.value(fr.u)
    z = ((g1v + g2v)[:, None] * fr.x
         + (0.5 * h * (g2v ** 2 - g1v ** 2))[:, None] * fr.n)  # transversal moment
    return (squad.weights[:, None] * z).T @ fh


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


def example_maximizer_set(load, thick, squad, tol=1e-8):
    """Maximizer set and relaxation value under the special scaling f^h = h sqrt(e_h) f.

    Refuses other scalings or g1 != g2: outside this case only one inclusion
    of the maximizer-set identity survives, so no classification is computed.
    Singular values below tol times the L1 mass of the moment integrand are
    treated as zero (quadrature resolution).
    """
    if load.scaling != "h_sqrt_eh":
        raise UnsupportedCaseError(
            "maximizer-set classification requires the scaling f^h = h sqrt(e_h) f")
    fr = squad.frame
    gamma = thick.gamma(fr.u)
    uneven = np.abs(gamma) > 1e-12
    if np.any(uneven):
        raise UnsupportedCaseError(
            f"maximizer-set classification requires g1 = g2; "
            f"g2 - g1 = {gamma[np.argmax(uneven)]:.3e} at u={first_point(fr.u, uneven)}")
    fv = values_on(load.f, fr, (3,))
    N0 = (squad.weights[:, None] * fr.x).T @ fv
    mass = float(np.sum(squad.weights * np.linalg.norm(fr.x, axis=-1)
                        * np.linalg.norm(fv, axis=-1)))
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
    fh = fac * values_on(load.f, squad.frame, (3,))
    work = float(np.sum(squad.weights * (fh * y_int).sum(axis=-1)))
    return E_h + action.m_h - work


def random_rotations(rng, count):
    """Uniform random rotations as (count, 4) Gaussian quaternions (w, x, y, z).

    They are not normalized: R(q) depends only on the direction of q.
    """
    return rng.standard_normal((count, 4))


def rotation_matrices(q):
    """R(q) of quaternions (w, x, y, z), any nonzero norm, as an (..., 3, 3) array."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - z * w)
    R[..., 0, 2] = 2 * (x * z + y * w)
    R[..., 1, 0] = 2 * (x * y + z * w)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - x * w)
    R[..., 2, 0] = 2 * (x * z - y * w)
    R[..., 2, 1] = 2 * (y * z + x * w)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def davenport_matrix(N):
    """Davenport's 4x4 K(N) with tr(R(q) N) = q^T K q / |q|^2 (the q-method).

    The largest eigenvalue of K is the maximum of tr(Q N) over SO(3).
    """
    N = np.asarray(N, dtype=float)
    tr = np.trace(N)
    K = np.empty((4, 4))
    K[0, 0] = tr
    K[0, 1:] = K[1:, 0] = (N[1, 2] - N[2, 1], N[2, 0] - N[0, 2], N[0, 1] - N[1, 0])
    K[1:, 1:] = N + N.T - tr * np.eye(3)
    return K


def rotation_actions(N, q):
    """tr(R(q) N) for a batch of quaternions, one quadratic form each."""
    q = np.asarray(q, dtype=float)
    return np.einsum("ki,ki->k", q @ davenport_matrix(N), q) / np.einsum("ki,ki->k", q, q)
