"""Dead loads on the shell: extension, rotation-maximized action, total energy.

A load is its (N, 3) array of limit values f at the quadrature nodes,
built once per scene; `eval_J_h` alone scales it to f^h = h sqrt(e_h) f.
Loads are extended through the thickness with the det(Id + t Pi)^{-1}
weight, f^h(x + t n) = det(Id + t Pi)^{-1} f^h(x), which makes transversal
integrals of the extension collapse exactly; moment matrices and the work
are therefore assembled from the closed-form transversal reduction.  The
moment matrix is A + h B in f^h, from two h-independent products, and the
work reads y^h once over (T, N), through its transversal moments
(`RecoveryDeformation.transversal_sum`).  Every
load integral is an array sum over the nodes, and every maximized action,
with its tie rule, comes from `wahba_maximize`.  Its sampled check scores
random quaternions against `action_form(N)`, formed once for all the
batches `rotation_actions` reads.  The `load-align` study forms it for the
(24, m) stack G N of the cube's 24 rotations G times its moment matrices, so
one quaternion q scores the 24 uniform rotations R(q) G at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCaseError
from .fields import first_point
from .geometry import offset_jacobian  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .recovery3d import check_points

PROCRUSTES_TIE_TOL = 1e-10


def load_compatibility_residual(thick, f, squad):
    """The pair (norm, mass): the norm of int (g1+g2) f dS and the field's
    L1 mass int (g1+g2) |f| dS.

    f holds the load's values at the nodes of squad.  The compatibility
    condition requires the norm to vanish at quadrature accuracy relative
    to the mass; `studies._run_gamma` forms that ratio and refuses a load
    whose norm exceeds 1e-8 of the mass, in which the scaling factor cancels.
    """
    wmu = squad.weights * thick.total(squad.frame.u)
    total = (wmu[:, None] * f).sum(axis=0)
    mass = float(np.sum(wmu * np.linalg.norm(f, axis=-1)))
    return float(np.linalg.norm(total)), mass


@dataclass(frozen=True)
class ActionMaximum:
    """The maximum of tr(Q N) over rotations Q and the set of its maximizers."""

    moment_matrix: np.ndarray
    optimal_rotation: np.ndarray  # the maximizer closest to Id
    value: float
    classification: str           # unique | one_parameter_family | all_SO3


def wahba_maximize(N, tie_tol=PROCRUSTES_TIE_TOL):
    """Maximize tr(Q N) over SO(3) in closed form (orthogonal-factor decomposition).

    Returns (Q, value, classification).  Singular values within tie_tol of
    zero or of each other are ties; a tie is broken toward the maximizer
    closest to the identity in geodesic distance.
    """
    N = np.asarray(N, dtype=float)
    U, sv, Vt = np.linalg.svd(N)
    V = Vt.T
    s0 = float(np.sign(np.linalg.det(V @ U.T))) or 1.0
    value = float(sv[0] + sv[1] + s0 * sv[2])
    if sv[0] <= tie_tol:
        return np.eye(3), value, "all_SO3"
    if not (sv[1] <= tie_tol or (s0 < 0.0 and sv[1] - sv[2] <= tie_tol)):
        return V @ np.diag([1.0, 1.0, s0]) @ U.T, value, "unique"

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
    return V @ Z @ U.T, value, "one_parameter_family"


def _moment_products(f, thick, squad):
    """The h-independent products A = int_S (g1+g2) x f^T and
    B = (1/2) int_S (g2^2 - g1^2) n f^T of a load f at the nodes of squad."""
    fr = squad.frame
    g1v, g2v = thick.g1.value(fr.u), thick.g2.value(fr.u)
    A = (squad.weights[:, None] * (g1v + g2v)[:, None] * fr.x).T @ f
    B = (squad.weights[:, None] * (0.5 * (g2v ** 2 - g1v ** 2))[:, None] * fr.n).T @ f
    return A, B


def moment_matrix(fh, thick, h, squad):
    """N = (1/h) int_{S^h} z (f^h)^T dz via the exact transversal reduction.

    fh holds the scaled load f^h at the nodes of squad.  The extension
    weight cancels the volume element, leaving N = A + h B, with
    A = int_S (g1+g2) x (f^h)^T and B = (1/2) int_S (g2^2 - g1^2) n (f^h)^T.
    """
    A, B = _moment_products(fh, thick, squad)
    return A + h * B


def maximize_action(fh, thick, h, squad):
    """The maximized action m^h of f^h over all rotations of the shell."""
    N = moment_matrix(fh, thick, h, squad)
    return ActionMaximum(N, *wahba_maximize(N))


def example_maximizer_set(f, thick, squad):
    """Maximizer set of the limit action under the scaling f^h = h sqrt(e_h) f.

    f holds the limit load at the nodes of squad.  Refuses g1 != g2: outside
    this case only one inclusion of the maximizer-set identity survives, so
    no classification is computed.  The limit action is tr(Q A), with the
    moment product A = int_S (g1+g2) x f^T that `moment_matrix` and
    `eval_J_h` read.  Singular values within 1e-8 times the L1 mass of its
    integrand are ties (quadrature resolution), so the classification does
    not change with the scale of f; when every rotation maximizes (a zero
    load among them), the value is 0.
    """
    fr = squad.frame
    gamma = thick.gamma(fr.u)
    uneven = np.abs(gamma) > 1e-12
    if np.any(uneven):
        raise UnsupportedCaseError(
            f"maximizer-set classification requires g1 = g2; "
            f"g2 - g1 = {gamma[np.argmax(uneven)]:.3e} at u={first_point(fr.u, uneven)}")
    A, _ = _moment_products(f, thick, squad)
    mass = float(np.sum(squad.weights * thick.total(fr.u) * np.linalg.norm(fr.x, axis=-1)
                        * np.linalg.norm(f, axis=-1)))
    Q, value, classification = wahba_maximize(A, tie_tol=1e-8 * mass)
    if classification == "all_SO3":
        value = 0.0
    return ActionMaximum(A, Q, value, classification)


def eval_J_h(rec, E_h, f, squad, trule):
    """Total shell energy J^h = E^h + m^h - (1/h) int_{S^h} f^h . u^h.

    E_h is the shell energy of rec (`eval_shell_energy(...).E_h`) and f the
    limit load at the nodes of squad, scaled here to f^h = h sqrt(e_h) f.
    The moment matrix of f^h is h sqrt(e_h) (A + h B), from the two
    h-independent products of `moment_matrix` formed once, and each h's
    3x3 matrix is maximized alone.  The load integral uses the exact
    transversal cancellation of the extension weight:
    (1/h) int f^h u^h = int_S f^h(x) . int_t y^h dt dS, with y^h read once
    over (T, N), through the transversal moments of `rec.transversal_sum`
    and no (T, N, 3) array; a schedule of h gives one J^h per h.
    """
    thick = rec.thick
    h = np.asarray(rec.h)
    scale = h * np.sqrt(rec.e_h)
    A, B = _moment_products(f, thick, squad)
    action = np.reshape([wahba_maximize(sk * (A + hk * B))[1]
                         for sk, hk in zip(scale.ravel(), h.ravel())], h.shape)
    u = squad.frame.u
    check_points(rec, u, "quadrature nodes")
    t, wt = trule.across(thick, u)
    fh = scale[..., None, None] * f
    work = np.sum(squad.weights * (fh * rec.transversal_sum(t, wt)).sum(axis=-1), axis=-1)
    return (E_h + action - work)[()]


def random_rotations(rng, count, out=None):
    """Uniform random rotations as (count, 4) Gaussian quaternions (w, x, y, z).

    They are not normalized: R(q) depends only on the direction of q.  Given
    `out`, a (count, 4) array, the draw fills it and returns it.
    """
    return rng.standard_normal((count, 4), out=out)


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

    The largest eigenvalue of K is the maximum of tr(Q N) over SO(3).  A
    stack N of shape (..., 3, 3) gives a stack of shape (..., 4, 4).
    """
    N = np.asarray(N, dtype=float)
    tr = np.trace(N, axis1=-2, axis2=-1)
    K = np.empty(N.shape[:-2] + (4, 4))
    K[..., 0, 0] = tr
    K[..., 0, 1:] = K[..., 1:, 0] = np.stack(
        (N[..., 1, 2] - N[..., 2, 1], N[..., 2, 0] - N[..., 0, 2],
         N[..., 0, 1] - N[..., 1, 0]), axis=-1)
    K[..., 1:, 1:] = N + np.swapaxes(N, -1, -2) - tr[..., None, None] * np.eye(3)
    return K


# q^T K q = sum over the upper triangle i <= j of (2 - [i == j]) K_ij q_i q_j
_UPPER = tuple(zip(*[(i, j) for i in range(4) for j in range(i, 4)]))
_UPPER_WEIGHT = [1.0 if i == j else 2.0 for i, j in zip(*_UPPER)]


def action_form(N):
    """The (..., 10) weighted upper triangle of K(N) for an (..., 3, 3) stack N,
    which `rotation_actions` takes, so that many batches share one form."""
    return davenport_matrix(N)[..., _UPPER[0], _UPPER[1]] * _UPPER_WEIGHT


def rotation_actions(form, q):
    """tr(R(q) N) for a (k, 4) batch of quaternions and the (..., 10) `action_form` of N: (..., k).

    One product serves every matrix of the stack: the form against the 10
    monomials q_i q_j / |q|^2, each a product of two contiguous rows of the
    batch laid out as (4, k).
    """
    q = np.asarray(q, dtype=float)
    rows = np.ascontiguousarray(q.T)
    monomials = rows[_UPPER[0], :]  # a fresh array: the product and division go in place
    monomials *= rows[_UPPER[1], :]
    monomials /= np.einsum("ki,ki->k", q, q)
    return form @ monomials
