"""Stored-energy densities, their quadratic forms, and the tangential relaxation.

Q3 is the second derivative of W at the identity, kept as a symmetric 6x6
matrix over an orthonormal basis of symmetric 3x3 matrices.  Every material
is a StoredEnergy that carries its Q3, built once from the closed form;
q3_from_energy assembles it from W alone, for checking.  Q2 relaxes Q3
over normal corrections c (x) n + n (x) c; the minimizing c is a linear map
of the tangential input and feeds the recovery deformation.  Densities,
forms and the reduction broadcast over leading batch axes (a stack of
frames gives a stack of Q2 forms); the 3x3 coupling blocks, a quadratic form
in the normal alone, are formed from n (x) n by one product, then factored
and solved by closed-form Cholesky and substitution, elementwise over the
batch.
The brute-force minimizer and the closed form stay independent oracles,
batched over samples: the minimizer reads nothing of Q3 but apply, and
runs two cycles of three conjugate-gradient steps from c = 0 on its values
alone, 13 batched Q3 calls in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMaterialError, DifferentiationError, ParameterError
from .fields import matvec, transpose

# Orthonormal basis of Sym(3): diagonal units, then (e_i e_j^T + e_j e_i^T)/sqrt(2)
_SQRT2 = np.sqrt(2.0)
_OFFDIAG = [(0, 1), (0, 2), (1, 2)]
_VEC6_ROWS = np.array([0, 1, 2, 0, 0, 1])
_VEC6_COLS = np.array([0, 1, 2, 1, 2, 2])
_VEC6_SCALE = np.array([1.0, 1.0, 1.0, _SQRT2, _SQRT2, _SQRT2])
_I3 = np.eye(3)
# conjugate-gradient steps of relax_q2_brute_force: two cycles of 3, the
# dimension of c; the first is exact up to rounding, the second clears the
# rounding of the finite differences.  A call makes 2 * 6 + 1 = 13 Q3 calls
_CG_STEPS = 6


def sym(F):
    F = np.asarray(F, dtype=float)
    return 0.5 * (F + transpose(F))


def vec6(S):
    """Coordinates of symmetric 3x3 matrices in the orthonormal Sym(3) basis."""
    return S[..., _VEC6_ROWS, _VEC6_COLS] * _VEC6_SCALE


# the rows vec6(e_i (x) n + n (x) e_i) are linear in n: they are n @ _COUPLING_OF_N
# reshaped to (3, 6), whose row j holds the rows at n = e_j
_COUPLING_OF_N = vec6(_I3[:, None, :, None] * _I3[None, :, None, :]
                      + _I3[:, None, None, :] * _I3[None, :, :, None]).reshape(3, 18)


def vec6_sym(F):
    """vec6(sym(F)) of 3x3 matrices F, from the six entry pairs alone: no transposed copy."""
    F = np.asarray(F, dtype=float)
    return 0.5 * (F[..., _VEC6_ROWS, _VEC6_COLS] + F[..., _VEC6_COLS, _VEC6_ROWS]) * _VEC6_SCALE


def _quadratic(x, M, y):
    """x^T M y over leading batch axes of x and y."""
    return ((x @ M)[..., None, :] @ y[..., :, None])[..., 0, 0]


def basis_sym3():
    out = []
    for i in range(3):
        B = np.zeros((3, 3))
        B[i, i] = 1.0
        out.append(B)
    for i, j in _OFFDIAG:
        B = np.zeros((3, 3))
        B[i, j] = B[j, i] = 1.0 / _SQRT2
        out.append(B)
    return out


def green_strain(F):
    """E = (F^T F - Id)/2 of each 3x3 matrix F, over leading batch axes."""
    return 0.5 * (transpose(F) @ F - _I3)


@dataclass(frozen=True)
class StoredEnergy:
    """Density W(E) of the Green strain, so frame-indifferent, with its Q3 = D^2 W(Id).

    The limit functional reads W only through q3; the 3D energy reads evaluate.
    """

    evaluate: Callable[[np.ndarray], float]  # of the Green strain E
    q3: QuadForm3


def make_isotropic(mu, lam):
    """St Venant-Kirchhoff density W(E) = mu |E|^2 + lam/2 (tr E)^2 of the Green strain E.

    In terms of F, (mu/4)|F^T F - Id|^2 + (lam/8) tr(F^T F - Id)^2.  The
    hessian at the identity is Q3(F) = 2 mu |sym F|^2 + lam (tr F)^2.
    """
    mu, lam = float(mu), float(lam)
    if mu <= 0.0:
        raise ParameterError("mu must be positive")
    if lam < 0.0:
        raise ParameterError("lambda must be nonnegative")

    def evaluate(E):
        trace = E[..., 0, 0] + E[..., 1, 1] + E[..., 2, 2]
        return mu * (E * E).sum(axis=(-2, -1)) + 0.5 * lam * trace ** 2

    v = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return StoredEnergy(evaluate=evaluate,
                        q3=QuadForm3.from_matrix(2.0 * mu * np.eye(6) + lam * np.outer(v, v)))


def quadratic_energy(q3):
    """The density W(E) = (1/2) Q3(E) of the Green strain E, whose Q3 is q3 itself."""
    return StoredEnergy(evaluate=lambda E: 0.5 * q3.apply(E), q3=q3)


@dataclass(frozen=True)
class QuadForm3:
    """Quadratic form on 3x3 matrices that sees only the symmetric part."""

    matrix6: np.ndarray  # symmetric 6x6; positive definite when built by from_matrix

    def apply(self, F):
        s = vec6_sym(F)
        return _quadratic(s, self.matrix6, s)

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix6)[0])

    @staticmethod
    def from_matrix(M6):
        M6 = np.asarray(M6, dtype=float)
        if M6.shape != (6, 6):
            raise ParameterError("Q3 matrix must be 6x6")
        if np.max(np.abs(M6 - M6.T)) > 1e-12:
            raise ParameterError("Q3 matrix must be symmetric")
        q3 = QuadForm3(matrix6=0.5 * (M6 + M6.T))
        if q3.min_eigenvalue() <= 0.0:
            raise ParameterError("Q3 must be positive definite on symmetric matrices")
        return q3

    @staticmethod
    def from_upper_triangle(entries):
        """Build from the 21 row-major upper-triangular entries of the 6x6 matrix."""
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (21,):
            raise ParameterError("expected 21 upper-triangular entries")
        M = np.zeros((6, 6))
        i, j = np.triu_indices(6)  # row-major, the order of the entries
        M[i, j] = M[j, i] = entries
        return QuadForm3.from_matrix(M)


def q3_from_energy(W):
    """Assemble Q3 = D^2 W(Id) by central second finite differences.

    Diagonal entries use the three-point formula, off-diagonal entries the
    four-point formula; the assembled 6x6 must be symmetric to 1e-8.
    """
    step = 1e-4

    def at(F):
        return W.evaluate(green_strain(F))

    basis = basis_sym3()
    I = np.eye(3)
    H = np.zeros((6, 6))
    for i in range(6):
        Bi = basis[i]
        H[i, i] = (at(I + step * Bi) - 2.0 * at(I) + at(I - step * Bi)) / step ** 2
        for j in range(i + 1, 6):
            Bj = basis[j]
            val = (at(I + step * (Bi + Bj)) - at(I + step * (Bi - Bj))
                   - at(I - step * (Bi - Bj)) + at(I - step * (Bi + Bj))) / (4.0 * step ** 2)
            H[i, j] = val
            H[j, i] = val
    if not np.all(np.isfinite(H)):
        raise DifferentiationError("energy density produced non-finite values near Id")
    asym = float(np.max(np.abs(H - H.T)))
    if asym > 1e-8:
        raise DifferentiationError(f"assembled hessian asymmetry {asym:.2e} > 1e-8")
    return QuadForm3.from_matrix(0.5 * (H + H.T))


def cholesky3(K):
    """Lower Cholesky factor L (L L^T = K) of each 3x3 matrix K, in closed form.

    Returns (L, bad), where bad marks the matrices with a pivot that is not
    > 0 (NaN included).  There the square roots see 1.0 instead, so no
    warning is raised and the factor holds placeholders.
    """
    bad = np.zeros(K.shape[:-2], dtype=bool)

    def root(pivot):
        nonlocal bad
        bad = bad | ~(pivot > 0.0)
        return np.sqrt(np.where(bad, 1.0, pivot))

    l00 = root(K[..., 0, 0])
    l10 = K[..., 1, 0] / l00
    l20 = K[..., 2, 0] / l00
    l11 = root(K[..., 1, 1] - l10 * l10)
    l21 = (K[..., 2, 1] - l20 * l10) / l11
    l22 = root(K[..., 2, 2] - (l20 * l20 + l21 * l21))
    zero = np.zeros_like(l00)
    L = np.stack([l00, zero, zero, l10, l11, zero, l20, l21, l22], axis=-1)
    return L.reshape(K.shape), bad


def cho_solve3(L, b):
    """x with L L^T x = b, by forward and back substitution on the factor L.

    L has shape (..., 3, 3) and b (..., 3); their batch axes broadcast.
    """
    l00, l10, l11 = L[..., 0, 0], L[..., 1, 0], L[..., 1, 1]
    l20, l21, l22 = L[..., 2, 0], L[..., 2, 1], L[..., 2, 2]
    y0 = b[..., 0] / l00
    y1 = (b[..., 1] - l10 * y0) / l11
    y2 = (b[..., 2] - (l20 * y0 + l21 * y1)) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - (l10 * x1 + l20 * x2)) / l00
    return np.stack([x0, x1, x2], axis=-1)


@dataclass(frozen=True)
class QuadForm2:
    """Tangential relaxation of Q3 at a batch of surface frames, with its minimizer map.

    Q2(F_tan) = min over c in R^3 of Q3(F_hat + c (x) n + n (x) c), where
    F_hat = T F_tan T^T embeds the 2x2 tangential input in the orthonormal
    tangent frame T.  The solve is a 3x3 SPD system per frame, by substitution
    on its Cholesky factor; c is linear in F_tan and returned in ambient
    coordinates.  T and the factor carry the batch axes; inputs broadcast
    against them.
    """

    base: QuadForm3
    tangents: np.ndarray     # (..., 3, 2) T, the orthonormal tangent frame
    _chol: np.ndarray        # (..., 3, 3) Cholesky factor of the coupling matrix K
    _coupling: np.ndarray    # (..., 3, 6) vec6 of the directions e_i (x) n + n (x) e_i

    def _embed(self, F22):
        T = self.tangents
        return T @ np.asarray(F22, dtype=float) @ transpose(T)

    def _rhs(self, F_hat):
        return matvec(self._coupling, vec6_sym(F_hat) @ self.base.matrix6)

    def _solve(self, b):
        return cho_solve3(self._chol, -b)

    def minimizer(self, F22):
        """The unique c attaining the minimum, as an ambient 3-vector."""
        return self._solve(self._rhs(self._embed(F22)))

    def apply_tangential(self, F22):
        F_hat = self._embed(F22)
        b = self._rhs(F_hat)
        c = self._solve(b)
        # at the optimum the quadratic collapses to Q3(F_hat) + b . c
        return self.base.apply(F_hat) + (b * c).sum(axis=-1)


def _first_frame(bad):
    """Batch index of the first frame (in C order) where the mask `bad` holds."""
    return tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))


def reduce_q2(q3, n, T):
    """Relax q3 over normal corrections at the frames (T, n).

    n has shape (..., 3) and T (..., 3, 2); the tangent frame T fixes the
    coordinates of the tangential input, which matter for an anisotropic q3.
    The coupling rows vec6(e_i (x) n + n (x) e_i) are linear in n, one product
    with a constant (3, 18) matrix, and the coupling block K of every frame is
    a quadratic form in n: one product of n (x) n with a (9, 9) matrix formed
    from q3 per call.  K is factored by the closed-form cholesky3.
    A normal that is not a unit vector (NaN included) raises ParameterError,
    and a block that is not positive definite DegenerateMaterialError, each
    naming the first such frame by its batch index.
    """
    n = np.asarray(n, dtype=float)
    nn = np.sqrt((n * n).sum(axis=-1))
    bad = ~(np.abs(nn - 1.0) <= 1e-10)  # a NaN normal fails too
    if bad.any():
        i = _first_frame(bad)
        raise ParameterError(f"normal must be a unit vector at frame {i}, |n| = {nn[i]}")
    # row i of the coupling is vec6(e_i (x) n + n (x) e_i), and K = coupling M6 coupling^T
    # is a quadratic form in n alone: K_ab = sum_jm n_j n_m Z[3 j + m, 3 a + b]
    coupling = (n @ _COUPLING_OF_N).reshape(n.shape[:-1] + (3, 6))
    C = _COUPLING_OF_N.reshape(3, 3, 6)
    Z = np.einsum("jak,kl,mbl->jmab", C, q3.matrix6, C).reshape(9, 9)
    K = ((n[..., :, None] * n[..., None, :]).reshape(n.shape[:-1] + (9,)) @ Z).reshape(
        n.shape[:-1] + (3, 3))
    chol, bad = cholesky3(K)
    if bad.any():
        i = _first_frame(bad)
        raise DegenerateMaterialError(
            f"normal-coupling block of Q3 is not positive definite at frame {i} "
            f"with n = {tuple(n[i].tolist())}")
    return QuadForm2(base=q3, tangents=np.asarray(T, dtype=float), _chol=chol,
                     _coupling=coupling)


def isotropic_q2_closed_form(mu, lam, F22):
    """2 mu |sym F|^2 + (2 mu lam / (2 mu + lam)) (tr F)^2 for tangential inputs (..., 2, 2)."""
    S = sym(F22)
    trace = S[..., 0, 0] + S[..., 1, 1]
    return (2.0 * mu * (S * S).sum(axis=(-2, -1))
            + (2.0 * mu * lam / (2.0 * mu + lam)) * trace ** 2)


def relax_q2_brute_force(q3, n, F22, T):
    """Independent minimization of Q3 over c: conjugate gradients from c = 0.

    Uses only evaluations of Q3 (central differences of a quadratic are exact),
    so it shares no code path with the linear solve in reduce_q2.  F22 has
    shape (..., 2, 2) and broadcasts against n (..., 3) and T (..., 3, 2):
    every sample runs at once, with its own probe step and stopping rule.  Each step takes
    one Q3 call for the six gradient probes c +- delta e_i, takes the
    Fletcher-Reeves direction p (reset to -g every 3 steps, the dimension of
    c) and one Q3 call for the probes c + delta u, c, c - delta u along
    u = p/|p|, whose slope and curvature give the exact line minimum of a
    quadratic.  It runs two such cycles of 3 steps: on a quadratic the first
    is exact up to rounding and the second clears the rounding of the
    differences, so with the final value a call makes 13 Q3 calls.  A sample
    stops once |g| < 1e-14, |p| = 0 or its curvature is not positive; a zero
    input keeps c = 0.
    """
    n = np.asarray(n, dtype=float)
    T = np.asarray(T, dtype=float)
    F22 = np.asarray(F22, dtype=float)
    F_hat = T @ F22 @ transpose(T)
    batch = F_hat.shape[:-2]

    def q(c):
        C = c[..., :, None] * n[..., None, :]
        return q3.apply(F_hat + C + np.swapaxes(C, -1, -2))

    # the probe step grows with the size of the input
    size = np.broadcast_to(2.0 * (1.0 + np.max(np.abs(F22), axis=(-2, -1))), batch)
    delta = 1e-3 * (1.0 + size)
    shifts = delta[..., None, None] * np.concatenate([np.eye(3), -np.eye(3)])  # (..., 6, 3)
    c = np.zeros(batch + (3,))
    moving = np.ones(batch, dtype=bool)
    for step in range(_CG_STEPS):
        v = q(np.moveaxis(c[..., None, :] + shifts, -2, 0))
        g = np.moveaxis((v[:3] - v[3:]) / (2.0 * delta), 0, -1)
        gg = (g * g).sum(axis=-1)
        moving &= gg >= 1e-28  # |g| >= 1e-14
        if step % 3:
            p = -g + (gg / np.where(moving, gg_prev, 1.0))[..., None] * p
        else:
            p = -g
        pn = np.sqrt((p * p).sum(axis=-1))
        moving &= pn > 0.0
        u = p / np.where(moving, pn, 1.0)[..., None]
        du = delta[..., None] * u
        v = q(np.stack([c + du, c, c - du]))
        slope = (v[0] - v[2]) / (2.0 * delta)
        curv = (v[0] - 2.0 * v[1] + v[2]) / delta ** 2
        moving &= curv > 0.0
        t = -slope / np.where(moving, curv, 1.0)
        c = np.where(moving[..., None], c + t[..., None] * u, c)
        gg_prev = gg
        if not moving.any():
            break
    return q(c), c
