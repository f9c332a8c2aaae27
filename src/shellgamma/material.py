"""Stored-energy densities, their quadratic forms, and the tangential relaxation.

Q3 is the second derivative of W at the identity, kept as a symmetric 6x6
matrix over an orthonormal basis of symmetric 3x3 matrices.  Q2 relaxes Q3
over normal corrections c (x) n + n (x) c; the minimizing c is a linear map
of the tangential input and feeds the recovery deformation.  Densities,
forms and the reduction broadcast over leading batch axes (a stack of
frames gives a stack of Q2 forms, with one batched Cholesky factorization).
The brute-force minimizer and the closed form stay independent oracles,
batched over samples: the minimizer uses only Q3 evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


def sym(F):
    F = np.asarray(F, dtype=float)
    return 0.5 * (F + transpose(F))


def vec6(S):
    """Coordinates of symmetric 3x3 matrices in the orthonormal Sym(3) basis."""
    return S[..., _VEC6_ROWS, _VEC6_COLS] * _VEC6_SCALE


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
    """Density W(E) of the Green strain, so frame-indifferent, with optional hessian at Id."""

    evaluate: Callable[[np.ndarray], float]  # of the Green strain E
    hessian_at_identity: Optional[np.ndarray]  # 6x6 in the Sym(3) basis, or None
    coercivity_constant: float
    name: str = ""


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
    H = 2.0 * mu * np.eye(6) + lam * np.outer(v, v)
    # W >= (mu/2) dist^2(F, SO(3)) holds for F within distance ~0.2 of SO(3)
    return StoredEnergy(evaluate=evaluate, hessian_at_identity=H,
                        coercivity_constant=0.5 * mu,
                        name=f"isotropic(mu={mu}, lambda={lam})")


@dataclass(frozen=True)
class QuadForm3:
    """Quadratic form on 3x3 matrices that sees only the symmetric part."""

    matrix6: np.ndarray  # symmetric 6x6, positive definite unless explicitly relaxed

    def apply(self, F):
        s = vec6(sym(F))
        return _quadratic(s, self.matrix6, s)

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix6)[0])

    @staticmethod
    def from_matrix(M6, require_positive_definite=True):
        M6 = np.asarray(M6, dtype=float)
        if M6.shape != (6, 6):
            raise ParameterError("Q3 matrix must be 6x6")
        if np.max(np.abs(M6 - M6.T)) > 1e-12:
            raise ParameterError("Q3 matrix must be symmetric")
        q3 = QuadForm3(matrix6=0.5 * (M6 + M6.T))
        if require_positive_definite and q3.min_eigenvalue() <= 0.0:
            raise ParameterError("Q3 must be positive definite on symmetric matrices")
        return q3

    @staticmethod
    def from_upper_triangle(entries):
        """Build from the 21 row-major upper-triangular entries of the 6x6 matrix."""
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (21,):
            raise ParameterError("expected 21 upper-triangular entries")
        M = np.zeros((6, 6))
        k = 0
        for i in range(6):
            for j in range(i, 6):
                M[i, j] = M[j, i] = entries[k]
                k += 1
        return QuadForm3.from_matrix(M)


def as_q3(material, step=1e-4):
    """Coerce a material argument (StoredEnergy or QuadForm3) to its QuadForm3."""
    if isinstance(material, QuadForm3):
        return material
    if isinstance(material, StoredEnergy):
        if material.hessian_at_identity is not None:
            return QuadForm3.from_matrix(material.hessian_at_identity)
        return q3_from_energy(material, step=step)
    raise ParameterError(f"expected StoredEnergy or QuadForm3, got {type(material)!r}")


def q3_from_energy(W, step=1e-4):
    """Assemble Q3 = D^2 W(Id) by central second finite differences.

    Diagonal entries use the three-point formula, off-diagonal entries the
    four-point formula; the assembled 6x6 must be symmetric to 1e-8.
    """
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


@dataclass(frozen=True)
class QuadForm2:
    """Tangential relaxation of Q3 at a batch of surface frames, with its minimizer map.

    Q2(F_tan) = min over c in R^3 of Q3(F_hat + c (x) n + n (x) c), where
    F_hat embeds the 2x2 tangential input in the (t1, t2) frame.  The solve
    is a 3x3 SPD system per frame; c is linear in F_tan and returned in
    ambient coordinates.  n, t1, t2 carry the batch axes; inputs broadcast
    against them.
    """

    base: QuadForm3
    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    _chol: np.ndarray        # (..., 3, 3) Cholesky factor of the coupling matrix K
    _coupling: np.ndarray    # (..., 3, 6) vec6 of the directions e_i (x) n + n (x) e_i

    def _embed(self, F22):
        F22 = np.asarray(F22, dtype=float)
        T = np.stack([self.t1, self.t2], axis=-1)
        return T @ F22 @ transpose(T)

    def _rhs(self, F_hat):
        return matvec(self._coupling, vec6(sym(F_hat)) @ self.base.matrix6)

    def _solve(self, b):
        y = np.linalg.solve(self._chol, -b[..., None])
        return np.linalg.solve(transpose(self._chol), y)[..., 0]

    def minimizer(self, F22):
        """The unique c attaining the minimum, as an ambient 3-vector."""
        return self._solve(self._rhs(self._embed(F22)))

    def apply_tangential(self, F22):
        F_hat = self._embed(F22)
        b = self._rhs(F_hat)
        c = self._solve(b)
        # at the optimum the quadratic collapses to Q3(F_hat) + b . c
        return self.base.apply(F_hat) + (b * c).sum(axis=-1)


def reduce_q2(q3, n, t1=None, t2=None):
    """Relax q3 over normal corrections at the frames (t1, t2, n).

    n, t1, t2 have shape (..., 3).  When the tangent frame is omitted a
    deterministic orthonormal completion of n is used (isotropic materials
    are insensitive to this choice).  One Cholesky factorization covers the
    whole batch; a singular coupling block anywhere raises.
    """
    n = np.asarray(n, dtype=float)
    nn = np.sqrt((n * n).sum(axis=-1))
    off = np.abs(nn - 1.0)
    if np.any(off > 1e-10):
        raise ParameterError(
            f"normal must be a unit vector, |n| = {nn.ravel()[np.argmax(off)]}")
    if t1 is None or t2 is None:
        t1, t2 = _complete_frame(n)
    else:
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
    # L[..., i, :, :] = e_i (x) n + n (x) e_i
    L = _I3[:, :, None] * n[..., None, None, :] + n[..., None, :, None] * _I3[:, None, :]
    coupling = vec6(L)
    K = coupling @ q3.matrix6 @ transpose(coupling)
    try:
        chol = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMaterialError(
            "normal-coupling block of Q3 is not positive definite") from exc
    return QuadForm2(base=q3, n=n, t1=t1, t2=t2, _chol=chol, _coupling=coupling)


def _complete_frame(n):
    ref = np.where(np.abs(n[..., :1]) < 0.9, _I3[0], _I3[1])
    t1 = ref - (ref * n).sum(axis=-1)[..., None] * n
    t1 /= np.sqrt((t1 * t1).sum(axis=-1))[..., None]
    t2 = np.cross(n, t1)
    return t1, t2


def isotropic_q2_closed_form(mu, lam, F22):
    """2 mu |sym F|^2 + (2 mu lam / (2 mu + lam)) (tr F)^2 for tangential inputs (..., 2, 2)."""
    S = sym(F22)
    trace = S[..., 0, 0] + S[..., 1, 1]
    return (2.0 * mu * (S * S).sum(axis=(-2, -1))
            + (2.0 * mu * lam / (2.0 * mu + lam)) * trace ** 2)


def relax_q2_brute_force(q3, n, F22, t1=None, t2=None, grid_radius=None,
                         grid_points=7, iterations=60):
    """Independent minimization of Q3 over c: coarse grid + exact-line-search descent.

    Uses only evaluations of Q3 (central differences of a quadratic are exact),
    so it shares no code path with the linear solve in reduce_q2.  F22 has
    shape (..., 2, 2) and broadcasts against n, t1, t2 (..., 3): every sample
    runs the grid and the descent at once, with its own radius, step and
    stopping rule.  The grid takes one Q3 call per value of its first
    coordinate; each descent step one call for the gradient probes and one
    for the curvature probes.
    """
    n = np.asarray(n, dtype=float)
    if t1 is None or t2 is None:
        t1, t2 = _complete_frame(n)
    T = np.stack([t1, t2], axis=-1)
    F22 = np.asarray(F22, dtype=float)
    F_hat = T @ F22 @ transpose(T)
    batch = F_hat.shape[:-2]

    def q(c):
        C = c[..., :, None] * n[..., None, :]
        return q3.apply(F_hat + C + transpose(C))

    if grid_radius is None:
        grid_radius = 2.0 * (1.0 + np.max(np.abs(F22), axis=(-2, -1)))
    radius = np.broadcast_to(np.asarray(grid_radius, dtype=float), batch)
    axis = np.linspace(-radius, radius, grid_points, axis=-1)       # (..., P)
    j, k = np.divmod(np.arange(grid_points ** 2), grid_points)
    best_c = np.zeros(batch + (3,))
    best_v = q(best_c)
    for i in range(grid_points):
        # the (b, d) plane at the i-th a, in loop order; the first strict minimum wins
        plane = np.stack([axis[..., np.full_like(j, i)], axis[..., j], axis[..., k]], axis=-1)
        grid = np.moveaxis(plane, -2, 0)                              # (P*P, ..., 3)
        values = q(grid)
        first = np.argmin(values, axis=0)
        low = values.min(axis=0)
        better = low < best_v
        best_c = np.where(better[..., None],
                          np.take_along_axis(grid, first[None, ..., None], axis=0)[0], best_c)
        best_v = np.where(better, low, best_v)

    delta = 1e-3 * (1.0 + radius)
    shifts = delta[..., None, None] * np.concatenate([np.eye(3), -np.eye(3)])  # (..., 6, 3)
    c = best_c
    moving = np.ones(batch, dtype=bool)
    for _ in range(iterations):
        v = q(np.moveaxis(c[..., None, :] + shifts, -2, 0))
        g = np.moveaxis((v[:3] - v[3:]) / (2.0 * delta), 0, -1)
        gn = np.sqrt((g * g).sum(axis=-1))
        moving &= gn >= 1e-14
        d = -g / np.where(moving, gn, 1.0)[..., None]
        dd = delta[..., None] * d
        v = q(np.stack([c + dd, c, c - dd]))
        curv = (v[0] - 2.0 * v[1] + v[2]) / delta ** 2
        moving &= curv > 0.0
        step = gn / np.where(moving, curv, 1.0)
        c = np.where(moving[..., None], c + step[..., None] * d, c)
        if not moving.any():
            break
    return q(c), c
