import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shellgamma as sg
from shellgamma.errors import DegenerateMaterialError, ParameterError
from shellgamma.loads import random_rotations, rotation_matrices
from shellgamma.material import (basis_sym3, cho_solve3, cholesky3, green_strain, sym, vec6,
                                 vec6_sym)
from test_geometry import random_svd_up_to_cond
from test_studies import _Q3_MATRICES


def adapted_frame():
    """The normal e3 and the tangent frame T = [e1 e2]."""
    return np.array([0.0, 0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_energy_vanishes_on_rotations():
    W = sg.make_isotropic(1.0, 1.0)
    assert W.evaluate(green_strain(np.eye(3))) == 0.0
    rng = np.random.default_rng(7)
    for R in rotation_matrices(random_rotations(rng, 20)):
        assert abs(W.evaluate(green_strain(R))) <= 1e-12


def test_frame_indifference():
    W = sg.make_isotropic(2.0, 0.5)
    rng = np.random.default_rng(8)
    for _ in range(50):
        F = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        R = rotation_matrices(random_rotations(rng, 1))[0]
        ref = W.evaluate(green_strain(F))
        assert abs(W.evaluate(green_strain(R @ F)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_coercivity_near_rotations():
    # W(F) >= (mu/2) dist^2(F, SO(3)) for F within distance ~0.2 of SO(3)
    mu = 1.5
    W = sg.make_isotropic(mu, 0.7)
    rng = np.random.default_rng(9)
    for _ in range(100):
        R = rotation_matrices(random_rotations(rng, 1))[0]
        P = rng.normal(size=(3, 3))
        P *= 0.15 / np.linalg.norm(P)
        F = R + P
        sv = np.linalg.svd(F, compute_uv=False)
        dist2 = float(np.sum((sv - 1.0) ** 2))
        assert W.evaluate(green_strain(F)) >= 0.5 * mu * dist2


def test_parameter_errors():
    with pytest.raises(ParameterError):
        sg.make_isotropic(0.0, 1.0)
    with pytest.raises(ParameterError):
        sg.make_isotropic(1.0, -0.1)


def test_hessian_closed_form_values():
    q3 = sg.make_isotropic(1.0, 0.0).q3
    E12 = np.zeros((3, 3))
    E12[0, 1] = E12[1, 0] = 1.0
    assert q3.apply(E12) == pytest.approx(4.0, rel=1e-14)

    skew = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
    assert q3.apply(skew) == pytest.approx(0.0, abs=1e-14)

    q3b = sg.make_isotropic(1.0, 1.0).q3
    assert q3b.apply(np.eye(3)) == pytest.approx(15.0, rel=1e-14)


def test_second_difference_of_energy_recovers_q3():
    # 2 W(Id + s E) / s^2 -> Q3(E) for E = e1 (x) e1
    W = sg.make_isotropic(1.0, 1.0)
    E = np.zeros((3, 3))
    E[0, 0] = 1.0
    s = 1e-4
    assert 2.0 * W.evaluate(green_strain(np.eye(3) + s * E)) / s ** 2 == pytest.approx(
        3.0, rel=1e-3)
    assert W.q3.apply(E) == pytest.approx(3.0, rel=1e-14)


def test_q3_from_energy_matches_analytic_hessian():
    for W in [sg.make_isotropic(1.0, 0.0), sg.make_isotropic(1.0, 1.0),
              sg.make_isotropic(2.0, 0.5), sg.quadratic_energy(anisotropic_q3(50))]:
        q3_fd = sg.q3_from_energy(W)
        assert np.max(np.abs(q3_fd.matrix6 - W.q3.matrix6)) <= 1e-6
        assert q3_fd.min_eigenvalue() > 0.0


def test_q3_from_energy_rejects_broken_densities():
    from shellgamma.errors import DifferentiationError
    broken = dataclasses.replace(sg.make_isotropic(1.0, 1.0), evaluate=lambda E: float("nan"))
    with pytest.raises(DifferentiationError):
        sg.q3_from_energy(broken)


def test_q3_from_upper_triangle_round_trip():
    W = sg.make_isotropic(1.3, 0.4)
    M = W.q3.matrix6
    entries = [M[i, j] for i in range(6) for j in range(i, 6)]
    q3 = sg.QuadForm3.from_upper_triangle(entries)
    assert np.allclose(q3.matrix6, M)


def test_reduce_q2_reference_values():
    n, T = adapted_frame()
    q2 = sg.reduce_q2(sg.make_isotropic(1.0, 1.0).q3, n, T)
    assert q2.apply_tangential(np.eye(2)) == pytest.approx(20.0 / 3.0, rel=1e-12)
    assert np.allclose(q2.minimizer(np.eye(2)), [0.0, 0.0, -1.0 / 3.0], atol=1e-12)

    assert q2.apply_tangential(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(q2.minimizer(np.zeros((2, 2))), 0.0, atol=1e-14)

    q2_nolam = sg.reduce_q2(sg.make_isotropic(1.0, 0.0).q3, n, T)
    assert q2_nolam.apply_tangential(np.diag([1.0, 0.0])) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(q2_nolam.minimizer(np.diag([1.0, 0.0])), 0.0, atol=1e-14)


def test_relaxation_bound_and_equality_at_minimizer():
    n, T = adapted_frame()
    q3 = sg.make_isotropic(1.0, 1.0).q3
    q2 = sg.reduce_q2(q3, n, T)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        F = rng.normal(size=(2, 2))
        c_rand = rng.normal(size=3)
        F_hat = T @ F @ T.T
        val = q2.apply_tangential(F)
        completion = F_hat + np.outer(c_rand, n) + np.outer(n, c_rand)
        assert val <= q3.apply(completion) + 1e-12
        c_star = q2.minimizer(F)
        at_min = q3.apply(F_hat + np.outer(c_star, n) + np.outer(n, c_star))
        assert abs(val - at_min) <= 1e-10


def test_minimizer_is_linear():
    n, T = adapted_frame()
    q2 = sg.reduce_q2(sg.make_isotropic(2.0, 0.5).q3, n, T)
    rng = np.random.default_rng(12)
    for _ in range(50):
        F, G = rng.normal(size=(2, 2, 2))
        a, b = rng.normal(size=2)
        lhs = q2.minimizer(a * F + b * G)
        rhs = a * q2.minimizer(F) + b * q2.minimizer(G)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_q2_depends_only_on_symmetric_part():
    n, T = adapted_frame()
    q2 = sg.reduce_q2(sg.make_isotropic(1.0, 1.0).q3, n, T)
    rng = np.random.default_rng(13)
    for _ in range(50):
        F = rng.normal(size=(2, 2))
        S = 0.5 * (F + F.T)
        assert q2.apply_tangential(F) == pytest.approx(q2.apply_tangential(S), rel=1e-13)


def test_frame_consistency_under_normal_flip():
    q3 = sg.make_isotropic(1.0, 1.0).q3
    n, T = adapted_frame()
    q2_plus = sg.reduce_q2(q3, n, T)
    q2_minus = sg.reduce_q2(q3, -n, T)
    rng = np.random.default_rng(14)
    for _ in range(30):
        F = rng.normal(size=(2, 2))
        assert q2_plus.apply_tangential(F) == pytest.approx(
            q2_minus.apply_tangential(F), rel=1e-12)
        # flipping the normal flips the minimizer: opposite normal component
        # (measured against a fixed direction), zero tangential part for
        # isotropic materials
        c_p, c_m = q2_plus.minimizer(F), q2_minus.minimizer(F)
        assert float(c_m @ n) == pytest.approx(-float(c_p @ n), abs=1e-12)
        assert np.linalg.norm(c_p + c_m) <= 1e-12 * max(1.0, np.linalg.norm(c_p))
        assert np.linalg.norm(c_p - float(c_p @ n) * n) <= 1e-12


def test_isotropic_closed_form_agreement():
    rng = np.random.default_rng(15)
    for mu, lam in [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)]:
        n, T = adapted_frame()
        q2 = sg.reduce_q2(sg.make_isotropic(mu, lam).q3, n, T)
        for _ in range(100):
            F = rng.normal(size=(2, 2))
            expected = sg.isotropic_q2_closed_form(mu, lam, F)
            assert abs(q2.apply_tangential(F) - expected) <= 1e-10 * max(1.0, abs(expected))


def test_reduction_uses_node_frame_for_anisotropic_q3():
    # an anisotropic Q3 must see the tangent frame, not just the normal
    rng = np.random.default_rng(16)
    A = rng.normal(size=(6, 6))
    q3 = sg.QuadForm3.from_matrix(A @ A.T + 6.0 * np.eye(6))
    n = np.array([0.0, 0.0, 1.0])
    q2_a = sg.reduce_q2(q3, n, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    th = 0.7
    q2_b = sg.reduce_q2(q3, n, np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)],
                                         [0.0, 0.0]]))
    F = np.array([[1.0, 0.3], [0.1, -0.4]])
    assert q2_a.apply_tangential(F) != pytest.approx(q2_b.apply_tangential(F), rel=1e-6)


def test_degenerate_material_raises():
    # a Q3 that does not couple the normal direction has a singular reduction
    M = np.diag([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    q3 = sg.QuadForm3(matrix6=M)
    with pytest.raises(DegenerateMaterialError):
        sg.reduce_q2(q3, *adapted_frame())


def test_batch_with_one_degenerate_node_raises():
    # Q3 blind to S02 and S12: regular for an oblique normal, singular for e3;
    # the error names the first singular frame by its batch index and normal
    q3 = sg.QuadForm3(matrix6=np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    oblique = (np.full(3, 1.0 / np.sqrt(3.0)),
               np.column_stack([np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
                                np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)]))
    sg.reduce_q2(q3, *(np.stack([v, v]) for v in oblique))
    with pytest.raises(DegenerateMaterialError,
                       match=re.escape("at frame (1,) with n = (0.0, 0.0, 1.0)")):
        sg.reduce_q2(q3, *(np.stack([v, e, v]) for v, e in zip(oblique, adapted_frame())))
    with pytest.raises(DegenerateMaterialError,
                       match=re.escape("at frame (1, 0) with n = (0.0, 0.0, 1.0)")):
        sg.reduce_q2(q3, *(np.stack([np.stack([v, v]), np.stack([e, v])])
                           for v, e in zip(oblique, adapted_frame())))


def test_non_unit_normal_is_a_parameter_error_naming_its_frame():
    # a NaN normal is not a unit vector either: the normal, not Q3, is at fault
    q3 = sg.make_isotropic(1.0, 1.0).q3
    n, T = (np.stack([e, e]) for e in adapted_frame())
    for scale, shown in [(np.nan, "nan"), (2.0, "2.0")]:
        n_bad = n.copy()
        n_bad[1] *= scale
        with pytest.raises(ParameterError,
                           match=re.escape(f"unit vector at frame (1,), |n| = {shown}")):
            sg.reduce_q2(q3, n_bad, T)


def spd_up_to_cond(rng, count, max_cond):
    """(count, 3, 3) SPD matrices U diag(s) U^T of condition up to max_cond.

    Returns the matrices and their condition numbers.
    """
    U, s, _ = random_svd_up_to_cond(rng, count, max_cond)
    return (U * s[:, None, :]) @ np.swapaxes(U, -1, -2), s[:, 0] / s[:, 2]


def test_closed_form_cholesky_and_substitution_match_lapack():
    rng = np.random.default_rng(42)
    K, cond = spd_up_to_cond(rng, 2000, 1e6)
    L, bad = cholesky3(K)
    assert not bad.any()
    ref = np.linalg.cholesky(K)
    err = np.linalg.norm(L - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert np.all(err <= 1e-13 * cond)
    b = rng.normal(size=(len(K), 3))
    x = cho_solve3(L, b)
    x_ref = np.linalg.solve(K, b[..., None])[..., 0]
    err = np.linalg.norm(x - x_ref, axis=-1) / np.linalg.norm(x_ref, axis=-1)
    assert np.all(err <= 1e-13 * cond)


def test_substitution_broadcasts_extra_leading_axes_of_the_right_hand_side():
    rng = np.random.default_rng(43)
    K, _ = spd_up_to_cond(rng, 5, 1e3)
    L, _ = cholesky3(K)
    b = rng.normal(size=(4, 5, 3))
    x = cho_solve3(L, b)
    assert x.shape == (4, 5, 3)
    for i in range(4):
        assert np.array_equal(x[i], cho_solve3(L, b[i]))


def test_closed_form_cholesky_flags_the_frames_without_a_positive_pivot():
    rng = np.random.default_rng(44)
    K, _ = spd_up_to_cond(rng, 6, 1e3)
    K[1] = np.diag([1.0, 0.0, 1.0])            # zero second pivot
    K[3] = np.diag([1.0, 1.0, -2.0])           # negative third pivot
    K[4, 0, 0] = np.nan
    L, bad = cholesky3(K)
    assert bad.tolist() == [False, True, False, True, True, False]
    ok = ~bad
    assert np.allclose(L[ok] @ np.swapaxes(L[ok], -1, -2), K[ok], rtol=1e-12)


def random_frames(rng, count):
    n = rng.normal(size=(count, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    t1 = np.cross(n, rng.normal(size=(count, 3)))
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return n, np.stack([t1, np.cross(n, t1)], axis=-1)


def test_batched_reduction_equals_stacked_frames():
    rng = np.random.default_rng(19)
    A = rng.normal(size=(6, 6))
    for q3 in (sg.make_isotropic(1.0, 1.0).q3,
               sg.QuadForm3.from_matrix(A @ A.T + 6.0 * np.eye(6))):
        n, T = random_frames(rng, 8)
        F = rng.normal(size=(8, 2, 2))
        q2 = sg.reduce_q2(q3, n, T)
        singles = [sg.reduce_q2(q3, n[i], T[i]) for i in range(8)]
        for batched, stacked in (
                (q2.minimizer(F), [s.minimizer(F[i]) for i, s in enumerate(singles)]),
                (q2.apply_tangential(F),
                 [s.apply_tangential(F[i]) for i, s in enumerate(singles)])):
            stacked = np.stack(stacked)
            assert batched.shape == stacked.shape
            assert np.max(np.abs(batched - stacked)) <= 1e-14 * np.max(np.abs(stacked))


@settings(max_examples=60, deadline=None)
@given(normals=arrays(np.float64, (4, 3), elements=st.floats(-1.0, 1.0)),
       factor=arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0)),
       F=arrays(np.float64, (4, 2, 2), elements=st.floats(-2.0, 2.0)),
       c=arrays(np.float64, (4, 3), elements=st.floats(-2.0, 2.0)))
def test_relaxation_property_on_random_normals_and_materials(normals, factor, F, c):
    # Q2(F) <= Q3(F_hat + c (x) n + n (x) c) for every c, with equality at the
    # batched minimizer, for any unit normal and positive-definite Q3
    lengths = np.linalg.norm(normals, axis=1)
    normals = np.where(lengths[:, None] > 1e-3, normals, [0.0, 0.0, 1.0])
    n = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    q3 = sg.QuadForm3.from_matrix(factor @ factor.T + 0.5 * np.eye(6))
    e = np.eye(3)[np.argmin(np.abs(n), axis=1)]  # a coordinate axis far from n
    t1 = np.cross(n, e)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    q2 = sg.reduce_q2(q3, n, np.stack([t1, np.cross(n, t1)], axis=-1))
    T = q2.tangents
    F_hat = T @ F @ np.swapaxes(T, -1, -2)
    val = q2.apply_tangential(F)
    scale = 1.0 + q3.apply(F_hat)
    for i in range(4):
        C = np.outer(c[i], n[i])
        assert val[i] <= q3.apply(F_hat[i] + C + C.T) + 1e-10 * scale[i]
    c_star = q2.minimizer(F)
    C_star = c_star[:, :, None] * n[:, None, :]
    at_min = q3.apply(F_hat + C_star + np.swapaxes(C_star, -1, -2))
    assert np.all(np.abs(val - at_min) <= 1e-10 * scale)


def test_brute_force_relaxation_matches_solver():
    rng = np.random.default_rng(17)
    n, T = adapted_frame()
    for mu, lam in [(1.0, 1.0), (2.0, 0.5)]:
        q3 = sg.make_isotropic(mu, lam).q3
        q2 = sg.reduce_q2(q3, n, T)
        for _ in range(20):
            F = rng.normal(size=(2, 2))
            val, c = sg.relax_q2_brute_force(q3, n, F, T)
            assert abs(val - q2.apply_tangential(F)) <= 1e-8
            assert np.linalg.norm(c - q2.minimizer(F)) <= 1e-6


def anisotropic_q3(seed):
    # M = A A^T + Id: at seed 50 the coupling block at n = e3 has condition number 19.6
    A = np.random.default_rng(seed).normal(size=(6, 6))
    return sg.QuadForm3.from_matrix(A @ A.T + np.eye(6))


def assert_brute_force_matches_solver(q3, seed):
    n, T = adapted_frame()
    q2 = sg.reduce_q2(q3, n, T)
    F = np.random.default_rng(seed).normal(size=(200, 2, 2))
    val, c = sg.relax_q2_brute_force(q3, n, F, T)
    assert np.max(np.abs(val - q2.apply_tangential(F))) <= 1e-8
    assert np.max(np.linalg.norm(c - q2.minimizer(F), axis=-1)) <= 1e-6


@pytest.mark.parametrize("seed", range(50, 55))
def test_brute_force_matches_solver_on_anisotropic_q3(seed):
    assert_brute_force_matches_solver(anisotropic_q3(seed), seed)


@settings(max_examples=20, deadline=None)
@given(entries=_Q3_MATRICES)
def test_brute_force_matches_solver_on_random_q3(entries):
    assert_brute_force_matches_solver(sg.QuadForm3.from_upper_triangle(entries), 0)


def test_brute_force_converges_on_an_ill_conditioned_q3():
    # M = A A^T + 1e-2 Id at 200 uniformly random frames, drawn as q2-check
    # draws them, with F scaled by 3: over these 40 seeds the worst c is
    # 5.2e-10 off after two conjugate-gradient cycles and 1.5e-7 after one
    for seed in range(1000, 1040):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(6, 6))
        q3 = sg.QuadForm3.from_matrix(A @ A.T + 1e-2 * np.eye(6))
        F = 3.0 * rng.normal(size=(200, 2, 2))
        R = rotation_matrices(random_rotations(rng, 200))
        T, n = R[..., :2], R[..., 2]
        q2 = sg.reduce_q2(q3, n, T)
        val, c = sg.relax_q2_brute_force(q3, n, F, T)
        assert np.max(np.linalg.norm(c - q2.minimizer(F), axis=-1)) <= 1e-8, seed
        assert np.max(np.abs(val - q2.apply_tangential(F))) <= 1e-10, seed


class ApplyOnly:
    """A Q3 that has only apply, and counts its calls."""

    __slots__ = ("_apply", "calls")

    def __init__(self, q3):
        self._apply = q3.apply
        self.calls = 0

    def apply(self, F):
        self.calls += 1
        return self._apply(F)


@pytest.mark.parametrize("seed", [None, 50])
def test_brute_force_reads_only_apply_and_makes_few_calls(seed):
    # the oracle's independence from reduce_q2: no matrix6, hence no linear solve
    q3 = sg.make_isotropic(1.0, 1.0).q3 if seed is None else anisotropic_q3(seed)
    n, T = adapted_frame()
    F = np.random.default_rng(24).normal(size=(200, 2, 2))
    counted = ApplyOnly(q3)
    val, c = sg.relax_q2_brute_force(counted, n, F, T)
    assert counted.calls <= 13
    with pytest.raises(AttributeError):
        counted.matrix6
    ref_val, ref_c = sg.relax_q2_brute_force(q3, n, F, T)
    assert np.array_equal(val, ref_val) and np.array_equal(c, ref_c)


def test_batched_brute_force_equals_stacked_single_calls():
    # zero inputs stop at once on |g| < 1e-14 with c = 0; the random ones run
    # the full descent, each with its own probe step and stopping rule
    rng = np.random.default_rng(23)
    n, T = adapted_frame()
    A = rng.normal(size=(6, 6))
    for q3 in (sg.make_isotropic(1.0, 1.0).q3,
               sg.QuadForm3.from_matrix(A @ A.T + np.eye(6))):
        F = rng.normal(size=(12, 2, 2))
        F[[0, 5]] = 0.0
        val, c = sg.relax_q2_brute_force(q3, n, F, T)
        singles = [sg.relax_q2_brute_force(q3, n, f, T) for f in F]
        assert val.shape == (12,) and c.shape == (12, 3)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(c))
        assert np.all(c[[0, 5]] == 0.0) and np.all(val[[0, 5]] == 0.0)
        for batched, stacked in ((val, np.stack([s[0] for s in singles])),
                                 (c, np.stack([s[1] for s in singles]))):
            assert np.max(np.abs(batched - stacked)) <= 1e-13 * np.max(np.abs(stacked))


def test_vec6_is_isometric():
    rng = np.random.default_rng(18)
    for _ in range(10):
        S = rng.normal(size=(3, 3))
        S = 0.5 * (S + S.T)
        assert np.sum(S * S) == pytest.approx(float(vec6(S) @ vec6(S)), rel=1e-13)
    for B in basis_sym3():
        assert np.linalg.norm(vec6(B)) == pytest.approx(1.0, rel=1e-13)


def test_vec6_of_sym_without_the_transposed_copy():
    # Q3 and the Q2 right-hand side read vec6(sym F) off the entry pairs of F:
    # the same operations on the same entries, so the same bits
    rng = np.random.default_rng(11)
    factor = rng.normal(size=(6, 6))
    q3 = sg.QuadForm3.from_matrix(factor @ factor.T + np.eye(6))
    for shape in [(3, 3), (7, 3, 3), (4, 5, 3, 3)]:
        F = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        s = vec6(sym(F))
        assert np.array_equal(vec6_sym(F), s)
        quadratic = ((s @ q3.matrix6)[..., None, :] @ s[..., :, None])[..., 0, 0]
        assert np.array_equal(q3.apply(F), quadratic)
