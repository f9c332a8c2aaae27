import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shellgamma as sg
from shellgamma.errors import EnergyBlowupError, ParameterError, ThicknessError
from shellgamma.fields import transpose
from shellgamma.kinematics import tangential_strain
from shellgamma.loads import rotation_matrices

GENERIC_W = [(0.4, 1.3, 0.2, 0.9, 0.5),
             (0.3, 0.7, 1.1, 1.4, 0.3),
             (0.5, 1.1, 0.4, 0.8, 1.2)]


def plate_scene(order=6):
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(plate, order)
    trule = sg.TransversalRule.make(4)
    return plate, thick, W, quad, trule


def rotate_gradient(R, gradient):
    """The (grad y, det) pair of rec.gradient for the deformation R y."""
    F, det = gradient
    return R @ F, det


def d_fields(material, iso, b_tan, thick, kappa, fr):
    """d0 and d1 at a frame, through the limit fields there."""
    fields = sg.limit_fields(material, iso, b_tan, thick, kappa, fr,
                             iso.An_partials(fr.u))
    return sg.build_d_fields(fields, kappa)


def zero_strain(fr):
    """B_tan = 0 at the points of a frame."""
    return np.zeros(fr.u.shape[:-1] + (2, 2))


def test_trivial_recovery_is_the_identity():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    data = sg.recovery_data(plate, W, iso, sg.zero_vector_field(plate.domain),
                            thick, kappa=1.0, quad=quad)
    rec = sg.build_recovery(data, h=0.125, e_h=0.125 ** 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.uniform(0.1, 0.9, size=2)
        t = rng.uniform(-0.4, 0.4)
        fr = plate.frame(u)
        assert np.allclose(rec.evaluate(u, t), fr.x + rec.h * t * fr.n, atol=1e-14)
        assert np.allclose(rec.gradient(u, t)[0], np.eye(3), atol=1e-12)
    ev = sg.eval_shell_energy(rec, W, quad, trule)
    assert ev.E_h == pytest.approx(0.0, abs=1e-20)


def test_d_fields_vanish_for_zero_data():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    fr = quad.frame[::5]
    d0, d1 = d_fields(W, iso, zero_strain(fr), thick, 1.0, fr)
    assert np.allclose(d0, 0.0, atol=1e-13)
    assert np.allclose(d1, 0.0, atol=1e-13)


def test_d_fields_sphere_rigid_with_compensating_strain():
    # direct tensor input B_tan = (kappa/2)(W^2)_tan cancels the c-argument;
    # the bending tensor of a rigid motion vanishes, so d1 = 0 and d0 keeps
    # only its frame terms kappa W^2 n - (kappa/2)(n^T W^2 n) n
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    thick = sg.ThicknessPair.constant(0.5, 0.5, cap.domain)
    Wmat = sg.skew_matrix((0.0, 0.0, 1.0))
    quad = sg.surface_quadrature(cap, 5)
    iso = sg.build_isometry(cap, sg.rigid_field(cap, (0.0, 0.0, 1.0)), quad=quad)
    kappa = 1.0
    W = sg.make_isotropic(1.0, 1.0)
    fr = quad.frame[::6]
    d0, d1 = d_fields(W, iso, 0.5 * kappa * fr.tan2(Wmat @ Wmat), thick, kappa, fr)
    assert np.allclose(d1, 0.0, atol=1e-8)
    W2n = fr.n @ (Wmat @ Wmat).T
    expected = kappa * W2n - 0.5 * kappa * (fr.n * W2n).sum(axis=-1)[:, None] * fr.n
    assert np.allclose(d0, expected, atol=1e-10)


def test_d1_vanishes_for_zero_lambda_on_plate():
    # lambda = 0 kills the minimizer map; the plate frame terms vanish too
    plate, thick, _, quad, trule = plate_scene()
    W = sg.make_isotropic(1.0, 0.0)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    fr = quad.frame[::7]
    _, d1 = d_fields(W, iso, zero_strain(fr), thick, 1.0, fr)
    assert np.allclose(d1, 0.0, atol=1e-10)


def test_recovery_rejects_too_thick_shells():
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair.constant(3.0, 3.0, cyl.domain)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(cyl, sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.zero_vector_field(cyl.domain), thick,
                            kappa=1.0, quad=quad)
    with pytest.raises(ThicknessError):
        sg.build_recovery(data, h=0.5, e_h=0.5 ** 4)


def test_thin_shell_guard_checks_the_quadrature_nodes():
    # g1 = 1.15 (u1/2pi + u2) on the unit cylinder: at h = 1/2 the inner
    # offset folds the shell only at the corner node (u1, u2 largest), which
    # lies beyond every point of an evenly spaced 5x5 interior grid
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair(
        g1=sg.affine_scalar(0.0, [1.15 / (2 * np.pi), 1.15], cyl.domain),
        g2=sg.constant_scalar(0.5, cyl.domain), lipschitz_bound=2.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(cyl, sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.zero_vector_field(cyl.domain), thick,
                            kappa=1.0, quad=quad)
    s = np.linspace(0.0, 1.0, 7)[1:-1]
    grid = np.stack(np.meshgrid(2 * np.pi * s, s, indexing="ij"), axis=-1)
    assert np.all(1.0 - 0.5 * thick.g1.value(grid) > 0.0)
    corner = tuple(quad.frame.u[-1].tolist())
    with pytest.raises(ThicknessError, match=re.escape(f"u={corner}")):
        sg.build_recovery(data, h=0.5, e_h=0.5 ** 4)
    sg.build_recovery(data, h=0.4, e_h=0.4 ** 4)

    # past the center of a sphere both principal factors are negative and
    # det(Id + h t Pi) is positive again; offset_jacobian and the guard refuse
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    deep = sg.ThicknessPair.constant(2.5, 0.5, cap.domain)
    cap_quad = sg.surface_quadrature(cap, 3)
    with pytest.raises(ThicknessError):
        sg.offset_jacobian(cap_quad.frame, -0.9 * 2.5)
    iso_c = sg.build_isometry(cap, sg.zero_vector_field(cap.domain), quad=cap_quad)
    data_c = sg.recovery_data(cap, W, iso_c, sg.zero_vector_field(cap.domain), deep,
                              kappa=1.0, quad=cap_quad)
    with pytest.raises(ThicknessError):
        sg.build_recovery(data_c, h=0.9, e_h=0.9 ** 4)


def test_gradient_matches_finite_differences():
    # chain-rule gradient vs central differences of evaluate, through the
    # frame {(Id + h t Pi) tau_1, (Id + h t Pi) tau_2, h n}
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    from shellgamma.fields import affine_scalar, constant_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, cap.domain),
                             g2=affine_scalar(0.55, [0.04, 0.01], cap.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 4)
    iso = sg.build_isometry(cap, sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(cap, W, iso, w, thick, kappa=1.0, quad=quad),
                            h=h, e_h=h ** 4)

    rng = np.random.default_rng(3)
    d = 1e-5
    for _ in range(20):
        u = np.array([rng.uniform(0.2, 0.9), rng.uniform(0.5, 5.5)])
        t = rng.uniform(-0.3, 0.3)
        cols = []
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = d
            cols.append((rec.evaluate(u + e, t) - rec.evaluate(u - e, t)) / (2 * d))
        cols.append((rec.evaluate(u, t + d) - rec.evaluate(u, t - d)) / (2 * d))
        Y_fd = np.column_stack(cols)
        fr = cap.frame(u)
        M, _ = sg.offset_jacobian(fr, h * t)
        Z = np.column_stack([M @ fr.jac[:, 0], M @ fr.jac[:, 1], h * fr.n])
        Y_asm = rec.gradient(u, t)[0] @ Z
        assert np.linalg.norm(Y_asm - Y_fd) <= 1e-6 * np.linalg.norm(Y_fd)


def test_one_recovery_data_serves_every_h(monkeypatch):
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    from shellgamma.fields import affine_scalar, constant_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, cap.domain),
                             g2=affine_scalar(0.55, [0.04, 0.01], cap.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 3)
    trule = sg.TransversalRule.make(2)
    iso = sg.build_isometry(cap, sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    scene = (cap, W, iso, w, thick, 1.0, quad)
    data = sg.recovery_data(*scene)
    h0, h1 = 2.0 ** -3, 2.0 ** -5
    sg.eval_shell_energy(sg.build_recovery(data, h0, h0 ** 4), W, quad, trule)

    shared = sg.build_recovery(data, h1, h1 ** 4)
    fresh = sg.build_recovery(sg.recovery_data(*scene), h1, h1 ** 4)
    u = quad.frame.u
    t = np.array([-0.3, 0.0, 0.45])[:, None] + np.zeros(len(u))
    assert np.array_equal(shared.evaluate(u, t), fresh.evaluate(u, t))
    for a, b in zip(shared.gradient(u, t), fresh.gradient(u, t)):
        assert np.array_equal(a, b)

    calls = []
    frame = sg.SurfacePatch.frame

    def counting_frame(self, u):
        calls.append(u)
        return frame(self, u)

    monkeypatch.setattr(sg.SurfacePatch, "frame", counting_frame)
    h2 = 2.0 ** -4
    sg.eval_shell_energy(sg.build_recovery(data, h2, h2 ** 4), W, quad, trule)
    assert calls == []


def test_gradient_stays_near_identity():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    ratios = []
    sups = []
    for k in range(3, 9):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        u = quad.frame.u[::3]
        sup = max(np.max(np.linalg.norm(rec.gradient(u, t)[0] - np.eye(3), axis=(-2, -1)))
                  for t in (-0.4, 0.0, 0.4))
        sups.append(sup)
        ratios.append(sup / (np.sqrt(rec.e_h) / h))
    assert max(ratios) <= 2.0 * min(ratios)  # C = sup / (sqrt(e_h)/h) stable
    assert sups[-1] < sups[0]  # uniform convergence to the identity map


def test_energy_frame_indifference():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad),
                            h=h, e_h=h ** 4)
    base = sg.eval_shell_energy(rec, W, quad, trule)

    from shellgamma.loads import random_rotations, rotation_matrices
    R = rotation_matrices(random_rotations(np.random.default_rng(5), 1))[0]
    rotated = dataclasses.replace(
        rec,
        evaluate=lambda u, t: R @ rec.evaluate(u, t),
        gradient=lambda u, t: rotate_gradient(R, rec.gradient(u, t)))
    rotated_energy = sg.eval_shell_energy(rotated, W, quad, trule)
    assert rotated_energy.E_h == pytest.approx(base.E_h, rel=1e-10)


@functools.lru_cache(maxsize=None)
def rotation_scene(kind, h):
    """A recovery y^h with nonzero V, w and thickness gradient, and its energy."""
    patch = sg.make_builtin_patch(kind)
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4, patch.domain),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01], patch.domain),
                             lipschitz_bound=1.0)
    V = (sg.plate_sine_field(1.0, 1, 1, patch.domain) if kind == "plate"
         else sg.rigid_field(patch, (0.3, -0.2, 0.4)))
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(patch, 4)
    trule = sg.TransversalRule.make(3)
    iso = sg.build_isometry(patch, V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, patch.domain)
    data = sg.recovery_data(patch, W, iso, w, thick, kappa=1.0, quad=quad)
    rec = sg.build_recovery(data, h=h, e_h=h ** 4)
    return rec, W, quad, trule, sg.eval_shell_energy(rec, W, quad, trule)


@settings(max_examples=30)
@given(kind=st.sampled_from(["plate", "sphere_cap"]),
       h=st.sampled_from([2.0 ** -3, 2.0 ** -5]),
       q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda q: np.linalg.norm(q) >= 0.1))
def test_energy_is_invariant_under_rigid_rotations(kind, h, q):
    # E^h(R y^h) = E^h(y^h) for every rotation R: frame indifference of the
    # whole energy quadrature, not only of W
    rec, W, quad, trule, base = rotation_scene(kind, h)
    R = rotation_matrices(np.array([q]))[0]
    rotated = dataclasses.replace(rec, evaluate=lambda u, t: rec.evaluate(u, t) @ R.T,
                                  gradient=lambda u, t: rotate_gradient(R, rec.gradient(u, t)))
    energy = sg.eval_shell_energy(rotated, W, quad, trule)
    assert energy.E_h == pytest.approx(base.E_h, rel=1e-10)
    assert energy.so3_distance == pytest.approx(base.so3_distance, rel=1e-10)


@pytest.mark.parametrize("kind", ["plate", "sphere_cap"])
def test_energy_health_figures_match_an_independent_recomputation(kind):
    # singular values from the eigenvalues of F^T F instead of an SVD, and
    # det(Id + h t Pi) as the product of the principal factors 1 + h t k
    for h in (2.0 ** -3, 2.0 ** -5):
        rec, W, quad, trule, ev = rotation_scene(kind, h)
        u = quad.frame.u
        t, _ = trule.across(rec.thick, u)
        F, _ = rec.gradient(u, t)
        sv = np.sqrt(np.linalg.eigvalsh(transpose(F) @ F))
        dist = np.sqrt(((sv - 1.0) ** 2).sum(axis=-1))
        assert ev.so3_distance == pytest.approx(np.max(dist), rel=1e-9)
        assert 0.0 < ev.so3_distance <= sg.recovery3d.BLOWUP_DISTANCE
        k = rec.patch.principal_curvatures(u)
        det = np.prod(1.0 + h * t[..., None] * k, axis=-1)
        assert ev.min_det == pytest.approx(np.min(det), rel=1e-13)
    if kind == "plate":
        assert ev.min_det == 1.0


def sigma_minus_one_distance(e):
    """|sigma - 1| from the eigenvalues e of the Green strain, sigma = sqrt(1 + 2e)."""
    sm1 = 2.0 * e / (1.0 + np.sqrt(1.0 + 2.0 * e))
    return np.sqrt((sm1 * sm1).sum(axis=-1))


def strain_direction(kind, g):
    """A 3x3 matrix of the named eigenstructure, built from nine numbers g."""
    G = np.reshape(g, (3, 3))
    v = G[0]
    if kind == "general":
        return G
    if kind == "symmetric":
        return G + G.T
    if kind == "uniaxial":
        return np.outer(v, v)
    if kind == "two-equal":
        return G[1, 0] * np.eye(3) + G[1, 1] * np.outer(v, v) / (v @ v)
    return G[1, 0] * np.eye(3)  # isotropic


@settings(max_examples=200)
@given(kind=st.sampled_from(["general", "symmetric", "uniaxial", "two-equal", "isotropic"]),
       g=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).filter(
           lambda g: min(np.linalg.norm(g[:3]), abs(g[3])) >= 0.1),
       s=st.floats(1e-8, 0.4),
       q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda q: np.linalg.norm(q) >= 0.1))
def test_closed_form_so3_distance_matches_eigvalsh_and_svd(kind, g, s, q):
    # F = R (Id + s G): the closed-form eigenvalues of the Green strain give the
    # distance of eigvalsh on the same E, and of the SVD where its own
    # sigma - 1 does not cancel
    R = rotation_matrices(np.array([q]))[0]
    G = strain_direction(kind, g)
    assume(np.any(G != 0.0))
    F = R @ (np.eye(3) + s * G / np.max(np.abs(G)))
    E = 0.5 * (transpose(F) @ F - np.eye(3))
    dist = sg.recovery3d.so3_distance(E)
    assert dist == pytest.approx(sigma_minus_one_distance(np.linalg.eigvalsh(E)), rel=1e-10)
    if s >= 1e-4:
        sv = np.linalg.svd(F, compute_uv=False)
        assert dist == pytest.approx(np.linalg.norm(sv - 1.0), rel=1e-9)
    assert sg.recovery3d.so3_distance(sg.green_strain(R)) <= 1e-14
    assert sg.recovery3d.so3_distance(sg.green_strain(np.eye(3))) == 0.0


def test_non_finite_gradient_trips_the_blowup_gate():
    rec, W, quad, trule, _ = rotation_scene("plate", 2.0 ** -5)

    def gradient(u, t):
        F, det = rec.gradient(u, t)
        F = F.copy()
        F[2, 7, 1, 0] = np.nan
        return F, det

    with pytest.raises(EnergyBlowupError, match="at distance inf from SO") as err:
        sg.eval_shell_energy(dataclasses.replace(rec, gradient=gradient), W, quad, trule)
    assert np.array_equal(err.value.u, quad.frame.u[7])


def test_tangential_lower_bound_reads_the_volume_factor_from_the_gradient(monkeypatch):
    rec, W, quad, trule, ev = rotation_scene("sphere_cap", 2.0 ** -3)
    calls = []
    offset_jacobian = sg.recovery3d.offset_jacobian

    def counting_offset_jacobian(frame, t):
        calls.append(np.shape(t))
        return offset_jacobian(frame, t)

    monkeypatch.setattr(sg.recovery3d, "offset_jacobian", counting_offset_jacobian)
    bound = sg.shell_energy_tangential_lower_bound(rec, W, quad, trule)
    assert len(calls) == 1
    assert 0.0 < bound <= ev.normalized


def test_energy_blowup_reports_worst_node():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    # e_h chosen so sqrt(e_h)/h is order one: far outside the small-strain regime
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, w, thick, kappa=1.0,
                                             quad=quad),
                            h=0.25, e_h=0.5)
    with pytest.raises(EnergyBlowupError) as err:
        sg.eval_shell_energy(rec, W, quad, trule)
    # the worst (u, t) found point by point, through the single-point path
    worst, worst_ut = -1.0, None
    for u in quad.frame.u:
        t_nodes, _ = trule.nodes_at(thick.g1.value(u), thick.g2.value(u))
        for t in t_nodes:
            sv = np.linalg.svd(rec.gradient(u, t)[0], compute_uv=False)
            dist = np.linalg.norm(sv - 1.0)
            if dist > worst:
                worst, worst_ut = dist, (u, t)
    assert np.array_equal(err.value.u, worst_ut[0])
    assert err.value.t == worst_ut[1]
    assert f"{worst:.3e}" in str(err.value)


def test_shell_energy_requires_stored_energy():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    data = sg.recovery_data(plate, W, iso, sg.zero_vector_field(plate.domain),
                            thick, kappa=1.0, quad=quad)
    rec = sg.build_recovery(data, h=0.1, e_h=1e-4)
    q3 = sg.as_q3(W)
    with pytest.raises(ParameterError):
        sg.eval_shell_energy(rec, q3, quad, trule)


def test_energy_converges_to_limit_quickly():
    plate, thick, W, quad, trule = plate_scene(order=6)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    I_val = sg.eval_I(data.limit, thick, quad).total
    gaps = []
    for k in (3, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        ev = sg.eval_shell_energy(rec, W, quad, trule)
        gaps.append(abs(ev.normalized - I_val) / I_val)
        assert ev.E_h <= 3.0 * I_val * rec.e_h  # uniform energy-scaling bound
    assert gaps[1] < gaps[0]


def test_tangential_lower_bound_below_energy_and_tightening():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    deltas = []
    for k in (3, 4, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        ev = sg.eval_shell_energy(rec, W, quad, trule)
        lb = sg.shell_energy_tangential_lower_bound(rec, W, quad, trule)
        assert lb <= ev.normalized + 1e-12
        deltas.append(1.0 - lb / ev.normalized)
    assert deltas[-1] <= deltas[0]


def test_averaged_displacement_trivial_and_convergent():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso0 = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    data0 = sg.recovery_data(plate, W, iso0, sg.zero_vector_field(plate.domain),
                             thick, kappa=1.0, quad=quad)
    rec0 = sg.build_recovery(data0, h=0.125, e_h=0.125 ** 4)
    vh0 = sg.averaged_displacement(rec0, plate, thick, trule)
    assert np.allclose(vh0(np.array([0.3, 0.6])), 0.0, atol=1e-14)

    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(plate, V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    dists = []
    for k in (3, 4, 5, 6):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        vh = sg.averaged_displacement(rec, plate, thick, trule)
        dists.append(sg.discrete_l2_distance(vh, lambda u: V.value(u), quad))
    from shellgamma.studies import fit_order
    slope, _ = fit_order(list(zip([2.0 ** -k for k in (3, 4, 5, 6)], dists)))
    assert slope >= 0.9
    for a, b in zip(dists, dists[1:]):
        assert b < a


def test_batched_recovery_equals_stacked_points():
    # at the stored node array and at other chart points alike, a batched
    # (u, t) grid gives the single-point results
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    from shellgamma.fields import affine_scalar, constant_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, cap.domain),
                             g2=affine_scalar(0.55, [0.04, 0.01], cap.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 2)
    iso = sg.build_isometry(cap, sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(cap, W, iso, w, thick, 1.0, quad),
                            h=h, e_h=h ** 4)
    rng = np.random.default_rng(4)
    off_nodes = np.column_stack([rng.uniform(0.2, 0.9, 3), rng.uniform(0.5, 5.5, 3)])
    for u in (quad.frame.u, off_nodes):
        t = rng.uniform(-0.35, 0.45, size=(2, len(u)))
        for f in (rec.evaluate, lambda u, t: rec.gradient(u, t)[0],
                  lambda u, t: rec.gradient(u, t)[1]):
            batched = f(u, t)
            stacked = np.stack([np.stack([f(u[i], t[k, i]) for i in range(len(u))])
                                for k in range(2)])
            assert batched.shape == stacked.shape
            assert np.max(np.abs(batched - stacked)) <= 1e-12 * np.max(np.abs(stacked))


def test_off_node_probe_computes_values_only(monkeypatch):
    # one averaged_displacement_sym_grad probe evaluates y^h at 8 chart points
    # off the quadrature nodes: values only, nothing stored between probes
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    rec = sg.build_recovery(data, h=2.0 ** -4, e_h=2.0 ** -16)
    probe = quad.frame[5]

    points = []
    frame = sg.SurfacePatch.frame

    def counting_frame(self, u):
        points.append(int(np.prod(np.shape(u)[:-1])))
        return frame(self, u)

    monkeypatch.setattr(sg.SurfacePatch, "frame", counting_frame)
    sg.averaged_displacement_sym_grad(rec, plate, thick, trule, probe)
    first = sum(points)
    assert 0 < first <= 300
    points.clear()
    sg.averaged_displacement_sym_grad(rec, plate, thick, trule, probe)
    assert sum(points) == first


def test_averaged_displacement_sym_grad_tracks_strain():
    # the transversal averaging cancels every term of the recovery except
    # V + h w + h^2 (moment) d1; on the plate d1 is vertical, so the scaled
    # symmetric tangential gradient reproduces B_tan to diagnostic resolution
    plate, thick, W, quad, trule = plate_scene(order=4)
    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(plate, V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    probes = [quad.frame[3], quad.frame[7]]
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, quad=quad)
    for k in (3, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        for fr in probes:
            S = sg.averaged_displacement_sym_grad(rec, plate, thick, trule, fr)
            assert np.linalg.norm(S - tangential_strain(fr, w.d1(fr.u))) <= 1e-9
