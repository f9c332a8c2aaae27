import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shellgamma as sg
from shellgamma import recovery3d
from shellgamma.errors import EnergyBlowupError, ParameterError, ThicknessError
from shellgamma.fields import VectorField, matvec, stencil_points, stencil_steps, transpose
from shellgamma.kinematics import tangential_strain
from shellgamma.loads import rotation_matrices

from oracles import An_partials
from test_geometry import all_builtin_patches, assert_frame_products

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


def test_offset_frame_is_linear_in_the_offset_and_its_metric_quadratic():
    # J + ht Pi J and g + ht (b + b^T) + ht^2 c against (Id + ht Pi) J and its metric
    rng = np.random.default_rng(29)
    for patch in all_builtin_patches():
        fr = sg.surface_quadrature(patch, 6).frame
        k = np.max(np.abs(np.linalg.eigvalsh(fr.shape_op)))
        ht = rng.uniform(-0.9, 0.9, size=(3,) + fr.u.shape[:-1]) / max(k, 1.0)
        MJt, g_t = recovery3d._offset_frame(fr)(ht)
        MJ = (np.eye(3) + ht[..., None, None] * fr.shape_op) @ fr.jac
        assert np.max(np.abs(MJt - transpose(MJ))) <= 1e-14 * np.max(np.abs(MJ)), patch.name
        g_ref = transpose(MJ) @ MJ
        assert np.max(np.abs(g_t - g_ref)) <= 1e-14 * np.max(np.abs(g_ref)), patch.name


def rotate_gradient(R, gradient):
    """The (grad y, det) pair of rec.gradient for the deformation R y."""
    F, det = gradient
    return R @ F, det


def d_fields(patch, material, iso, w, thick, kappa, fr):
    """d0 and d1 at a frame of the patch, through the limit fields and Q2 there."""
    fields = sg.limit_fields(iso, w, thick, kappa, fr, *iso.An(fr),
                             An_partials(patch, iso, fr.u))
    return sg.build_d_fields(fields, sg.reduce_q2(material.q3, fr.n, fr.tangents), kappa)


def test_trivial_recovery_is_the_identity():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(sg.zero_vector_field(plate.domain), quad=quad)
    zero = sg.zero_vector_field(plate.domain)
    rng = np.random.default_rng(0)
    points = [(rng.uniform(0.1, 0.9, size=2), rng.uniform(-0.4, 0.4)) for _ in range(10)]
    fr = plate.frame(np.array([u for u, _ in points]))
    t = np.array([s for _, s in points])
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, zero, thick, kappa=1.0, frame=fr),
                            h=0.125, e_h=0.125 ** 4)
    assert np.allclose(rec.evaluate(t), fr.x + rec.h * t[:, None] * fr.n, atol=1e-14)
    assert np.allclose(rec.gradient(t)[0], np.eye(3), atol=1e-12)
    data = sg.recovery_data(plate, W, iso, zero, thick, kappa=1.0, frame=quad.frame)
    rec = sg.build_recovery(data, h=0.125, e_h=0.125 ** 4)
    ev = sg.eval_shell_energy(rec, W, quad, trule)
    assert ev.E_h == pytest.approx(0.0, abs=1e-20)


def test_d_fields_vanish_for_zero_data():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(sg.zero_vector_field(plate.domain), quad=quad)
    fr = quad.frame[::5]
    d0, d1 = d_fields(plate, W, iso, sg.zero_vector_field(plate.domain), thick, 1.0, fr)
    assert np.allclose(d0, 0.0, atol=1e-13)
    assert np.allclose(d1, 0.0, atol=1e-13)


def test_d_fields_sphere_rigid_with_compensating_strain():
    # B_tan = (kappa/2)(W^2)_tan, the strain of w(x) = (kappa/2) W^2 x, cancels the c-argument;
    # the bending tensor of a rigid motion vanishes, so d1 = 0 and d0 keeps
    # only its frame terms kappa W^2 n - (kappa/2)(n^T W^2 n) n
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    thick = sg.ThicknessPair.constant(0.5, 0.5, cap.domain)
    Wmat = sg.skew_matrix((0.0, 0.0, 1.0))
    quad = sg.surface_quadrature(cap, 5)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.0, 0.0, 1.0)), quad=quad)
    kappa = 1.0
    W = sg.make_isotropic(1.0, 1.0)
    fr = quad.frame[::6]
    W2 = 0.5 * kappa * Wmat @ Wmat
    w = VectorField(value=lambda u: cap.chart(u) @ W2.T,
                    d1=lambda m: W2 @ m.jac, domain=cap.domain)
    d0, d1 = d_fields(cap, W, iso, w, thick, kappa, fr)
    assert np.allclose(d1, 0.0, atol=1e-8)
    W2n = fr.n @ (Wmat @ Wmat).T
    expected = kappa * W2n - 0.5 * kappa * (fr.n * W2n).sum(axis=-1)[:, None] * fr.n
    assert np.allclose(d0, expected, atol=1e-10)


def test_d1_vanishes_for_zero_lambda_on_plate():
    # lambda = 0 kills the minimizer map; the plate frame terms vanish too
    plate, thick, _, quad, trule = plate_scene()
    W = sg.make_isotropic(1.0, 0.0)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    fr = quad.frame[::7]
    _, d1 = d_fields(plate, W, iso, sg.zero_vector_field(plate.domain), thick, 1.0, fr)
    assert np.allclose(d1, 0.0, atol=1e-10)


def test_recovery_rejects_too_thick_shells():
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair.constant(3.0, 3.0, cyl.domain)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.zero_vector_field(cyl.domain), thick,
                            kappa=1.0, frame=quad.frame)
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
    iso = sg.build_isometry(sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.zero_vector_field(cyl.domain), thick,
                            kappa=1.0, frame=quad.frame)
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
    iso_c = sg.build_isometry(sg.zero_vector_field(cap.domain), quad=cap_quad)
    data_c = sg.recovery_data(cap, W, iso_c, sg.zero_vector_field(cap.domain), deep,
                              kappa=1.0, frame=cap_quad.frame)
    with pytest.raises(ThicknessError):
        sg.build_recovery(data_c, h=0.9, e_h=0.9 ** 4)


def test_guard_and_gradient_name_the_worst_point():
    # on the unit cylinder the guard refuses h = 0.9 at the node of largest g1,
    # and grad y^h, at an admissible h, checks each t it is asked for: outside
    # (-g1, g2) it names the point of smallest factor 1 + h t k and that
    # point's physical offset h t
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair(g1=sg.affine_scalar(1.5, [-0.02, -0.5], cyl.domain),
                             g2=sg.constant_scalar(0.5, cyl.domain), lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cyl, 3)
    iso = sg.build_isometry(sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.zero_vector_field(cyl.domain), thick,
                            kappa=1.0, frame=quad.frame)
    # g1 is largest at the smallest u1 and u2: node 0
    first = tuple(quad.frame.u[0].tolist())
    with pytest.raises(ThicknessError, match=re.escape(f"u={first}")):
        sg.build_recovery(data, h=np.array([0.5, 0.9]), e_h=np.array([0.5, 0.9]) ** 4)
    rec = sg.build_recovery(data, h=0.25, e_h=0.25 ** 4)
    t, _ = sg.TransversalRule.make(2).across(thick, quad.frame.u)
    t[1, 4], t[0, 7] = -5.0, -6.0  # factors 1 - 1.25 and 1 - 1.5
    worst = tuple(quad.frame.u[7].tolist())
    with pytest.raises(ThicknessError, match=re.escape(f"= -5.000e-01 is not positive at "
                                                       f"u={worst}, t=-1.5")):
        rec.gradient(t)
    with pytest.raises(ThicknessError, match=re.escape(f"u={worst}")):
        sg.build_recovery(data, h=np.array([0.25, 0.125]),
                          e_h=np.array([0.25, 0.125]) ** 4).gradient(t)


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
    iso = sg.build_isometry(sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    h = 2.0 ** -4

    rng = np.random.default_rng(3)
    d = 1e-5
    draws = [(rng.uniform(0.2, 0.9), rng.uniform(0.5, 5.5), rng.uniform(-0.3, 0.3))
             for _ in range(20)]
    u = np.array([(u1, u2) for u1, u2, _ in draws])
    t = np.array([t for _, _, t in draws])
    # the data is built at the stacked points u, u + d e_a, u - d e_a
    e = d * np.eye(2)[:, None, :]
    points = np.concatenate([u[None], u + e, u - e])
    rec = sg.build_recovery(sg.recovery_data(cap, W, iso, w, thick, kappa=1.0,
                                             frame=cap.frame(points)), h=h, e_h=h ** 4)
    y = rec.evaluate(t)
    y_t = rec.evaluate(t + np.array([d, -d])[:, None, None])[:, 0]
    cols = [(y[1 + ax] - y[3 + ax]) / (2 * d) for ax in range(2)]
    cols.append((y_t[0] - y_t[1]) / (2 * d))
    Y_fd = np.stack(cols, axis=-1)
    fr = rec.frame[0]
    M, _ = sg.offset_jacobian(fr, h * t)
    Z = np.stack([matvec(M, fr.jac[..., 0]), matvec(M, fr.jac[..., 1]), h * fr.n], axis=-1)
    Y_asm = rec.gradient(t)[0][0] @ Z
    for Y_a, Y_f in zip(Y_asm, Y_fd):
        assert np.linalg.norm(Y_a - Y_f) <= 1e-6 * np.linalg.norm(Y_f)


@pytest.mark.parametrize("kind", ["plate", "sphere_cap"])
def test_recovery_carries_the_t_coefficients(kind):
    # y^h = a0 + s a1 + (s^2/2) a2 in s = t - (g2-g1)/2: with w = 0 (so xi = 0)
    # the central differences over s = -delta, 0, delta give a1 and a2 exactly
    patch = sg.make_builtin_patch(kind)
    V = (sg.plate_sine_field(1.0, 1, 1, patch.domain) if kind == "plate"
         else sg.rigid_field(patch, (0.3, -0.2, 0.4)))
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4, patch.domain),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01], patch.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(patch, 4)
    iso = sg.build_isometry(V, quad=quad)
    data = sg.recovery_data(patch, W, iso, sg.zero_vector_field(patch.domain), thick,
                            kappa=1.0, frame=quad.frame)
    h = 2.0 ** -3
    e_h = h ** 4
    rec = sg.build_recovery(data, h=h, e_h=e_h)
    fr = quad.frame
    delta = 0.25
    t = 0.5 * thick.gamma(fr.u) + np.array([-delta, 0.0, delta])[:, None]
    y_minus, y_0, y_plus = rec.evaluate(t)
    d0, d1 = sg.build_d_fields(data.limit, data.q2, 1.0)
    sq = np.sqrt(e_h)
    a1 = h * fr.n + sq * iso.An(fr)[0] + h * sq * d0
    a2 = h * sq * d1
    first = (y_plus - y_minus) / (2.0 * delta)
    second = (y_plus - 2.0 * y_0 + y_minus) / delta ** 2
    assert np.max(np.abs(first - a1)) <= 1e-12 * np.max(np.abs(a1))
    assert np.max(np.abs(second - a2)) <= 1e-12


def test_one_recovery_data_serves_every_h(monkeypatch):
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    from shellgamma.fields import affine_scalar, constant_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, cap.domain),
                             g2=affine_scalar(0.55, [0.04, 0.01], cap.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 3)
    trule = sg.TransversalRule.make(2)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    scene = (cap, W, iso, w, thick, 1.0, quad.frame)
    data = sg.recovery_data(*scene)
    h0, h1 = 2.0 ** -3, 2.0 ** -5
    sg.eval_shell_energy(sg.build_recovery(data, h0, h0 ** 4), W, quad, trule)

    shared = sg.build_recovery(data, h1, h1 ** 4)
    fresh = sg.build_recovery(sg.recovery_data(*scene), h1, h1 ** 4)
    u = quad.frame.u
    t = np.array([-0.3, 0.0, 0.45])[:, None] + np.zeros(len(u))
    assert np.array_equal(shared.evaluate(t), fresh.evaluate(t))
    for a, b in zip(shared.gradient(t), fresh.gradient(t)):
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
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame[::3])
    ratios = []
    sups = []
    for k in range(3, 9):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        sup = max(np.max(np.linalg.norm(rec.gradient(t)[0] - np.eye(3), axis=(-2, -1)))
                  for t in (-0.4, 0.0, 0.4))
        sups.append(sup)
        ratios.append(sup / (np.sqrt(rec.e_h) / h))
    assert max(ratios) <= 2.0 * min(ratios)  # C = sup / (sqrt(e_h)/h) stable
    assert sups[-1] < sups[0]  # uniform convergence to the identity map


def test_energy_frame_indifference():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame),
                            h=h, e_h=h ** 4)
    base = sg.eval_shell_energy(rec, W, quad, trule)

    from shellgamma.loads import random_rotations, rotation_matrices
    R = rotation_matrices(random_rotations(np.random.default_rng(5), 1))[0]
    rotated = dataclasses.replace(
        rec,
        evaluate=lambda t: R @ rec.evaluate(t),
        gradient=lambda t: rotate_gradient(R, rec.gradient(t)))
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
    iso = sg.build_isometry(V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, patch.domain)
    data = sg.recovery_data(patch, W, iso, w, thick, kappa=1.0, frame=quad.frame)
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
    rotated = dataclasses.replace(rec, evaluate=lambda t: rec.evaluate(t) @ R.T,
                                  gradient=lambda t: rotate_gradient(R, rec.gradient(t)))
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
        F, _ = rec.gradient(t)
        sv = np.sqrt(np.linalg.eigvalsh(transpose(F) @ F))
        dist = np.sqrt(((sv - 1.0) ** 2).sum(axis=-1))
        assert ev.so3_distance == pytest.approx(np.max(dist), rel=1e-9)
        assert 0.0 < ev.so3_distance <= sg.recovery3d.BLOWUP_DISTANCE
        k = sg.make_builtin_patch(kind).principal_curvatures(u)
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

    def gradient(t):
        F, det = rec.gradient(t)
        F = F.copy()
        F[2, 7, 1, 0] = np.nan
        return F, det

    with pytest.raises(EnergyBlowupError, match="at distance inf from SO") as err:
        sg.eval_shell_energy(dataclasses.replace(rec, gradient=gradient), W, quad, trule)
    assert np.array_equal(err.value.u, quad.frame.u[7])


def test_tangential_lower_bound_reads_the_volume_factor_from_the_gradient(monkeypatch):
    # the volume factor comes with grad y^h, from the invariants of Pi: no 3x3
    # offset matrix Id + h t Pi over (T, N)
    rec, W, quad, trule, ev = rotation_scene("sphere_cap", 2.0 ** -3)
    calls = {"offset_jacobian": [], "offset_determinant": []}

    def counting(name):
        call = getattr(sg.recovery3d, name)

        def counted(frame, t):
            calls[name].append(np.shape(t))
            return call(frame, t)
        return counted

    for name in calls:
        monkeypatch.setattr(sg.recovery3d, name, counting(name))
    bound = sg.shell_energy_tangential_lower_bound(rec, W, quad, trule)
    assert calls == {"offset_jacobian": [], "offset_determinant": [(3, 16)]}
    assert 0.0 < bound <= ev.normalized


def test_energy_blowup_reports_worst_node():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    # e_h chosen so sqrt(e_h)/h is order one: far outside the small-strain regime
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, w, thick, kappa=1.0,
                                             frame=quad.frame),
                            h=0.25, e_h=0.5)
    with pytest.raises(EnergyBlowupError) as err:
        sg.eval_shell_energy(rec, W, quad, trule)
    # the worst (u, t) found point by point, through data built at each single node
    worst, worst_ut = -1.0, None
    for i, u in enumerate(quad.frame.u):
        one = sg.build_recovery(sg.recovery_data(plate, W, iso, w, thick, kappa=1.0,
                                                 frame=quad.frame[i]), h=0.25, e_h=0.5)
        t_nodes, _ = trule.nodes_at(thick.g1.value(u), thick.g2.value(u))
        for t in t_nodes:
            sv = np.linalg.svd(one.gradient(t)[0], compute_uv=False)
            dist = np.linalg.norm(sv - 1.0)
            if dist > worst:
                worst, worst_ut = dist, (u, t)
    assert np.array_equal(err.value.u, worst_ut[0])
    assert err.value.t == worst_ut[1]
    assert f"{worst:.3e}" in str(err.value)


def test_energy_converges_to_limit_quickly():
    plate, thick, W, quad, trule = plate_scene(order=6)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    I_val = sg.eval_I(data.limit, data.q2, thick, quad).total
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
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.zero_vector_field(plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    deltas = []
    for k in (3, 4, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        ev = sg.eval_shell_energy(rec, W, quad, trule)
        lb = sg.shell_energy_tangential_lower_bound(rec, W, quad, trule)
        assert lb <= ev.normalized + 1e-12
        deltas.append(1.0 - lb / ev.normalized)
    assert deltas[-1] <= deltas[0]


@functools.lru_cache(maxsize=None)
def moment_scene(kind):
    """RecoveryData with nonzero V, w and an uneven thickness, at a 4x4 rule."""
    patch = sg.make_builtin_patch(kind)
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4, patch.domain),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01], patch.domain),
                             lipschitz_bound=1.0)
    V = (sg.plate_sine_field(1.0, 1, 1, patch.domain) if kind == "plate"
         else sg.rigid_field(patch, (0.3, -0.2, 0.4)))
    quad = sg.surface_quadrature(patch, 4)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, patch.domain)
    data = sg.recovery_data(patch, sg.make_isotropic(1.0, 1.0), iso, w, thick, kappa=1.0,
                            frame=quad.frame)
    return data, thick, quad


@pytest.mark.parametrize("kind", ["plate", "sphere_cap", "cylinder"])
def test_transversal_sum_equals_the_sum_of_evaluations(kind):
    # sum_t wt y^h(t) through the moments sum_t wt s^k against the weighted sum
    # of y^h at the transversal nodes, for a scalar h and a schedule; the
    # averaged displacement against the same sum of y^h - (x + h t n)
    data, thick, quad = moment_scene(kind)
    fr = quad.frame
    t, wt = sg.TransversalRule.make(4).across(thick, fr.u)
    hs = np.array([2.0 ** -3, 2.0 ** -5, 2.0 ** -7])
    for h in (2.0 ** -4, hs):
        rec = sg.build_recovery(data, h=h, e_h=np.asarray(h) ** 4)
        ref = np.sum(wt[..., None] * rec.evaluate(t), axis=-3)
        got = rec.transversal_sum(t, wt)
        assert got.shape == ref.shape == np.shape(h) + fr.x.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (kind, h)
    h = 2.0 ** -4
    rec = sg.build_recovery(data, h=h, e_h=h ** 4)
    offset = rec.evaluate(t) - (fr.x + (h * t)[..., None] * fr.n)
    ref = (h / h ** 2) * np.sum(wt[..., None] * offset, axis=0) / thick.total(fr.u)[..., None]
    got = sg.averaged_displacement(rec, sg.TransversalRule.make(4))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), kind


def test_averaged_displacement_trivial_and_convergent():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso0 = sg.build_isometry(sg.zero_vector_field(plate.domain), quad=quad)
    data0 = sg.recovery_data(plate, W, iso0, sg.zero_vector_field(plate.domain),
                             thick, kappa=1.0, frame=plate.frame(np.array([0.3, 0.6])))
    rec0 = sg.build_recovery(data0, h=0.125, e_h=0.125 ** 4)
    vh0 = sg.averaged_displacement(rec0, trule)
    assert np.allclose(vh0, 0.0, atol=1e-14)

    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    dists = []
    for k in (3, 4, 5, 6):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        vh = sg.averaged_displacement(rec, trule)
        dists.append(sg.discrete_l2_distance(vh, V.value(quad.frame.u), quad))
    from shellgamma.studies import fit_order
    slope, _ = fit_order(list(zip([2.0 ** -k for k in (3, 4, 5, 6)], dists)))
    assert slope >= 0.9
    for a, b in zip(dists, dists[1:]):
        assert b < a


def test_batched_recovery_equals_stacked_points():
    # at the node array and at other chart points alike, data built at a
    # batch of points gives, at a (T, N) grid of t, the results of data
    # built at each single point
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    from shellgamma.fields import affine_scalar, constant_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, cap.domain),
                             g2=affine_scalar(0.55, [0.04, 0.01], cap.domain),
                             lipschitz_bound=1.0)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 2)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, cap.domain)
    h = 2.0 ** -4

    def recovery(u):
        return sg.build_recovery(sg.recovery_data(cap, W, iso, w, thick, 1.0, cap.frame(u)),
                                 h=h, e_h=h ** 4)

    rng = np.random.default_rng(4)
    off_nodes = np.column_stack([rng.uniform(0.2, 0.9, 3), rng.uniform(0.5, 5.5, 3)])
    for u in (quad.frame.u, off_nodes):
        t = rng.uniform(-0.35, 0.45, size=(2, len(u)))
        singles = [recovery(p) for p in u]
        for f in (lambda rec, t: rec.evaluate(t), lambda rec, t: rec.gradient(t)[0],
                  lambda rec, t: rec.gradient(t)[1]):
            batched = f(recovery(u), t)
            stacked = np.stack([np.stack([f(one, t[k, i]) for i, one in enumerate(singles)])
                                for k in range(2)])
            assert batched.shape == stacked.shape
            assert np.max(np.abs(batched - stacked)) <= 1e-12 * np.max(np.abs(stacked))


@pytest.mark.parametrize("energy", [sg.eval_shell_energy, sg.shell_energy_tangential_lower_bound])
def test_energies_refuse_a_recovery_built_at_other_points(energy):
    # the nodes in reverse order have the size of the nodes: read at the
    # quadrature weights, they would give a wrong integral without an error
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1, plate.domain), quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)

    def recovery(frame):
        data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=frame)
        return sg.build_recovery(data, h=2.0 ** -4, e_h=2.0 ** -16)

    with pytest.raises(ParameterError, match="other chart points than the quadrature nodes"):
        energy(recovery(quad.frame[::-1]), W, quad, trule)
    # equal nodes in another array are the same points
    rec = recovery(quad.frame)
    equal = sg.SurfaceQuadrature(frame=plate.frame(quad.frame.u.copy()), weights=quad.weights)
    assert energy(rec, W, equal, trule) == energy(rec, W, quad, trule)


def test_averaged_displacement_sym_grad_tracks_strain():
    # the transversal averaging cancels every term of the recovery except
    # V + h w + h^2 (moment) d1; on the plate d1 is vertical, so the scaled
    # symmetric tangential gradient reproduces B_tan to diagnostic resolution
    plate, thick, W, quad, trule = plate_scene(order=4)
    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    probes = quad.frame[np.array([3, 7])]
    # the data at the stencil points of the probes, from whose values the diagnostic differentiates
    stencil = stencil_points(probes.u, stencil_steps(probes.u, plate.domain))
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=plate.frame(stencil))
    for k in (3, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        S = sg.averaged_displacement_sym_grad(rec, trule, probes, plate.domain)
        for i in range(2):
            fr = probes[i]
            assert np.linalg.norm(S[i] - tangential_strain(fr, w.d1(fr))) <= 1e-9
    with pytest.raises(ParameterError, match="stencil points of the frame"):
        sg.averaged_displacement_sym_grad(rec, trule, probes[:1], plate.domain)


def grid_scene(kind, order):
    """Patch, isometry, w, thickness and a node rule with one node whose step is clamped."""
    if kind == "plate":
        patch = sg.make_builtin_patch("plate")
        V = sg.plate_sine_field(1.0, 1, 1, patch.domain)
        thick = sg.ThicknessPair.constant(0.4, 0.6, patch.domain)
        edge = [0.5, 1.0 - 5e-5]
    else:
        patch = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
        V = sg.rigid_field(patch, (0.3, -0.2, 0.4))
        thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4, patch.domain),
                                 g2=sg.affine_scalar(0.55, [0.04, 0.01], patch.domain),
                                 lipschitz_bound=1.0)
        edge = [np.pi / 3 - 1e-4, 2.0]
    quad = sg.surface_quadrature(patch, order)
    quad = sg.SurfaceQuadrature(frame=patch.frame(np.vstack([quad.frame.u, edge])),
                                weights=np.append(quad.weights, 0.0))
    iso = sg.build_isometry(V, quad=quad)
    return patch, iso, sg.trig_vector_field(GENERIC_W, patch.domain), thick, quad


@pytest.mark.parametrize("order", [4, 10])
@pytest.mark.parametrize("kind", ["plate", "sphere_cap"])
def test_bundle_reads_DV_and_An_of_the_grid_bit_for_bit(kind, order, monkeypatch):
    # the (9, N) bundle takes the chart partials of V and A n from rows of
    # the 33-point grid; they equal a fresh evaluation at the nodes and their
    # stencil points, the clamped step of the last node included
    from shellgamma.fields import stencil_points, stencil_steps
    patch, iso, w, thick, quad = grid_scene(kind, order)
    u = quad.frame.u
    d = stencil_steps(u, patch.domain)
    assert np.any(d[:, -1] < d[:, :-1].min(axis=1))  # the edge node's step is clamped
    seen = []
    A_at = sg.IsometryField.A_at

    def recording_A_at(self, fr, An, DV):
        seen.append((fr.u, An, DV))
        return A_at(self, fr, An, DV)

    monkeypatch.setattr(sg.IsometryField, "A_at", recording_A_at)
    sg.recovery_data(patch, sg.make_isotropic(1.0, 1.0), iso, w, thick, 1.0, quad.frame)
    [(points, An, DV)] = seen
    expected = np.concatenate([u[None], stencil_points(u, d).reshape((8,) + u.shape)])
    assert np.array_equal(points, expected)
    assert np.array_equal(DV, iso.displacement.d1(patch.metric(expected)))
    assert np.array_equal(An, iso.An(patch.metric(expected))[0])


@pytest.mark.parametrize("kind", sorted(sg.geometry.PATCH_KINDS))
def test_bundle_frame_carries_the_products_of_its_points(monkeypatch, kind):
    # the bundle over the nodes and their stencil points concatenates the
    # products of the two frames: they equal the products formed on the
    # concatenated fields, bit for bit
    patch = sg.make_builtin_patch(kind)
    quad = sg.surface_quadrature(patch, 5)
    thick = sg.ThicknessPair.constant(0.5, 0.5, patch.domain)
    zero = sg.zero_vector_field(patch.domain)
    iso = sg.build_isometry(zero, quad=quad)
    bundles = []
    limit_fields = recovery3d.limit_fields

    def capturing(iso, w, thick, kappa, frame, *rest):
        bundles.append(frame)
        return limit_fields(iso, w, thick, kappa, frame, *rest)

    monkeypatch.setattr(recovery3d, "limit_fields", capturing)
    data = sg.recovery_data(patch, sg.make_isotropic(1.0, 1.0), iso, zero, thick, 1.0,
                            frame=quad.frame)
    [fr] = bundles
    assert fr.u.shape == (9, 25, 2)
    assert_frame_products(fr)
    # no reader takes the bundle's surface points or area factor: they are not
    # evaluated, and NaN would reach any summary that read them
    assert np.isnan(fr.x).all() and np.isnan(fr.sqrt_det_metric).all()
    # the recovery reads the normal's partials off its frame, stored nowhere else
    assert "dn" not in data.fields
    assert np.array_equal(data.limit.frame.dn, fr.dn[0])


# Transient heap peak of recovery_data on sphere-gamma, by tracemalloc: 2.10 MB
# when the 33-point A n and DV and the stencil frames lived to the end, 1.53 MB
# once they were freed as soon as the bundle had what it reads of them, and
# 1.32 MB since reduce_q2 forms its coupling block from n (x) n, without the
# (..., 3, 3, 3) matrices e_i (x) n + n (x) e_i.  The peak now sits in
# build_d_fields.  The budget pins that transient allocation, so a temporary
# that outlives its reader fails here.
RECOVERY_PEAK_BUDGET = 1_400_000  # bytes


def test_recovery_data_keeps_its_transient_peak_within_budget():
    import tracemalloc

    from shellgamma import studies
    cfg = studies.load_config("sphere-gamma")
    patch, thick, squad, iso, w = studies._gamma_scene(cfg)
    args = (patch, studies._build(studies._MATERIALS, "type", cfg.material), iso, w, thick,
            cfg.kappa, squad.frame)
    sg.recovery_data(*args)  # warm: caches of the patch and the quadrature
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sg.recovery_data(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= RECOVERY_PEAK_BUDGET, f"transient peak {peak} bytes"
