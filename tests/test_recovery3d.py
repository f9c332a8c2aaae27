import dataclasses

import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import EnergyBlowupError, ParameterError, ThicknessError

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


def test_trivial_recovery_is_the_identity():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    data = sg.recovery_data(plate, W, iso, sg.StrainField.zero(plate.domain),
                            thick, kappa=1.0)
    rec = sg.build_recovery(data, h=0.125, e_h=0.125 ** 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.uniform(0.1, 0.9, size=2)
        t = rng.uniform(-0.4, 0.4)
        fr = plate.frame(u)
        assert np.allclose(rec.evaluate(u, t), fr.x + rec.h * t * fr.n, atol=1e-14)
        assert np.allclose(rec.gradient(u, t), np.eye(3), atol=1e-12)
    ev = sg.eval_shell_energy(rec, W, quad, trule)
    assert ev.E_h == pytest.approx(0.0, abs=1e-20)


def test_d_fields_vanish_for_zero_data():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    d0, d1 = sg.build_d_fields(plate, W, iso, sg.StrainField.zero(plate.domain),
                               thick, kappa=1.0)
    for node in quad.nodes[::5]:
        assert np.allclose(d0.value(node.frame.u), 0.0, atol=1e-13)
        assert np.allclose(d1.value(node.frame.u), 0.0, atol=1e-13)


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
    strain = sg.StrainField.from_tensor(
        lambda fr: 0.5 * kappa * fr.tan2(Wmat @ Wmat))
    W = sg.make_isotropic(1.0, 1.0)
    d0, d1 = sg.build_d_fields(cap, W, iso, strain, thick, kappa=kappa)
    for node in quad.nodes[::6]:
        fr = node.frame
        assert np.allclose(d1.value(fr.u), 0.0, atol=1e-8)
        W2n = Wmat @ (Wmat @ fr.n)
        expected = kappa * W2n - 0.5 * kappa * float(fr.n @ W2n) * fr.n
        assert np.allclose(d0.value(fr.u), expected, atol=1e-10)


def test_d1_vanishes_for_zero_lambda_on_plate():
    # lambda = 0 kills the minimizer map; the plate frame terms vanish too
    plate, thick, _, quad, trule = plate_scene()
    W = sg.make_isotropic(1.0, 0.0)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    _, d1 = sg.build_d_fields(plate, W, iso, sg.StrainField.zero(plate.domain),
                              thick, kappa=1.0)
    for node in quad.nodes[::7]:
        assert np.allclose(d1.value(node.frame.u), 0.0, atol=1e-10)


def test_recovery_requires_generator_strain():
    plate, thick, W, quad, trule = plate_scene()
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    direct = sg.StrainField.from_tensor(lambda fr: np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        sg.recovery_data(plate, W, iso, direct, thick, kappa=1.0)


def test_recovery_rejects_too_thick_shells():
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair.constant(3.0, 3.0, cyl.domain)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(cyl, sg.zero_vector_field(cyl.domain), quad=quad)
    data = sg.recovery_data(cyl, W, iso, sg.StrainField.zero(cyl.domain), thick,
                            kappa=1.0)
    with pytest.raises(ThicknessError):
        sg.build_recovery(data, h=0.5, e_h=0.5 ** 4)


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
    strain = sg.StrainField.from_generator(sg.trig_vector_field(GENERIC_W, cap.domain))
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(cap, W, iso, strain, thick, kappa=1.0),
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
        M, _ = sg.offset_jacobian(cap, u, h * t)
        Z = np.column_stack([M @ fr.jac[:, 0], M @ fr.jac[:, 1], h * fr.n])
        Y_asm = rec.gradient(u, t) @ Z
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
    strain = sg.StrainField.from_generator(sg.trig_vector_field(GENERIC_W, cap.domain))
    scene = (cap, W, iso, strain, thick, 1.0)
    data = sg.recovery_data(*scene)
    h0, h1 = 2.0 ** -3, 2.0 ** -5
    sg.eval_shell_energy(sg.build_recovery(data, h0, h0 ** 4), W, quad, trule)

    shared = sg.build_recovery(data, h1, h1 ** 4)
    fresh = sg.build_recovery(sg.recovery_data(*scene), h1, h1 ** 4)
    for node in quad.nodes:
        u = node.frame.u
        for t in (-0.3, 0.0, 0.45):
            assert np.array_equal(shared.evaluate(u, t), fresh.evaluate(u, t))
            assert np.array_equal(shared.gradient(u, t), fresh.gradient(u, t))

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
    strain = sg.StrainField.zero(plate.domain)
    data = sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0)
    ratios = []
    sups = []
    for k in range(3, 9):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        sup = 0.0
        for node in quad.nodes[::3]:
            for t in (-0.4, 0.0, 0.4):
                sup = max(sup, np.linalg.norm(rec.gradient(node.frame.u, t) - np.eye(3)))
        sups.append(sup)
        ratios.append(sup / (np.sqrt(rec.e_h) / h))
    assert max(ratios) <= 2.0 * min(ratios)  # C = sup / (sqrt(e_h)/h) stable
    assert sups[-1] < sups[0]  # uniform convergence to the identity map


def test_energy_frame_indifference():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    strain = sg.StrainField.zero(plate.domain)
    h = 2.0 ** -4
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0),
                            h=h, e_h=h ** 4)
    base = sg.eval_shell_energy(rec, W, quad, trule)

    from shellgamma.loads import random_rotations
    R = random_rotations(np.random.default_rng(5), 1)[0]
    rotated = dataclasses.replace(
        rec,
        evaluate=lambda u, t: R @ rec.evaluate(u, t),
        gradient=lambda u, t: R @ rec.gradient(u, t))
    rotated_energy = sg.eval_shell_energy(rotated, W, quad, trule)
    assert rotated_energy.E_h == pytest.approx(base.E_h, rel=1e-10)


def test_energy_blowup_reports_worst_node():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    strain = sg.StrainField.zero(plate.domain)
    # e_h chosen so sqrt(e_h)/h is order one: far outside the small-strain regime
    rec = sg.build_recovery(sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0),
                            h=0.25, e_h=0.5)
    with pytest.raises(EnergyBlowupError) as err:
        sg.eval_shell_energy(rec, W, quad, trule)
    assert err.value.u is not None and err.value.t is not None


def test_shell_energy_requires_stored_energy():
    plate, thick, W, quad, trule = plate_scene(order=4)
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    data = sg.recovery_data(plate, W, iso, sg.StrainField.zero(plate.domain),
                            thick, kappa=1.0)
    rec = sg.build_recovery(data, h=0.1, e_h=1e-4)
    q3 = sg.as_q3(W)
    with pytest.raises(ParameterError):
        sg.eval_shell_energy(rec, q3, quad, trule)


def test_energy_converges_to_limit_quickly():
    plate, thick, W, quad, trule = plate_scene(order=6)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    strain = sg.StrainField.zero(plate.domain)
    I_val = sg.eval_I(plate, thick, W, iso, strain, 1.0, quad=quad).total
    data = sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0)
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
    strain = sg.StrainField.zero(plate.domain)
    data = sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0)
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
    data0 = sg.recovery_data(plate, W, iso0, sg.StrainField.zero(plate.domain),
                             thick, kappa=1.0)
    rec0 = sg.build_recovery(data0, h=0.125, e_h=0.125 ** 4)
    vh0 = sg.averaged_displacement(rec0, plate, thick, trule)
    assert np.allclose(vh0(np.array([0.3, 0.6])), 0.0, atol=1e-14)

    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(plate, V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    strain = sg.StrainField.from_generator(w)
    data = sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0)
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


def test_averaged_displacement_sym_grad_tracks_strain():
    # the transversal averaging cancels every term of the recovery except
    # V + h w + h^2 (moment) d1; on the plate d1 is vertical, so the scaled
    # symmetric tangential gradient reproduces B_tan to diagnostic resolution
    plate, thick, W, quad, trule = plate_scene(order=4)
    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(plate, V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    strain = sg.StrainField.from_generator(w)
    probes = [quad.nodes[3].frame, quad.nodes[7].frame]
    data = sg.recovery_data(plate, W, iso, strain, thick, kappa=1.0)
    for k in (3, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        for fr in probes:
            S = sg.averaged_displacement_sym_grad(rec, plate, thick, trule, fr)
            assert np.linalg.norm(S - strain(fr)) <= 1e-9
