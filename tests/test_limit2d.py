import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import ParameterError
from shellgamma.material import isotropic_q2_closed_form

from oracles import An_partials

GENERIC_W = [(0.2, 1.1, 0.3, 0.7, 0.4),
             (0.15, 0.9, 0.2, 1.3, 0.9),
             (0.3, 1.2, 0.5, 0.8, 0.1)]

# stretching-only limit for the unit-sphere cap of polar angle pi/3 with
# V = rotation about e3, mu = lambda = 1, g1 = g2 = 1/2, kappa = 1:
# direct integration of Q2((1/2) diag(cos^2 th, 1)) sin th dth dphi
SPHERE_CAP_STRETCHING = np.pi * 403.0 / 720.0


def eval_I(patch, thick, material, iso, w, kappa, quad):
    """The limit functional of (V, B_tan = sym grad w) from its fields at the nodes of quad."""
    fr = quad.frame
    fields = sg.limit_fields(iso, w, thick, kappa, fr, *iso.An(fr),
                             An_partials(patch, iso, fr.u))
    return sg.eval_I(fields, sg.reduce_q2(material.q3, fr.n, fr.tangents), thick, quad)


def bending_only(patch, thick, material, iso, quad):
    """The bending part of the limit functional, with B_tan = 0 and kappa = 0."""
    zero = sg.zero_vector_field()
    return eval_I(patch, thick, material, iso, zero, 0.0, quad).bending


def plate_scene(mu=1.0, lam=1.0, amp=1.0):
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(mu, lam)
    quad = sg.surface_quadrature(plate, 8)
    V = sg.plate_sine_field(amp, 1, 1)
    iso = sg.build_isometry(V, quad=quad)
    return plate, thick, W, quad, V, iso


def test_zero_fields_zero_energy():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(sg.zero_vector_field(), quad=quad)
    out = eval_I(plate, thick, W, iso, sg.zero_vector_field(), 1.0, quad=quad)
    assert out.total == pytest.approx(0.0, abs=1e-14)
    assert out.stretching >= 0.0 and out.bending >= 0.0


def test_sphere_cap_rigid_rotation_closed_form():
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 8)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.0, 0.0, 1.0)), quad=quad)
    out = eval_I(cap, thick, W, iso, sg.zero_vector_field(), 1.0, quad=quad)
    assert out.bending == pytest.approx(0.0, abs=1e-10)
    assert out.stretching == pytest.approx(SPHERE_CAP_STRETCHING, rel=1e-9)
    assert out.total == out.stretching + out.bending


def _plate_oracle(mu, lam, amp, w_components, order=20):
    """Independent classical von Karman evaluation on the unit plate.

    Uses the isotropic Q2 closed form with explicit analytic derivatives of
    the out-of-plane sine field and the in-plane trig generator, on a dense
    Gauss grid; shares no code with eval_I's tensor assembly.
    """
    x, wx = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    wx = 0.5 * wx
    stretch = 0.0
    bend = 0.0
    for u1, w1 in zip(x, wx):
        for u2, w2 in zip(x, wx):
            grad_v = amp * np.pi * np.array([
                np.cos(np.pi * u1) * np.sin(np.pi * u2),
                np.sin(np.pi * u1) * np.cos(np.pi * u2)])
            hess_v = amp * np.pi ** 2 * np.array([
                [-np.sin(np.pi * u1) * np.sin(np.pi * u2),
                 np.cos(np.pi * u1) * np.cos(np.pi * u2)],
                [np.cos(np.pi * u1) * np.cos(np.pi * u2),
                 -np.sin(np.pi * u1) * np.sin(np.pi * u2)]])
            Dw = np.zeros((2, 2))
            for k in range(2):  # only the in-plane components enter B_tan
                a, f1, p1, f2, p2 = w_components[k]
                Dw[k, 0] = a * f1 * np.cos(f1 * u1 + p1) * np.sin(f2 * u2 + p2)
                Dw[k, 1] = a * f2 * np.sin(f1 * u1 + p1) * np.cos(f2 * u2 + p2)
            B = 0.5 * (Dw + Dw.T)
            arg = B + 0.5 * np.outer(grad_v, grad_v)
            stretch += w1 * w2 * 0.5 * isotropic_q2_closed_form(mu, lam, arg)
            bend += w1 * w2 / 24.0 * isotropic_q2_closed_form(mu, lam, hess_v)
    return stretch, bend


def test_plate_matches_independent_von_karman_oracle():
    # matched quadrature order on both paths isolates the tensor assembly
    mu, lam, amp = 1.0, 1.0, 0.8
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(mu, lam)
    quad = sg.surface_quadrature(plate, 16)
    iso = sg.build_isometry(sg.plate_sine_field(amp, 1, 1),
                            quad=quad)
    w = sg.trig_vector_field(GENERIC_W)
    out = eval_I(plate, thick, W, iso, w, 1.0, quad=quad)
    stretch_ref, bend_ref = _plate_oracle(mu, lam, amp, GENERIC_W, order=16)
    assert out.stretching == pytest.approx(stretch_ref, rel=1e-10)
    assert out.bending == pytest.approx(bend_ref, rel=1e-10)


def test_i_tilde_equals_bending_part():
    plate, thick, W, quad, V, iso = plate_scene()
    w = sg.trig_vector_field(GENERIC_W)
    out = eval_I(plate, thick, W, iso, w, 1.0, quad=quad)
    bend_only = bending_only(plate, thick, W, iso, quad)
    assert bend_only == pytest.approx(out.bending, rel=1e-13)
    _, bend_ref = _plate_oracle(1.0, 1.0, 1.0, GENERIC_W)
    assert bend_only == pytest.approx(bend_ref, rel=1e-8)


def test_i_tilde_zero_for_rigid_motion_on_sphere():
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(cap, 6)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.4, 0.1, -0.2)), quad=quad)
    assert bending_only(cap, thick, W, iso, quad) <= 1e-14


def test_i_tilde_cubic_thickness_scaling():
    plate, thick_half, W, quad, V, iso = plate_scene()
    thick_one = sg.ThicknessPair.constant(1.0, 1.0)
    a = bending_only(plate, thick_half, W, iso, quad)
    b = bending_only(plate, thick_one, W, iso, quad)
    assert b == pytest.approx(8.0 * a, rel=1e-12)


def test_sum_invariance_for_equal_total_thickness_on_plate():
    # on the plate with constant profiles only g1 + g2 enters
    plate, _, W, quad, V, iso = plate_scene()
    w = sg.trig_vector_field(GENERIC_W)
    outs = []
    for g1, g2 in [(0.5, 0.5), (0.3, 0.7), (0.4, 0.6)]:
        thick = sg.ThicknessPair.constant(g1, g2)
        outs.append(eval_I(plate, thick, W, iso, w, 1.0, quad=quad))
    for other in outs[1:]:
        assert other.stretching == pytest.approx(outs[0].stretching, rel=1e-12)
        assert other.bending == pytest.approx(outs[0].bending, rel=1e-12)


def test_kappa_zero_with_zero_strain_has_zero_stretching():
    plate, thick, W, quad, V, iso = plate_scene()
    out = eval_I(plate, thick, W, iso, sg.zero_vector_field(), 0.0, quad=quad)
    assert out.stretching == pytest.approx(0.0, abs=1e-14)
    assert out.bending > 0.0


def test_quadrature_order_stability():
    plate, thick, W, _, V, _ = plate_scene()
    w = sg.trig_vector_field(GENERIC_W)
    vals = []
    for order in (10, 14):  # default and default + 4
        quad = sg.surface_quadrature(plate, order)
        iso = sg.build_isometry(V, quad=quad)
        vals.append(eval_I(plate, thick, W, iso, w, 1.0, quad=quad).total)
    assert abs(vals[1] - vals[0]) <= 1e-8 * abs(vals[0])


def test_eval_J_reductions_and_load_term():
    plate, thick, W, quad, V, iso = plate_scene()
    w = sg.trig_vector_field(GENERIC_W)
    base = eval_I(plate, thick, W, iso, w, 1.0, quad=quad)
    vertical = np.broadcast_to([0.0, 0.0, 1.0], quad.frame.x.shape)

    # f = 0: J = I
    J0 = sg.eval_J(base, thick, iso, np.zeros(quad.frame.x.shape), np.eye(3), quad=quad)
    assert J0.total == pytest.approx(base.total, rel=1e-13)
    assert J0.load_term == 0.0

    # V = 0: load term vanishes
    iso0 = sg.build_isometry(sg.zero_vector_field(), quad=quad)
    base0 = eval_I(plate, thick, W, iso0, w, 1.0, quad=quad)
    Jz = sg.eval_J(base0, thick, iso0, vertical, np.eye(3), quad=quad)
    assert Jz.load_term == pytest.approx(0.0, abs=1e-14)
    assert Jz.total == pytest.approx(Jz.stretching + Jz.bending, rel=1e-13)

    # vertical unit load against the sine isometry: integral of the deflection
    Jv = sg.eval_J(base, thick, iso, vertical, np.eye(3), quad=quad)
    assert Jv.load_term == pytest.approx(4.0 / np.pi ** 2, rel=1e-10)
    assert Jv.total == pytest.approx(base.total - 4.0 / np.pi ** 2, rel=1e-12)
    # J reuses the caller's I exactly
    assert (Jv.stretching, Jv.bending) == (base.stretching, base.bending)


def test_eval_J_rejects_non_rotations():
    plate, thick, W, quad, V, iso = plate_scene()
    w = sg.zero_vector_field()
    base = eval_I(plate, thick, W, iso, w, 1.0, quad=quad)
    with pytest.raises(ParameterError):
        sg.eval_J(base, thick, iso, np.zeros(quad.frame.x.shape),
                  2.0 * np.eye(3), quad=quad)
    with pytest.raises(ParameterError):
        sg.eval_J(base, thick, iso, np.zeros(quad.frame.x.shape),
                  np.diag([1.0, 1.0, -1.0]), quad=quad)


def test_anisotropic_q3_material_is_accepted():
    plate, thick, _, quad, V, iso = plate_scene()
    w = sg.zero_vector_field()
    M = sg.make_isotropic(1.0, 1.0).q3.matrix6
    entries = [M[i, j] for i in range(6) for j in range(i, 6)]
    q3 = sg.QuadForm3.from_upper_triangle(entries)
    out_q3 = eval_I(plate, thick, sg.quadratic_energy(q3), iso, w, 1.0, quad=quad)
    out_W = eval_I(plate, thick, sg.make_isotropic(1.0, 1.0), iso, w, 1.0, quad=quad)
    assert out_q3.total == pytest.approx(out_W.total, rel=1e-13)
