import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import NotAnIsometryError
from shellgamma.fields import VectorField
from shellgamma.studies import fit_order

GENERIC_W = [(0.4, 1.3, 0.2, 0.9, 0.5),
             (0.3, 0.7, 1.1, 1.4, 0.3),
             (0.5, 1.1, 0.4, 0.8, 1.2)]


def curved_patches():
    return [
        sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3),
        sg.make_builtin_patch("cylinder", radius=1.0, height=1.0),
        sg.make_builtin_patch("torus_patch", major_radius=2.0, minor_radius=0.5),
    ]


def test_rigid_field_has_constant_skew_gradient():
    omega = (0.3, -0.2, 0.4)
    W = sg.skew_matrix(omega)
    for patch in [sg.make_builtin_patch("plate")] + curved_patches():
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(patch, sg.rigid_field(patch, omega, (0.1, 0.2, -0.3)),
                                quad=quad)
        for node in quad.nodes[::5]:
            assert np.allclose(iso.A_at(node.frame.u), W, atol=1e-12)


def test_isometry_invariants_at_nodes():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    quad = sg.surface_quadrature(plate, 6)
    iso = sg.build_isometry(plate, V, quad=quad)
    for node in quad.nodes[::7]:
        fr = node.frame
        A = iso.A_at(fr.u)
        assert np.linalg.norm(A + A.T) <= 1e-12
        DV = V.d1(fr.u)
        for i in (0, 1):
            assert np.linalg.norm(A @ fr.jac[:, i] - DV[:, i]) <= iso.tol


def test_plate_normal_column_of_A():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(0.8, 1, 2, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, V, quad=quad)
    u = np.array([0.37, 0.61])
    dv = V.d1(u)[2]  # gradient of the out-of-plane component
    assert np.allclose(iso.An_at(u), [-dv[0], -dv[1], 0.0], atol=1e-12)


def test_An_matches_the_normal_rotation_formula():
    # independent route to A n from V and the frame alone: Pi V_tan - grad(V . n)
    plate = sg.make_builtin_patch("plate")
    cases = [(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain))]
    cases += [(patch, sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3)))
              for patch in curved_patches()]
    for patch, V in cases:
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(patch, V, quad=quad)
        for node in quad.nodes:
            fr = node.frame
            v = V.value(fr.u)
            d_vn = V.d1(fr.u).T @ fr.n + (fr.shape_op @ fr.jac).T @ v
            expected = fr.shape_op @ (v - float(v @ fr.n) * fr.n) - fr.grad3(d_vn)
            assert np.linalg.norm(iso.An_at(fr.u) - expected) <= 1e-13


def test_in_plane_stretch_is_rejected_with_worst_node():
    plate = sg.make_builtin_patch("plate")
    stretch = VectorField.from_callables(
        lambda u: np.array([u[0], 0.0, 0.0]), plate.domain,
        d1=lambda u: np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NotAnIsometryError) as err:
        sg.build_isometry(plate, stretch, quad=sg.surface_quadrature(plate, 4))
    assert err.value.u is not None
    assert err.value.residual > 0.1


def test_non_finite_displacement_is_rejected():
    from shellgamma.errors import EvaluationError
    plate = sg.make_builtin_patch("plate")
    broken = VectorField.from_callables(
        lambda u: np.array([0.0, 0.0, np.nan]), plate.domain,
        d1=lambda u: np.full((3, 2), np.nan))
    with pytest.raises(EvaluationError):
        sg.build_isometry(plate, broken, quad=sg.surface_quadrature(plate, 3))


def test_second_derivatives_have_symmetric_mixed_partials():
    plate = sg.make_builtin_patch("plate")
    analytic = [sg.plate_sine_field(1.0, 1, 1, plate.domain),
                sg.trig_vector_field(GENERIC_W, plate.domain)]
    sphere = curved_patches()[0]
    fd_backed = [sg.rigid_field(sphere, (0.3, -0.2, 0.4))]
    for field in analytic:
        d2 = field.d2(np.array([0.3, 0.6]))
        assert np.max(np.abs(d2[:, 0, 1] - d2[:, 1, 0])) <= 1e-8
    for field in fd_backed:
        d2 = field.d2(np.array([0.5, 2.0]))
        assert np.max(np.abs(d2[:, 0, 1] - d2[:, 1, 0])) <= 1e-8


def test_bending_tensor_vanishes_for_rigid_motions():
    for patch in curved_patches():
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(patch, sg.rigid_field(patch, (0.3, -0.2, 0.4)),
                                quad=quad)
        tensor = sg.bending_tensor(iso, patch)
        worst = max(np.linalg.norm(tensor(node.frame)) for node in quad.nodes)
        assert worst <= 1e-8, patch.name


def test_bending_tensor_on_plate_is_minus_hessian():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(0.9, 1, 1, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, V, quad=quad)
    tensor = sg.bending_tensor(iso, plate)
    for node in quad.nodes[::6]:
        fr = node.frame
        hess = V.d2(fr.u)[2]  # 2x2 hessian of the vertical component
        assert np.allclose(tensor(fr), -hess, atol=1e-9)


def test_stretching_tensor_reduces_to_strain_bitwise():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    strain = sg.StrainField.from_generator(sg.trig_vector_field(GENERIC_W, plate.domain))
    tensor = sg.stretching_tensor(iso, strain, thick, kappa=0.0, patch=plate)
    for node in quad.nodes[::6]:
        fr = node.frame
        assert np.array_equal(tensor(fr), strain(fr))


def test_stretching_tensor_plate_vortex_term():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    V = sg.plate_sine_field(1.0, 1, 1, plate.domain)
    iso = sg.build_isometry(plate, V, quad=quad)
    strain = sg.StrainField.from_generator(sg.trig_vector_field(GENERIC_W, plate.domain))
    tensor = sg.stretching_tensor(iso, strain, thick, kappa=1.0, patch=plate)
    for node in quad.nodes[::6]:
        fr = node.frame
        grad_v = V.d1(fr.u)[2]
        expected = strain(fr) + 0.5 * np.outer(grad_v, grad_v)
        assert np.allclose(tensor(fr), expected, atol=1e-12)


def test_stretching_tensor_zero_for_zero_fields():
    plate = sg.make_builtin_patch("plate")
    from shellgamma.fields import constant_scalar, sine_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4, plate.domain),
                             g2=sine_scalar(0.6, 0.1, (1.0, 1.0), (0.2, 0.4), plate.domain),
                             lipschitz_bound=1.0)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    strain = sg.StrainField.zero(plate.domain)
    tensor = sg.stretching_tensor(iso, strain, thick, kappa=1.0, patch=plate)
    for node in quad.nodes[::6]:
        assert np.allclose(tensor(node.frame), 0.0, atol=1e-14)


def test_stretching_expansion_trivial_and_bounded():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    zero = sg.zero_vector_field(plate.domain)
    iso0 = sg.build_isometry(plate, zero, quad=quad)
    assert sg.stretching_expansion_residual(plate, iso0, zero, thick, 0.1, quad) <= 1e-15

    # w = 0: the identity is exactly quadratic in h, residual at rounding level
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    for h in (1e-1, 1e-2, 1e-3):
        res = sg.stretching_expansion_residual(plate, iso, zero, thick, h, quad)
        assert res <= max(1e-6 * h ** 3, 1e-13)


def test_stretching_expansion_third_order_with_w():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    hs = [2.0 ** -k for k in range(3, 8)]
    pairs = [(h, sg.stretching_expansion_residual(plate, iso, w, thick, h, quad))
             for h in hs]
    slope, r2 = fit_order(pairs)
    assert slope >= 2.9 and r2 >= 0.99
    # residual / h^3 stays bounded
    ratios = [r / h ** 3 for h, r in pairs]
    assert max(ratios) <= 2.0 * ratios[0] + 1e-12


def test_rigid_isometries_give_exact_stretching_identity():
    sphere = curved_patches()[0]
    thick = sg.ThicknessPair.constant(0.5, 0.5, sphere.domain)
    quad = sg.surface_quadrature(sphere, 4)
    iso = sg.build_isometry(sphere, sg.rigid_field(sphere, (0.2, 0.1, -0.3)),
                            quad=quad)
    zero = sg.zero_vector_field(sphere.domain)
    pairs = [(h, sg.stretching_expansion_residual(sphere, iso, zero, thick, h, quad))
             for h in [2.0 ** -k for k in range(3, 8)]]
    slope, r2 = fit_order(pairs)  # all residuals at rounding level -> exact
    assert slope == np.inf


def test_bending_expansion_trivial_case():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 3)
    iso = sg.build_isometry(plate, sg.zero_vector_field(plate.domain), quad=quad)
    assert sg.bending_expansion_residual(plate, iso, thick, 0.1, quad) <= 1e-9


def test_bending_expansion_second_order_on_plate():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5, plate.domain)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain),
                            quad=quad)
    hs = [2.0 ** -k for k in range(3, 8)]
    pairs = [(h, sg.bending_expansion_residual(plate, iso, thick, h, quad))
             for h in hs]
    slope, r2 = fit_order(pairs)
    assert slope >= 1.9 and r2 >= 0.99


def test_bending_expansion_rigid_cylinder_left_side_small():
    # rigid motions preserve the shape operator up to conjugation: the pulled
    # back difference is O(h^2) discretization of the linearized rotation
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair.constant(0.5, 0.5, cyl.domain)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(cyl, sg.rigid_field(cyl, (0.3, -0.2, 0.4)), quad=quad)
    for h in (2.0 ** -3, 2.0 ** -5):
        assert sg.bending_expansion_residual(cyl, iso, thick, h, quad) <= 0.5 * h ** 2


def test_midsurface_strain_deficit_is_exact():
    for patch, V in [
        (sg.make_builtin_patch("plate"), None),
        (curved_patches()[0], None),
    ]:
        V = sg.rigid_field(patch, (0.1, 0.4, -0.2)) if patch.name != "plate" \
            else sg.plate_sine_field(1.0, 1, 1, patch.domain)
        from shellgamma.fields import affine_scalar, constant_scalar
        thick = sg.ThicknessPair(
            g1=constant_scalar(0.5, patch.domain),
            g2=affine_scalar(0.55, [0.05, -0.03], patch.domain),
            lipschitz_bound=1.0)
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(patch, V, quad=quad)
        for h in (0.1, 0.01):
            assert sg.midsurface_strain_deficit(patch, iso, thick, h, quad) <= 1e-11


def test_strain_field_matches_generator_gradient():
    plate = sg.make_builtin_patch("plate")
    w = sg.trig_vector_field(GENERIC_W, plate.domain)
    strain = sg.StrainField.from_generator(w)
    quad = sg.surface_quadrature(plate, 4)
    for node in quad.nodes[::5]:
        fr = node.frame
        B = strain(fr)
        assert np.allclose(B, B.T, atol=1e-14)
        Dw = w.d1(fr.u)[:2, :]  # plate frame: tangential gradient is the 2x2 block
        assert np.allclose(B, 0.5 * (Dw + Dw.T), atol=1e-12)


def isometry_cases():
    plate = sg.make_builtin_patch("plate")
    cases = [(plate, sg.plate_sine_field(1.0, 1, 1, plate.domain))]
    cases += [(patch, sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3)))
              for patch in curved_patches()]
    return cases


@pytest.mark.parametrize("case", range(4), ids=["plate", "sphere_cap", "cylinder",
                                                "torus_patch"])
def test_batched_isometry_fields_equal_stacked_points(case):
    patch, V = isometry_cases()[case]
    quad = sg.surface_quadrature(patch, 4)
    iso = sg.build_isometry(patch, V, quad=quad)
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4, patch.domain),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01], patch.domain),
                             lipschitz_bound=1.0)
    strain = sg.StrainField.from_generator(sg.trig_vector_field(GENERIC_W, patch.domain))
    u = quad.frame.u
    checks = [
        (iso.A_at(u), [iso.A_at(p) for p in u]),
        (iso.An_at(u), [iso.An_at(p) for p in u]),
        (iso.An_partials(u), [iso.An_partials(p) for p in u]),
        (sg.bending_tensor(iso, patch)(quad.frame),
         [sg.bending_tensor(iso, patch)(node.frame) for node in quad.nodes]),
        (sg.stretching_tensor(iso, strain, thick, 1.0, patch)(quad.frame),
         [sg.stretching_tensor(iso, strain, thick, 1.0, patch)(node.frame)
          for node in quad.nodes]),
    ]
    for batched, singles in checks:
        stacked = np.stack(singles)
        assert batched.shape == stacked.shape
        assert np.max(np.abs(batched - stacked)) <= 1e-14 * np.max(np.abs(stacked))
