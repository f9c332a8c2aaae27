import dataclasses
import re

import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import (DomainError, EvaluationError, ParameterError,
                               ThicknessError)
from shellgamma.geometry import gauss_legendre
from shellgamma.studies import fit_order


def all_builtin_patches():
    return [
        sg.make_builtin_patch("plate"),
        sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3),
        sg.make_builtin_patch("sphere", radius=1.5),
        sg.make_builtin_patch("cylinder", radius=2.0, height=1.0),
        sg.make_builtin_patch("torus_patch", major_radius=2.0, minor_radius=0.5),
    ]


def test_patch_invariants_hold_on_all_builtins():
    for patch in all_builtin_patches():
        quad = sg.surface_quadrature(patch, 6)
        worst = sg.validate_patch(patch, quad)
        assert worst["normal_norm"] <= 1e-12
        assert worst["normal_orth"] <= 1e-10
        assert worst["metric"] <= 1e-10
        assert worst["selfadj"] <= 1e-8


def test_validate_patch_names_the_first_bad_node():
    # normals tilted off the plate for u1 > 0.3 and, in addition, not unit
    # for u1 > 0.6: the first failing node in C order (u1 major) is a tilted
    # one, although the unit-norm check is listed first
    def normal(u):
        tilt = np.where(u[..., 0] > 0.3, 1e-3, 0.0)
        n = np.stack([tilt, np.zeros_like(tilt), np.ones_like(tilt)], axis=-1)
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        return n * np.where(u[..., 0] > 0.6, 1.0 + 1e-6, 1.0)[..., None]

    bent = dataclasses.replace(sg.make_builtin_patch("plate"), normal=normal)
    x, _ = gauss_legendre(4, 0.0, 1.0)  # node coordinates on either axis
    first = (float(x[x > 0.3][0]), float(x[0]))
    with pytest.raises(EvaluationError, match=re.escape(
            f"normal not orthogonal to tangents: 1.00e-03 at u={first}")):
        sg.validate_patch(bent, sg.surface_quadrature(bent, 4))


def test_plate_shape_operator_is_zero():
    plate = sg.make_builtin_patch("plate")
    u = np.array([0.3, 0.7])
    assert np.allclose(plate.shape_operator(u), 0.0)
    assert np.allclose(sg.shape_operator_fd(plate, u, 1e-4), 0.0)


def test_unit_sphere_cap_shape_operator_is_identity_on_tangents():
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 2)
    fr = cap.frame(np.array([0.8, 1.3]))
    S = fr.tan2(fr.shape_op)
    assert np.allclose(S, np.eye(2), atol=1e-12)
    assert np.allclose(fr.shape_op @ fr.n, 0.0, atol=1e-12)


def test_cylinder_principal_curvatures():
    cyl = sg.make_builtin_patch("cylinder", radius=2.0, height=1.0)
    fr = cyl.frame(np.array([1.1, 0.4]))
    S = fr.tan2(fr.shape_op)
    assert np.allclose(S, np.diag([0.5, 0.0]), atol=1e-12)
    S_fd = sg.shape_operator_fd(cyl, fr.u, 1e-4)
    assert np.allclose(S_fd, np.diag([0.5, 0.0]), atol=1e-7)


def test_sphere_fd_shape_operator_matches_within_step_squared():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    u = np.array([1.0, 2.0])
    for step in (1e-2, 1e-3):
        S_fd = sg.shape_operator_fd(sph, u, step)
        assert np.linalg.norm(S_fd - np.eye(2)) < 2.0 * step ** 2


def test_fd_shape_operator_second_order_convergence():
    # halving steps on curved patches: error slope >= 1.9 (plate is exact)
    for patch in all_builtin_patches():
        if patch.name == "plate":
            continue
        u = np.array([np.mean(patch.domain[0]), np.mean(patch.domain[1])])
        exact = sg.shape_operator_in_frame(patch, u)
        steps = [1e-2 / 2 ** k for k in range(6)]
        errs = [np.linalg.norm(sg.shape_operator_fd(patch, u, s) - exact)
                for s in steps]
        slope, r2 = fit_order(list(zip(steps, errs)))
        assert slope >= 1.9, (patch.name, slope)


def test_fd_shape_operator_rejects_boundary_points():
    plate = sg.make_builtin_patch("plate")
    with pytest.raises(DomainError):
        sg.shape_operator_fd(plate, np.array([1e-9, 0.5]), 1e-4)


def test_offset_jacobian_values():
    plate = sg.make_builtin_patch("plate")
    _, det = sg.offset_jacobian(plate.frame(np.array([0.2, 0.2])), 0.37)
    assert det == pytest.approx(1.0, abs=1e-14)

    sph = sg.make_builtin_patch("sphere", radius=1.0)
    _, det = sg.offset_jacobian(sph.frame(np.array([1.0, 2.0])), 0.1)
    assert det == pytest.approx(1.21, rel=1e-12)

    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    _, det = sg.offset_jacobian(cyl.frame(np.array([0.5, 0.5])), 0.2)
    assert det == pytest.approx(1.2, rel=1e-12)


def test_offset_jacobian_det_is_product_of_principal_curvature_factors():
    t = 0.23
    for patch in all_builtin_patches():
        u = np.array([np.mean(patch.domain[0]), np.mean(patch.domain[1])])
        _, det = sg.offset_jacobian(patch.frame(u), t)
        k1, k2 = patch.principal_curvatures(u)
        expected = (1.0 + t * k1) * (1.0 + t * k2)
        assert det == pytest.approx(expected, rel=1e-10), patch.name


def test_offset_jacobian_thickness_too_large():
    # on a cylinder the inward offset past the axis flips the orientation
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    with pytest.raises(ThicknessError):
        sg.offset_jacobian(cyl.frame(np.array([0.5, 0.5])), -1.5)


def test_offset_jacobian_names_the_smallest_determinant():
    # det = 1 + t on the unit cylinder: the batch fails worst at t = -1.8
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    u = np.array([[0.5, 0.5], [0.7, 0.2], [1.1, 0.4], [2.0, 0.9]])
    t = np.array([-1.2, 0.3, -1.8, -1.5])
    with pytest.raises(ThicknessError, match=r"u=\(1\.1, 0\.4\), t=-1\.8"):
        sg.offset_jacobian(cyl.frame(u), t)


def test_integrate_constant_one_on_plate():
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 8)
    assert sg.integrate_surface(quad, lambda fr: 1.0) == pytest.approx(1.0, rel=1e-13)


def test_integrate_cylinder_area():
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    quad = sg.surface_quadrature(cyl, 8)
    area = sg.integrate_surface(quad, lambda fr: 1.0)
    assert area == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_integrate_height_over_hemisphere():
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 2)
    quad = sg.surface_quadrature(cap, 8)
    val = sg.integrate_surface(quad, lambda fr: fr.x[..., 2])
    assert val == pytest.approx(np.pi, rel=1e-10)


def test_quadrature_error_decreases_with_order():
    # smooth non-polynomial integrand (scaled to the chart so low orders are
    # already in the resolved regime); reference from a much finer rule
    def make_integrand(patch):
        (a1, b1), (a2, b2) = patch.domain

        def integrand(fr):
            s1 = (fr.u[..., 0] - a1) / (b1 - a1)
            s2 = (fr.u[..., 1] - a2) / (b2 - a2)
            return 1.0 / (1.0 + 2.0 * np.sin(s1 + 0.3) ** 2 + s2 ** 2)

        return integrand

    for patch in all_builtin_patches():
        integrand = make_integrand(patch)
        ref = sg.integrate_surface(sg.surface_quadrature(patch, 30), integrand)
        errs = []
        for order in (2, 3, 4, 5, 6):
            val = sg.integrate_surface(sg.surface_quadrature(patch, order), integrand)
            errs.append(abs(val - ref))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.0001 + 1e-15, (patch.name, errs)
        assert errs[-1] < errs[0]


def test_integrate_rejects_non_finite_values():
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 4)
    with pytest.raises(EvaluationError):
        sg.integrate_surface(quad, lambda fr: np.inf)
    # the first node in C order (u1 major) with u1 > 0.5 is named
    x, _ = gauss_legendre(4, 0.0, 1.0)  # node coordinates on either axis
    first = (float(x[x > 0.5][0]), float(x[0]))
    with pytest.raises(EvaluationError, match=re.escape(f"u={first}")):
        sg.integrate_surface(quad, lambda fr: np.where(fr.u[..., 0] > 0.5, np.nan, 1.0))


def test_surface_quadrature_weights_positive():
    for patch in all_builtin_patches():
        quad = sg.surface_quadrature(patch, 5)
        assert np.all(quad.weights > 0.0)


def test_transversal_rule_reproduces_interval_length():
    rule = sg.TransversalRule.make(4)
    for g1, g2 in [(0.5, 0.5), (0.4, 0.6), (1.2, 0.1)]:
        t, w = rule.nodes_at(g1, g2)
        assert np.all(w > 0.0)
        assert np.all(t > -g1) and np.all(t < g2)
        assert w.sum() == pytest.approx(g1 + g2, rel=1e-14)


def test_builtin_patch_parameter_errors():
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("sphere_cap", radius=-1.0)
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("sphere_cap", cap_angle=2.0)  # > pi/2
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("cylinder", radius=1.0, height=0.0)
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("torus_patch", major_radius=0.4, minor_radius=0.5)
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("moebius")
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("plate", radius=1.0)
    with pytest.raises(ParameterError):
        sg.make_builtin_patch("plate", extent=((0.0, 0.0), (0.0, 1.0)))


def test_thickness_validation():
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 4)
    good = sg.ThicknessPair.constant(0.4, 0.6, plate.domain)
    sg.validate_thickness(good, quad)

    from shellgamma.fields import affine_scalar, constant_scalar
    sloped = sg.ThicknessPair(g1=affine_scalar(0.5, [0.2, 0.0], plate.domain),
                              g2=constant_scalar(0.5, plate.domain),
                              lipschitz_bound=0.05)
    with pytest.raises(ParameterError):
        sg.validate_thickness(sloped, quad)

    negative = sg.ThicknessPair(g1=affine_scalar(0.05, [-0.5, 0.0], plate.domain),
                                g2=constant_scalar(0.5, plate.domain),
                                lipschitz_bound=1.0)
    with pytest.raises(ParameterError):
        sg.validate_thickness(negative, quad)


def test_thickness_validation_names_the_first_bad_node():
    # g1 = 0.05 - 0.5 u1 is negative from the second node row (u1 major) on;
    # a bound below its slope fails already at the first node
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 4)
    x, _ = gauss_legendre(4, 0.0, 1.0)  # node coordinates on either axis
    from shellgamma.fields import affine_scalar, constant_scalar
    g1 = affine_scalar(0.05, [-0.5, 0.0], plate.domain)
    g2 = constant_scalar(0.5, plate.domain)
    negative = sg.ThicknessPair(g1=g1, g2=g2, lipschitz_bound=1.0)
    with pytest.raises(ParameterError, match=re.escape(
            f"g1 = {0.05 - 0.5 * x[1]} <= 0 at u={(float(x[1]), float(x[0]))}")):
        sg.validate_thickness(negative, quad)
    steep = sg.ThicknessPair(g1=g1, g2=g2, lipschitz_bound=0.3)
    with pytest.raises(ParameterError, match=re.escape(
            f"surface gradient of g1 = 5.000e-01 exceeds lipschitz_bound at "
            f"u={(float(x[0]), float(x[0]))}")):
        sg.validate_thickness(steep, quad)


def test_frame_grad3_consistency():
    # grad3 of the chart itself acts as the identity on tangent vectors
    for patch in all_builtin_patches():
        u = np.array([np.mean(patch.domain[0]) + 0.1, np.mean(patch.domain[1]) - 0.1])
        fr = patch.frame(u)
        G = fr.grad3(fr.jac)
        for tau in (fr.jac[:, 0], fr.jac[:, 1]):
            assert np.allclose(G @ tau, tau, atol=1e-10)
        assert np.allclose(G @ fr.n, 0.0, atol=1e-10)
