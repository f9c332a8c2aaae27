import dataclasses
import re

import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import (DomainError, EvaluationError, ParameterError,
                               ThicknessError)
from shellgamma.fields import stencil_grid, transpose
from shellgamma.geometry import gauss_legendre
from shellgamma.studies import fit_order

from oracles import det3


def all_builtin_patches():
    return [
        sg.make_builtin_patch("plate"),
        sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3),
        sg.make_builtin_patch("sphere", radius=1.5),
        sg.make_builtin_patch("cylinder", radius=2.0, height=1.0),
        sg.make_builtin_patch("torus_patch", major_radius=2.0, minor_radius=0.5),
    ]


def integrate(quad, f):
    """Gauss quadrature of a scalar field f(frame) over the patch."""
    return float(np.sum(quad.weights * f(quad.frame)))


def shape_operator_fd(patch, u, step):
    """Central finite-difference shape operator, as a 2x2 matrix in the (t1, t2) frame.

    `step` is the chart step.  An oracle for the analytic shape operators of
    the builtin patches.
    """
    u = np.asarray(u, dtype=float)
    for ax in (0, 1):
        lo, hi = patch.domain[ax]
        if u[ax] - step < lo or u[ax] + step > hi:
            raise DomainError(
                f"u={tuple(u)} closer than step={step} to chart boundary on axis {ax}")
    fr = patch.frame(u)
    cols = []
    for ax in (0, 1):
        e = np.zeros(2)
        e[ax] = step
        cols.append((np.asarray(patch.normal(u + e)) -
                     np.asarray(patch.normal(u - e))) / (2.0 * step))
    Dn = np.stack(cols, axis=-1)           # (3, 2) chart partials of the normal
    return fr.tan2(fr.grad3(Dn))


def test_patch_invariants_hold_on_all_builtins():
    for patch in all_builtin_patches():
        quad = sg.surface_quadrature(patch, 6)
        worst = sg.validate_patch(quad)
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
        sg.validate_patch(sg.surface_quadrature(bent, 4))


def test_plate_shape_operator_is_zero():
    plate = sg.make_builtin_patch("plate")
    u = np.array([0.3, 0.7])
    assert np.allclose(plate.shape_operator(u), 0.0)
    assert np.allclose(shape_operator_fd(plate, u, 1e-4), 0.0)


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
    S_fd = shape_operator_fd(cyl, fr.u, 1e-4)
    assert np.allclose(S_fd, np.diag([0.5, 0.0]), atol=1e-7)


def test_sphere_fd_shape_operator_matches_within_step_squared():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    u = np.array([1.0, 2.0])
    for step in (1e-2, 1e-3):
        S_fd = shape_operator_fd(sph, u, step)
        assert np.linalg.norm(S_fd - np.eye(2)) < 2.0 * step ** 2


def test_fd_shape_operator_second_order_convergence():
    # halving steps on curved patches: error slope >= 1.9 (plate is exact)
    for patch in all_builtin_patches():
        if patch.name == "plate":
            continue
        u = np.array([np.mean(patch.domain[0]), np.mean(patch.domain[1])])
        fr = patch.frame(u)
        exact = fr.tan2(fr.shape_op)
        steps = [1e-2 / 2 ** k for k in range(6)]
        errs = [np.linalg.norm(shape_operator_fd(patch, u, s) - exact)
                for s in steps]
        slope, r2 = fit_order(list(zip(steps, errs)))
        assert slope >= 1.9, (patch.name, slope)


def test_fd_shape_operator_rejects_boundary_points():
    plate = sg.make_builtin_patch("plate")
    with pytest.raises(DomainError):
        shape_operator_fd(plate, np.array([1e-9, 0.5]), 1e-4)


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


def test_offset_determinant_matches_the_cofactor_determinant_on_every_patch_kind():
    # 1 + t (tr Pi + t sigma2(Pi)) against det3(Id + t Pi) built here, for the
    # five patch kinds; offset_jacobian returns the same determinant
    rng = np.random.default_rng(32)
    for patch in all_builtin_patches():
        fr = sg.surface_quadrature(patch, 6).frame
        k = np.max(np.abs(np.linalg.eigvalsh(fr.shape_op)))
        t = rng.uniform(-0.9, 0.9, size=(4,) + fr.u.shape[:-1]) / max(k, 1.0)
        det = sg.offset_determinant(fr, t)
        ref = det3(np.eye(3) + t[..., None, None] * fr.shape_op)
        assert det.shape == t.shape
        assert np.max(np.abs(det - ref)) <= 1e-14, patch.name
        M, det_j = sg.offset_jacobian(fr, t)
        assert np.array_equal(det_j, det) and np.array_equal(det3(M), ref), patch.name
    assert {patch.name for patch in all_builtin_patches()} == set(sg.geometry.PATCH_KINDS)


def test_offset_determinant_names_the_worst_point():
    # the same ThicknessError as offset_jacobian: the smallest factor 1 + t k
    # on the unit cylinder is at t = -1.8, and a NaN factor counts as smallest
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    u = np.array([[0.5, 0.5], [0.7, 0.2], [1.1, 0.4], [2.0, 0.9]])
    with pytest.raises(ThicknessError, match=r"= -8\.000e-01 is not positive at "
                                             r"u=\(1\.1, 0\.4\), t=-1\.8$"):
        sg.offset_determinant(cyl.frame(u), np.array([-1.2, 0.3, -1.8, -1.5]))
    with pytest.raises(ThicknessError, match=r"= nan is not positive at u=\(0\.7, 0\.2\)"):
        sg.offset_determinant(cyl.frame(u), np.array([0.1, np.nan, 0.2, 0.3]))


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


def test_offset_jacobian_rejects_a_nan_factor():
    # nan <= 0 is False: the guard must ask that both factors be > 0
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    u = np.array([[0.5, 0.5], [0.7, 0.2], [1.1, 0.4]])
    with pytest.raises(ThicknessError, match=r"= nan is not positive at u=\(0\.7, 0\.2\), t=nan"):
        sg.offset_jacobian(cyl.frame(u), np.array([0.1, np.nan, 0.2]))


def random_svd_up_to_cond(rng, count, max_cond):
    """Factors U, s, V of (count, 3, 3) matrices U diag(s) V^T of condition up to max_cond.

    s = k (1, c^-a, 1/c) with c log-uniform up to max_cond, a uniform in
    [0, 1] and the scale k log-uniform in [1e-3, 1e3]; U and V are random
    orthogonal.
    """
    cond = 10.0 ** rng.uniform(0.0, np.log10(max_cond), count)
    s = np.stack([np.ones(count), cond ** -rng.uniform(0.0, 1.0, count), 1.0 / cond], axis=-1)
    s = s * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    U = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
    return U, s, V


def test_det3_matches_lu_determinant():
    rng = np.random.default_rng(41)
    U, s, V = random_svd_up_to_cond(rng, 2000, 1e6)
    M = (U * s[:, None, :]) @ np.swapaxes(V, -1, -2)
    ref = np.linalg.det(M)
    got = det3(M)
    cond = s[:, 0] / s[:, 2]
    # the cofactor expansion errs by about eps |M|^3 = eps cond (s1/s2) |det|:
    # 1e-13 cond relative when one singular value is small, more when two are
    bound = 1e-13 * cond * (s[:, 0] / s[:, 1]) * np.abs(ref)
    assert np.all(np.abs(got - ref) <= bound)
    well = s[:, 1] > 0.1 * s[:, 0]
    assert np.all(np.abs(got - ref)[well] <= 1e-13 * cond[well] * np.abs(ref)[well])
    assert det3(np.eye(3)) == 1.0
    assert det3(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("kind", ["plate", "sphere_cap", "cylinder", "torus_patch"])
def test_completed_metric_rows_are_the_frame_there(kind):
    # the recovery bundle takes the frame products of rows of its grid's
    # ChartMetric: the same fields as a frame call at those points, bit for
    # bit and in the same memory order, and so does `complete`
    patch = sg.make_builtin_patch(kind)
    quad = sg.surface_quadrature(patch, 5)
    grid, _ = stencil_grid(quad.frame.u, patch.domain)
    rows = patch.metric(grid)[np.arange(1, 9)]  # the stencil points, as recovery_data copies them
    completed = patch.complete(rows)
    products = patch.frame_products(rows)
    framed = patch.frame(grid[1:9])
    assert type(completed) is sg.NodeFrame
    assert set(products) == set(vars(framed)) - set(vars(rows)) - {"x", "sqrt_det_metric"}
    for name, value in vars(framed).items():
        for got in (getattr(completed, name), products.get(name, value)):
            assert np.array_equal(got, value), name
            assert got.strides == value.strides, name

def test_integrate_constant_one_on_plate():
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 8)
    assert integrate(quad, lambda fr: 1.0) == pytest.approx(1.0, rel=1e-13)


def test_integrate_cylinder_area():
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    quad = sg.surface_quadrature(cyl, 8)
    area = integrate(quad, lambda fr: 1.0)
    assert area == pytest.approx(2.0 * np.pi, rel=1e-12)


def test_integrate_height_over_hemisphere():
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 2)
    quad = sg.surface_quadrature(cap, 8)
    val = integrate(quad, lambda fr: fr.x[..., 2])
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
        ref = integrate(sg.surface_quadrature(patch, 30), integrand)
        errs = []
        for order in (2, 3, 4, 5, 6):
            val = integrate(sg.surface_quadrature(patch, order), integrand)
            errs.append(abs(val - ref))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.0001 + 1e-15, (patch.name, errs)
        assert errs[-1] < errs[0]


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
    good = sg.ThicknessPair.constant(0.4, 0.6)
    sg.validate_thickness(good, quad)

    from shellgamma.fields import affine_scalar, constant_scalar
    sloped = sg.ThicknessPair(g1=affine_scalar(0.5, [0.2, 0.0]),
                              g2=constant_scalar(0.5),
                              lipschitz_bound=0.05)
    with pytest.raises(ParameterError):
        sg.validate_thickness(sloped, quad)

    negative = sg.ThicknessPair(g1=affine_scalar(0.05, [-0.5, 0.0]),
                                g2=constant_scalar(0.5),
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
    g1 = affine_scalar(0.05, [-0.5, 0.0])
    g2 = constant_scalar(0.5)
    negative = sg.ThicknessPair(g1=g1, g2=g2, lipschitz_bound=1.0)
    with pytest.raises(ParameterError, match=re.escape(
            f"g1 = {0.05 - 0.5 * x[1]} <= 0 at u={(float(x[1]), float(x[0]))}")):
        sg.validate_thickness(negative, quad)
    steep = sg.ThicknessPair(g1=g1, g2=g2, lipschitz_bound=0.3)
    with pytest.raises(ParameterError, match=re.escape(
            f"surface gradient of g1 = 5.000e-01 exceeds lipschitz_bound at "
            f"u={(float(x[0]), float(x[0]))}")):
        sg.validate_thickness(steep, quad)


def assert_frame_products(fr):
    """The frame's products equal the formulas that define them, bit for bit, and
    T is the Gram-Schmidt of J: orthonormal columns with J = T R, R = T^T J upper
    triangular with a positive diagonal."""
    T, Tt = fr.tangents, np.swapaxes(fr.tangents, -1, -2)
    R = Tt @ fr.jac
    scale = 1.0 + np.max(np.abs(fr.jac))
    assert np.max(np.abs(Tt @ T - np.eye(2))) <= 1e-12
    assert np.max(np.abs(T @ R - fr.jac)) <= 1e-12 * scale
    assert np.max(np.abs(R[..., 1, 0])) <= 1e-12 * scale
    assert np.all(R[..., 0, 0] > 0.0) and np.all(R[..., 1, 1] > 0.0)
    assert np.array_equal(fr.dual, fr.metric_inv @ np.swapaxes(fr.jac, -1, -2))
    assert np.array_equal(fr.dn, fr.shape_op @ fr.jac)
    assert np.max(np.abs(fr.dual @ fr.jac - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("kind", sorted(sg.geometry.PATCH_KINDS))
def test_frame_carries_its_products(kind):
    # T, the dual basis g^-1 J^T and Pi J are fields of the frame, on
    # a frame call and on an array-indexed subset of it; grad3 and tan2 read
    # them and give P g^-1 J^T and T^T M T, written out, bit for bit
    patch = sg.make_builtin_patch(kind)
    fr = sg.surface_quadrature(patch, 6).frame
    assert_frame_products(fr)
    sub = fr[np.array([5, 0, 17, 17, 33])]
    assert_frame_products(sub)
    assert np.array_equal(sub.dn, fr.dn[[5, 0, 17, 17, 33]])
    rng = np.random.default_rng(3)
    P = rng.normal(size=fr.jac.shape)
    M = rng.normal(size=fr.shape_op.shape)
    T = fr.tangents
    assert np.array_equal(fr.grad3(P), P @ (fr.metric_inv @ transpose(fr.jac)))
    assert np.array_equal(fr.tan2(M), transpose(T) @ M @ T)


def test_frame_grad3_consistency():
    # grad3 of the chart itself acts as the identity on tangent vectors
    for patch in all_builtin_patches():
        u = np.array([np.mean(patch.domain[0]) + 0.1, np.mean(patch.domain[1]) - 0.1])
        fr = patch.frame(u)
        G = fr.grad3(fr.jac)
        for tau in (fr.jac[:, 0], fr.jac[:, 1]):
            assert np.allclose(G @ tau, tau, atol=1e-10)
        assert np.allclose(G @ fr.n, 0.0, atol=1e-10)
