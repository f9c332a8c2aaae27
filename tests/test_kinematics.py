import dataclasses

import numpy as np
import pytest

import shellgamma as sg
from shellgamma import fields, geometry, kinematics
from shellgamma.errors import NotAnIsometryError
from shellgamma.fields import VectorField, transpose
from shellgamma.geometry import gauss_legendre
from shellgamma.kinematics import DEFAULT_ISOMETRY_TOL, gamma_n_partials, tangential_strain
from shellgamma.studies import fit_order, load_config, run_study

from oracles import An_partials

GENERIC_W = [(0.4, 1.3, 0.2, 0.9, 0.5),
             (0.3, 0.7, 1.1, 1.4, 0.3),
             (0.5, 1.1, 0.4, 0.8, 1.2)]


def bending_tensor(patch, iso, fr):
    """Symmetrized tangential minor of grad(A n) - A Pi at a frame of the patch."""
    Mt = fr.tan2(sg.bending_matrix(fr, iso.A_at(fr, *iso.An(fr)), An_partials(patch, iso, fr.u)))
    return 0.5 * (Mt + transpose(Mt))


def strain_of(w, fr):
    """B_tan = sym grad w at a frame, in its tangent frame T."""
    return tangential_strain(fr, w.d1(fr))


def stretching_tensor(iso, fr, w, thick, kappa):
    """The stretching tensor at a frame, with B_tan, A and A grad((g2-g1) n) formed there."""
    A = iso.A_at(fr, *iso.An(fr))
    return sg.stretching_tensor(fr, A, A @ fr.grad3(gamma_n_partials(fr, fr.dn, thick)),
                                strain_of(w, fr), kappa)


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
        iso = sg.build_isometry(sg.rigid_field(patch, omega, (0.1, 0.2, -0.3)),
                                quad=quad)
        fr = quad.frame[::5]
        assert np.allclose(iso.A_at(fr, *iso.An(fr)), W, atol=1e-12)


def test_isometry_invariants_at_nodes():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(1.0, 1, 1)
    quad = sg.surface_quadrature(plate, 6)
    iso = sg.build_isometry(V, quad=quad)
    fr = quad.frame[::7]
    A = iso.A_at(fr, *iso.An(fr))
    assert np.max(np.linalg.norm(A + transpose(A), axis=(-2, -1))) <= 1e-12
    assert np.max(np.linalg.norm(A @ fr.jac - V.d1(fr), axis=-2)) <= DEFAULT_ISOMETRY_TOL


def test_plate_normal_column_of_A():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(0.8, 1, 2)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(V, quad=quad)
    fr = plate.frame(np.array([0.37, 0.61]))
    dv = V.d1(fr)[2]  # gradient of the out-of-plane component
    assert np.allclose(iso.A_at(fr, *iso.An(fr)) @ fr.n, [-dv[0], -dv[1], 0.0], atol=1e-12)


def test_An_matches_the_normal_rotation_formula():
    # independent route to A n from V and the frame alone: Pi V_tan - grad(V . n);
    # IsometryField.An agrees with it and with A n of the assembled A
    plate = sg.make_builtin_patch("plate")
    cases = [(plate, sg.plate_sine_field(1.0, 1, 1))]
    cases += [(patch, sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3)))
              for patch in curved_patches()]
    for patch, V in cases:
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(V, quad=quad)
        singles = []
        for i in range(len(quad.weights)):
            fr = quad.frame[i]
            v = V.value(fr.u)
            d_vn = V.d1(fr).T @ fr.n + (fr.shape_op @ fr.jac).T @ v
            expected = fr.shape_op @ (v - float(v @ fr.n) * fr.n) - fr.grad3(d_vn)
            An, DV = iso.An(fr)
            assert np.linalg.norm(iso.A_at(fr, An, DV) @ fr.n - expected) <= 1e-13
            assert np.linalg.norm(An - expected) <= 1e-13
            assert np.linalg.norm(An - iso.A_at(fr, An, DV) @ fr.n) <= 1e-13
            singles.append(An)
        batched = iso.An(quad.frame)[0]
        assert batched.shape == (len(quad.weights), 3)
        assert np.max(np.abs(batched - np.stack(singles))) <= 1e-14 * np.max(np.abs(batched))


def test_in_plane_stretch_is_rejected_with_worst_node():
    # V = (u1^2, 0, 0): the strain 2 u1 peaks on the last node row (u1 major),
    # where every node ties; the first of them in C order is named
    plate = sg.make_builtin_patch("plate")

    def d1(m):
        out = np.zeros(m.u.shape[:-1] + (3, 2))
        out[..., 0, 0] = 2.0 * m.u[..., 0]
        return out

    stretch = VectorField(
        value=lambda u: np.stack([u[..., 0] ** 2, 0.0 * u[..., 0], 0.0 * u[..., 0]], axis=-1),
        d1=d1)
    with pytest.raises(NotAnIsometryError) as err:
        sg.build_isometry(stretch, quad=sg.surface_quadrature(plate, 4))
    x, _ = gauss_legendre(4, 0.0, 1.0)
    worst = (float(x[-1]), float(x[0]))
    assert tuple(err.value.u.tolist()) == worst
    assert err.value.residual == pytest.approx(2.0 * x[-1], rel=1e-14)
    assert f"at u={worst}" in str(err.value)


def test_non_finite_displacement_is_rejected():
    from shellgamma.errors import EvaluationError
    plate = sg.make_builtin_patch("plate")
    broken = VectorField(value=lambda u: np.array([0.0, 0.0, np.nan]),
                         d1=lambda m: np.full(np.shape(m.u)[:-1] + (3, 2), np.nan))
    with pytest.raises(EvaluationError):
        sg.build_isometry(broken, quad=sg.surface_quadrature(plate, 3))


def test_bending_tensor_vanishes_for_rigid_motions():
    for patch in curved_patches():
        quad = sg.surface_quadrature(patch, 4)
        iso = sg.build_isometry(sg.rigid_field(patch, (0.3, -0.2, 0.4)),
                                quad=quad)
        worst = np.max(np.linalg.norm(bending_tensor(patch, iso, quad.frame), axis=(-2, -1)))
        assert worst <= 1e-8, patch.name


def test_bending_tensor_on_plate_is_minus_hessian():
    plate = sg.make_builtin_patch("plate")
    V = sg.plate_sine_field(0.9, 1, 1)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(V, quad=quad)
    fr = quad.frame[::6]
    # 2x2 hessian of the vertical component 0.9 sin(pi u1) sin(pi u2)
    s1, s2 = np.sin(np.pi * fr.u[:, 0]), np.sin(np.pi * fr.u[:, 1])
    c1, c2 = np.cos(np.pi * fr.u[:, 0]), np.cos(np.pi * fr.u[:, 1])
    hess = 0.9 * np.pi ** 2 * np.stack([np.stack([-s1 * s2, c1 * c2], axis=-1),
                                        np.stack([c1 * c2, -s1 * s2], axis=-1)], axis=-2)
    assert np.allclose(bending_tensor(plate, iso, fr), -hess, atol=1e-9)


def test_stretching_tensor_reduces_to_strain_bitwise():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1),
                            quad=quad)
    w = sg.trig_vector_field(GENERIC_W)
    fr = quad.frame[::6]
    tensor = stretching_tensor(iso, fr, w, thick, kappa=0.0)
    assert np.array_equal(tensor, strain_of(w, fr))


def test_stretching_tensor_takes_one_tangential_minor():
    # tan2 and sym commute and A^2 is symmetric: the one minor of
    # (kappa/2) A^2 + (1/2) A G equals the formula with a minor per term
    rng = np.random.default_rng(23)
    for patch in [sg.make_builtin_patch("plate")] + curved_patches():
        fr = sg.surface_quadrature(patch, 4).frame
        P = rng.normal(size=fr.u.shape[:-1] + (3, 3))
        A = 0.5 * (P - transpose(P))
        AG = rng.normal(size=A.shape)
        b = rng.normal(size=fr.u.shape[:-1] + (2, 2))
        b = 0.5 * (b + transpose(b))
        for kappa in (0.0, 0.7, 3.0):
            T = fr.tan2(AG)
            three = b - 0.5 * kappa * fr.tan2(A @ A) - 0.25 * (T + transpose(T))
            three = 0.5 * (three + transpose(three))
            one = sg.stretching_tensor(fr, A, AG, b, kappa)
            assert np.max(np.abs(one - three)) <= 1e-14 * np.max(np.abs(three))


def test_stretching_tensor_plate_vortex_term():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 4)
    V = sg.plate_sine_field(1.0, 1, 1)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.trig_vector_field(GENERIC_W)
    fr = quad.frame[::6]
    tensor = stretching_tensor(iso, fr, w, thick, kappa=1.0)
    grad_v = V.d1(fr)[..., 2, :]
    expected = strain_of(w, fr) + 0.5 * grad_v[..., :, None] * grad_v[..., None, :]
    assert np.allclose(tensor, expected, atol=1e-12)


def test_stretching_tensor_zero_for_zero_fields():
    plate = sg.make_builtin_patch("plate")
    from shellgamma.fields import constant_scalar, sine_scalar
    thick = sg.ThicknessPair(g1=constant_scalar(0.4),
                             g2=sine_scalar(0.6, 0.1, (1.0, 1.0), (0.2, 0.4)),
                             lipschitz_bound=1.0)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(sg.zero_vector_field(), quad=quad)
    w = sg.zero_vector_field()
    fr = quad.frame[::6]
    tensor = stretching_tensor(iso, fr, w, thick, kappa=1.0)
    assert np.allclose(tensor, 0.0, atol=1e-14)


def test_stretching_expansion_trivial_and_bounded():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 4)
    zero = sg.zero_vector_field()
    iso0 = sg.build_isometry(zero, quad=quad)
    data0 = sg.expansion_data(plate, iso0, zero, thick, quad)
    assert sg.stretching_expansion_residual(data0, 0.1) <= 1e-15

    # w = 0: the identity is exactly quadratic in h, residual at rounding level
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1),
                            quad=quad)
    data = sg.expansion_data(plate, iso, zero, thick, quad)
    for h in (1e-1, 1e-2, 1e-3):
        res = sg.stretching_expansion_residual(data, h)
        assert res <= max(1e-6 * h ** 3, 1e-13)


def test_stretching_expansion_third_order_with_w():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1),
                            quad=quad)
    w = sg.trig_vector_field(GENERIC_W)
    hs = [2.0 ** -k for k in range(3, 8)]
    data = sg.expansion_data(plate, iso, w, thick, quad)
    pairs = [(h, sg.stretching_expansion_residual(data, h)) for h in hs]
    slope, r2 = fit_order(pairs)
    assert slope >= 2.9 and r2 >= 0.99
    # residual / h^3 stays bounded
    ratios = [r / h ** 3 for h, r in pairs]
    assert max(ratios) <= 2.0 * ratios[0] + 1e-12


def test_rigid_isometries_give_exact_stretching_identity():
    sphere = curved_patches()[0]
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(sphere, 4)
    iso = sg.build_isometry(sg.rigid_field(sphere, (0.2, 0.1, -0.3)),
                            quad=quad)
    data = sg.expansion_data(sphere, iso, sg.zero_vector_field(), thick,
                             quad)
    pairs = [(h, sg.stretching_expansion_residual(data, h))
             for h in [2.0 ** -k for k in range(3, 8)]]
    slope, r2 = fit_order(pairs)  # all residuals at rounding level -> exact
    assert slope == np.inf


def test_bending_expansion_trivial_case():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 3)
    zero = sg.zero_vector_field()
    iso = sg.build_isometry(zero, quad=quad)
    data = sg.expansion_data(plate, iso, zero, thick, quad)
    assert sg.bending_expansion_residual(data, 0.1) <= 1e-9


def test_bending_expansion_second_order_on_plate():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(plate, 4)
    iso = sg.build_isometry(sg.plate_sine_field(1.0, 1, 1),
                            quad=quad)
    hs = [2.0 ** -k for k in range(3, 8)]
    data = sg.expansion_data(plate, iso, sg.zero_vector_field(), thick, quad)
    pairs = [(h, sg.bending_expansion_residual(data, h)) for h in hs]
    slope, r2 = fit_order(pairs)
    assert slope >= 1.9 and r2 >= 0.99


def test_bending_expansion_rigid_cylinder_left_side_small():
    # rigid motions preserve the shape operator up to conjugation: the pulled
    # back difference is O(h^2) discretization of the linearized rotation
    cyl = sg.make_builtin_patch("cylinder", radius=1.0, height=1.0)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    quad = sg.surface_quadrature(cyl, 4)
    iso = sg.build_isometry(sg.rigid_field(cyl, (0.3, -0.2, 0.4)), quad=quad)
    data = sg.expansion_data(cyl, iso, sg.zero_vector_field(), thick, quad)
    for h in (2.0 ** -3, 2.0 ** -5):
        assert sg.bending_expansion_residual(data, h) <= 0.5 * h ** 2


def test_strain_field_matches_generator_gradient():
    plate = sg.make_builtin_patch("plate")
    w = sg.trig_vector_field(GENERIC_W)
    quad = sg.surface_quadrature(plate, 4)
    fr = quad.frame[::5]
    B = strain_of(w, fr)
    assert np.allclose(B, transpose(B), atol=1e-14)
    Dw = w.d1(fr)[..., :2, :]  # plate frame: tangential gradient is the 2x2 block
    assert np.allclose(B, 0.5 * (Dw + transpose(Dw)), atol=1e-12)


def isometry_cases():
    plate = sg.make_builtin_patch("plate")
    cases = [(plate, sg.plate_sine_field(1.0, 1, 1))]
    cases += [(patch, sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3)))
              for patch in curved_patches()]
    return cases


@pytest.mark.parametrize("case", range(4), ids=["plate", "sphere_cap", "cylinder",
                                                "torus_patch"])
def test_batched_isometry_fields_equal_stacked_points(case):
    patch, V = isometry_cases()[case]
    quad = sg.surface_quadrature(patch, 4)
    iso = sg.build_isometry(V, quad=quad)
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01]),
                             lipschitz_bound=1.0)
    w = sg.trig_vector_field(GENERIC_W)
    u = quad.frame.u
    frames = [quad.frame[i] for i in range(len(u))]
    checks = [
        (iso.A_at(quad.frame, *iso.An(quad.frame)), [iso.A_at(fr, *iso.An(fr)) for fr in frames]),
        (An_partials(patch, iso, u), [An_partials(patch, iso, p) for p in u]),
        (bending_tensor(patch, iso, quad.frame),
         [bending_tensor(patch, iso, fr) for fr in frames]),
        (stretching_tensor(iso, quad.frame, w, thick, 1.0),
         [stretching_tensor(iso, fr, w, thick, 1.0) for fr in frames]),
    ]
    for batched, singles in checks:
        stacked = np.stack(singles)
        assert batched.shape == stacked.shape
        assert np.max(np.abs(batched - stacked)) <= 1e-14 * np.max(np.abs(stacked))


def counting_d1(field, calls):
    """The vector field with each read of its chart partials recorded in calls."""
    def d1(m):
        calls.append(np.shape(m.u))
        return field.d1(m)
    return dataclasses.replace(field, d1=d1)


def variable_thickness_cap_scene():
    """A sphere cap with an affine g2, a rigid V and a generic w."""
    cap = curved_patches()[0]
    thick = sg.ThicknessPair(g1=sg.constant_scalar(0.4),
                             g2=sg.affine_scalar(0.55, [0.04, 0.01]),
                             lipschitz_bound=1.0)
    return cap, thick, sg.trig_vector_field(GENERIC_W)


def test_isometry_check_and_residuals_make_few_frame_calls(monkeypatch):
    # build_isometry reads the quadrature's batched frame; expansion_data makes
    # no frame call but one ChartMetric call, at the stencil points of the
    # nodes, whatever the node count, and a residual at one h makes neither.
    # expansion_data reads the chart partials of V once at the nodes and once
    # at the stencil points, and forms those of (g2 - g1) n once at each
    cap, thick, w = variable_thickness_cap_scene()
    quads = {order: sg.surface_quadrature(cap, order) for order in (4, 10)}
    calls, metric_calls, V_reads, gamma_calls = [], [], [], []
    frame, metric = sg.SurfacePatch.frame, sg.SurfacePatch.metric
    gamma_n_partials = kinematics.gamma_n_partials

    def counting_frame(self, u):
        calls.append(np.shape(u))
        return frame(self, u)

    def counting_metric(self, u):
        metric_calls.append(np.shape(u))
        return metric(self, u)

    def counting_gamma_n_partials(m, dn, thick):
        gamma_calls.append(m.u.shape)
        return gamma_n_partials(m, dn, thick)

    monkeypatch.setattr(sg.SurfacePatch, "frame", counting_frame)
    monkeypatch.setattr(sg.SurfacePatch, "metric", counting_metric)
    monkeypatch.setattr(kinematics, "gamma_n_partials", counting_gamma_n_partials)
    V = counting_d1(sg.rigid_field(cap, (0.3, -0.2, 0.4)), V_reads)
    iso = sg.build_isometry(V, quad=quads[10])
    assert calls == []
    residuals = [sg.stretching_expansion_residual, sg.bending_expansion_residual]
    counts = []
    for order in (4, 10):
        calls.clear()
        metric_calls.clear()
        V_reads.clear()
        gamma_calls.clear()
        data = sg.expansion_data(cap, iso, w, thick, quads[order])
        counts.append((len(calls), len(metric_calls)))
        nodes = order ** 2
        assert sorted(V_reads, key=len) == [(nodes, 2), (2, 4, nodes, 2)]
        assert sorted(gamma_calls, key=len) == [(nodes, 2), (2, 4, nodes, 2)]
        calls.clear()
        metric_calls.clear()
        V_reads.clear()
        for residual in residuals:
            residual(data, 0.1)
        assert calls == [] and metric_calls == [] and V_reads == []
    assert counts == [(0, 1), (0, 1)], counts

    # the sphere-expansion study: the isometry check, then expansion_data, at
    # 36 nodes and their 288 stencil points
    V_reads.clear()
    rigid_field = fields.rigid_field
    monkeypatch.setattr(fields, "rigid_field",
                        lambda *args: counting_d1(rigid_field(*args), V_reads))
    assert run_study(load_config("sphere-expansion")).passed
    assert len(V_reads) <= 3
    assert sum(int(np.prod(shape[:-1])) for shape in V_reads) <= 360

    # the chart jacobian, once per point array a study builds a record at: the
    # nodes, then the stencil grid (gamma) or the stencil points (expansion);
    # the rigid V reads it off those records, never from the patch
    jac_calls = []
    sphere_chart = geometry._sphere_chart

    def counting_sphere_chart(*args):
        patch = sphere_chart(*args)
        jac = patch.chart_jacobian

        def counted(u):
            jac_calls.append(np.shape(u))
            return jac(u)
        return dataclasses.replace(patch, chart_jacobian=counted)

    monkeypatch.setattr(geometry, "_sphere_chart", counting_sphere_chart)
    for name in ("sphere-gamma", "sphere-expansion"):
        jac_calls.clear()
        assert run_study(load_config(name)).passed
        assert len(jac_calls) == 2, (name, jac_calls)

    # rigid d1 reads the record's jacobian: the bits of W J, formed there or afresh
    omega = (0.3, -0.2, 0.4)
    V = rigid_field(cap, omega)
    u = quads[10].frame.u
    for m in (cap.metric(u), cap.frame(u), cap.metric(fields.stencil_grid(u, cap.domain)[0])):
        W_jac = sg.skew_matrix(omega) @ m.jac
        assert np.array_equal(V.d1(m), W_jac)
        assert np.array_equal(W_jac, sg.skew_matrix(omega) @ cap.chart_jacobian(m.u))


def test_expansion_data_reads_the_limit_record_of_recovery_data():
    # one route: at kappa = 1 the expansion identities read the very arrays
    # that the limit functional and the recovery deformation read
    cap, thick, w = variable_thickness_cap_scene()
    quad = sg.surface_quadrature(cap, 4)
    iso = sg.build_isometry(sg.rigid_field(cap, (0.3, -0.2, 0.4)), quad=quad)
    nodes = sg.expansion_data(cap, iso, w, thick, quad).nodes
    limit = sg.recovery_data(cap, sg.make_isotropic(1.0, 1.0), iso, w, thick, 1.0,
                             quad.frame).limit
    assert nodes.frame is limit.frame is quad.frame
    assert np.max(np.abs(nodes.AG)) > 1e-3  # the thickness term is present
    for field in dataclasses.fields(sg.LimitFields):
        if field.name != "frame":
            assert np.array_equal(getattr(nodes, field.name), getattr(limit, field.name)), \
                field.name


@pytest.mark.parametrize("kind", sorted(sg.geometry.PATCH_KINDS))
def test_An_sums_n_dot_DV_in_the_order_of_the_axis_sum(kind):
    # A n forms DV^T n term by term; on every point array a study hands it
    # (the nodes, their stencil points, the 33-point grid and its rows) and
    # for every field family it is the axis sum's formula, bit for bit,
    # signed zeros included
    patch = sg.make_builtin_patch(kind)
    u = sg.surface_quadrature(patch, 5).frame.u
    grid, _ = fields.stencil_grid(u, patch.domain)
    points = [patch.frame(u), patch.metric(grid), patch.metric(grid)[fields.GRID_ROWS],
              patch.metric(fields.stencil_points(u, fields.stencil_steps(u, patch.domain)))]
    families = [fields.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.0, 0.2)),
                fields.plate_sine_field(0.7, 1, 2),
                fields.trig_vector_field([[0.4, 1.3, 0.2, 0.9, 0.5], [0.3, 0.7, 1.1, 1.4, 0.3],
                                          [0.5, 1.1, 0.4, 0.8, 1.2]]),
                fields.zero_vector_field()]
    for V in families:
        iso = sg.IsometryField(displacement=V)
        for m in points:
            An, DV = iso.An(m)
            axis_sum = (m.n[..., :, None] * DV).sum(axis=-2)
            expected = -fields.matvec(m.jac, fields.matvec(m.metric_inv, axis_sum))
            assert np.array_equal(An, expected)
            assert np.array_equal(np.signbit(An), np.signbit(expected))
