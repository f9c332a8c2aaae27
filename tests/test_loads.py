import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import ParameterError, UnsupportedCaseError
from shellgamma.geometry import gauss_legendre

from test_recovery3d import moment_scene


def at_nodes(squad, vector):
    """A constant load's values at the nodes of squad."""
    return np.broadcast_to(np.asarray(vector, dtype=float), squad.frame.x.shape)


def extend_load(patch, f_surface, u, t):
    """Thickness extension f^h(x + t n) = det(Id + t Pi)^{-1} f^h(x); t physical."""
    fr = patch.frame(u)
    _, det = sg.offset_jacobian(fr, t)
    return np.asarray(f_surface(fr), dtype=float) / det[..., None]


def test_extend_load_plate_unchanged():
    plate = sg.make_builtin_patch("plate")
    f = lambda fr: np.array([0.1, -0.2, 0.3])
    u = np.array([0.4, 0.4])
    for t in (-0.3, 0.0, 0.25):
        assert np.allclose(extend_load(plate, f, u, t), [0.1, -0.2, 0.3])


def test_extend_load_sphere_determinant_weight():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    f = lambda fr: np.array([1.0, 2.0, 3.0])
    val = extend_load(sph, f, np.array([1.0, 2.0]), 0.1)
    assert np.allclose(val, np.array([1.0, 2.0, 3.0]) / 1.21)


def test_extension_weight_cancels_in_transversal_integral():
    # int f^h(x + t n) det(Id + t Pi) dt over (-h g1, h g2) = h (g1+g2) f(x)
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    u = np.array([1.2, 0.7])
    f = lambda fr: np.array([0.2, -0.5, 0.4])
    h, g1, g2 = 0.125, 0.4, 0.6
    t_nodes, t_w = gauss_legendre(6, -h * g1, h * g2)
    acc = np.zeros(3)
    for t, wt in zip(t_nodes, t_w):
        _, det = sg.offset_jacobian(sph.frame(u), t)
        acc += wt * extend_load(sph, f, u, t) * det
    assert np.allclose(acc, h * (g1 + g2) * np.array([0.2, -0.5, 0.4]), rtol=1e-13)


def test_wahba_identity_and_orthogonal_invariance():
    Q, m, classification = sg.wahba_maximize(np.eye(3))
    assert np.allclose(Q, np.eye(3)) and m == pytest.approx(3.0)
    assert classification == "unique"

    rng = np.random.default_rng(21)
    R0 = sg.rotation_matrices(sg.random_rotations(rng, 1))[0]
    Q, m, _ = sg.wahba_maximize(R0.T)
    assert np.allclose(Q, R0, atol=1e-12)
    assert m == pytest.approx(3.0, rel=1e-12)


def test_wahba_beats_random_sampling():
    rng = np.random.default_rng(22)
    for _ in range(5):
        N = rng.normal(size=(3, 3))
        Q, m, _ = sg.wahba_maximize(N)
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
        samples = sg.rotation_actions(sg.action_form(N), sg.random_rotations(rng, 20000))
        assert samples.max() <= m + 1e-9 * max(1.0, abs(m))
        assert np.trace(Q @ N) == pytest.approx(m, rel=1e-12)


def test_rotation_actions_match_matrix_route_per_sample():
    # a flipped sign of K's off-diagonal vector gives the conjugate rotation:
    # the same largest eigenvalue, but per-sample values off by O(1)
    rng = np.random.default_rng(25)
    q = sg.random_rotations(rng, 2000)
    R = sg.rotation_matrices(q)
    assert R.shape == (2000, 3, 3)
    assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14
    specials = [np.eye(3), np.diag([2.0, 0.0, 0.0]), np.diag([1.0, 1.0, -1.0]),
                np.zeros((3, 3))]
    for N in [rng.normal(size=(3, 3)) for _ in range(50)] + specials:
        via_matrices = np.einsum("kij,ji->k", R, N)
        assert np.max(np.abs(sg.rotation_actions(sg.action_form(N), q) - via_matrices)) <= 1e-14


def test_stacked_matrices_match_per_matrix_calls():
    rng = np.random.default_rng(28)
    Ns = rng.normal(size=(2, 7, 3, 3))
    q = sg.random_rotations(rng, 3000)
    K = sg.davenport_matrix(Ns)
    acts = sg.rotation_actions(sg.action_form(Ns), q)
    assert K.shape == (2, 7, 4, 4) and acts.shape == (2, 7, 3000)
    for idx in np.ndindex(2, 7):
        assert np.array_equal(K[idx], sg.davenport_matrix(Ns[idx]))
        assert np.max(np.abs(acts[idx] - sg.rotation_actions(sg.action_form(Ns[idx]), q))) <= 1e-14


def test_davenport_largest_eigenvalue_is_the_maximized_action():
    rng = np.random.default_rng(26)
    for N in [rng.normal(size=(3, 3)) for _ in range(20)] + [np.diag([1.0, 1.0, -1.0])]:
        K = sg.davenport_matrix(N)
        _, m, _ = sg.wahba_maximize(N)
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K)[-1] == pytest.approx(m, abs=1e-12)


def test_wahba_rank_one_tie_breaks_toward_identity():
    N = np.diag([2.0, 0.0, 0.0])
    Q, m, classification = sg.wahba_maximize(N)
    assert classification == "one_parameter_family"
    assert m == pytest.approx(2.0)
    assert np.allclose(Q, np.eye(3), atol=1e-12)


def test_wahba_reflection_tie_flags_and_optimizes():
    # equal smallest singular values with a det flip: a circle of optimizers
    N = np.diag([1.0, 1.0, -1.0])
    Q, m, classification = sg.wahba_maximize(N)
    assert classification == "one_parameter_family"
    assert m == pytest.approx(1.0, rel=1e-12)
    assert np.trace(Q @ N) == pytest.approx(m, rel=1e-12)
    # closest-to-identity member: no sampled optimizer has a larger trace
    rng = np.random.default_rng(23)
    samples = sg.random_rotations(rng, 50000)
    acts = sg.rotation_actions(sg.action_form(N), samples)
    near_opt = sg.rotation_matrices(samples[acts >= m - 1e-4])
    assert near_opt.shape[0] > 0
    assert np.trace(Q) >= np.einsum("kii->k", near_opt).max() - 1e-2


def test_moment_matrix_against_hand_integral():
    # plate, f = e3 constant, g1 = g2 = 1/2: N = h sqrt(e_h) int x e3^T du
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    squad = sg.surface_quadrature(plate, 8)
    h, e_h = 0.125, 0.125 ** 4
    fac = h * np.sqrt(e_h)
    N = sg.moment_matrix(fac * at_nodes(squad, [0.0, 0.0, 1.0]), thick, h, squad)
    expected = np.zeros((3, 3))
    expected[0, 2] = fac * 0.5   # int u1 du
    expected[1, 2] = fac * 0.5
    assert np.allclose(N, expected, atol=1e-14)


def test_maximize_action_result_invariants():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    squad = sg.surface_quadrature(plate, 6)
    fh = 0.125 ** 3 * at_nodes(squad, [0.3, 0.1, 1.0])  # h sqrt(e_h) f at e_h = h^4
    res = sg.maximize_action(fh, thick, 0.125, squad)
    Q = res.optimal_rotation
    assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12
    assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(24)
    acts = sg.rotation_actions(sg.action_form(res.moment_matrix),
                                sg.random_rotations(rng, 5000))
    assert res.value >= acts.max() - 1e-12


def test_example_maximizer_set_classifications():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 10)
    thick = sg.ThicknessPair.constant(0.5, 0.5)

    const = sg.example_maximizer_set(at_nodes(squad, [0.3, -0.1, 0.2]), thick, squad)
    assert const.classification == "all_SO3"
    assert const.value == 0.0

    radial = sg.example_maximizer_set(squad.frame.x, thick, squad)
    assert radial.classification == "unique"
    assert np.allclose(radial.optimal_rotation, np.eye(3), atol=1e-10)
    # action tr(Q) * area / 3, maximal at Q = Id, value = area
    assert radial.value == pytest.approx(4.0 * np.pi, rel=1e-10)

    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 2)
    cap_quad = sg.surface_quadrature(cap, 10)
    cap_thick = sg.ThicknessPair.constant(0.5, 0.5)
    vertical = sg.example_maximizer_set(at_nodes(cap_quad, [0.0, 0.0, 1.0]),
                                        cap_thick, cap_quad)
    assert vertical.classification == "one_parameter_family"


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
def test_example_maximizer_set_does_not_depend_on_the_load_scale(scale):
    # the maximizers of tr(Q N) do not change with N -> s N, s > 0, so the
    # tie floor scales with the load's mass
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 10)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    radial = sg.example_maximizer_set(scale * squad.frame.x, thick, squad)
    assert radial.classification == "unique"
    assert radial.value == pytest.approx(scale * 4.0 * np.pi, rel=1e-10)
    const = sg.example_maximizer_set(at_nodes(squad, scale * np.array([0.3, -0.1, 0.2])),
                                     thick, squad)
    assert const.classification == "all_SO3"
    assert const.value == 0.0


def test_example_maximizer_set_of_a_zero_load_is_all_rotations():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 6)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    zero = sg.example_maximizer_set(at_nodes(squad, [0.0, 0.0, 0.0]), thick, squad)
    assert zero.classification == "all_SO3"
    assert zero.value == 0.0


def test_example_maximizer_set_breaks_a_tie_toward_the_identity():
    # e1 on the upper hemisphere: N0 = int x e1^T = pi e3 e1^T has rank one,
    # and every rotation taking e3 to e1 maximizes tr(Q N0); a perturbation
    # of 1e-9, below the classification's tie floor, must not pick another
    # member of that family
    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 2)
    squad = sg.surface_quadrature(cap, 10)
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    x = squad.frame.x
    f = at_nodes(squad, [1.0, 0.0, 0.0]) + 1e-9 * np.stack(
        (x[:, 1], x[:, 0], np.zeros(len(x))), axis=-1)
    res = sg.example_maximizer_set(f, thick, squad)
    assert res.classification == "one_parameter_family"
    # the member closest to the identity: a quarter turn about e2, of trace 1
    assert np.trace(res.optimal_rotation) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("g", [0.3, 1e-9])
def test_example_maximizer_set_weights_the_moment_by_the_thickness(g):
    # the limit action is tr(Q A), A = int_S (g1+g2) x f^T: a radial load on
    # the unit sphere with g1 = g2 = g is maximized at Id with the value
    # 2 g * area, not the area of the unweighted moment int_S x f^T; the tie
    # floor's mass carries the same weight, so a thin shell is no tie
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 10)
    radial = sg.example_maximizer_set(squad.frame.x, sg.ThicknessPair.constant(g, g), squad)
    assert radial.classification == "unique"
    assert np.allclose(radial.optimal_rotation, np.eye(3), atol=1e-10)
    assert radial.value == pytest.approx(2.0 * g * 4.0 * np.pi, rel=1e-10)


def test_example_maximizer_set_maximizes_the_weighted_moment():
    # g1 = g2 = 0.2 + 0.5 u1 and a load f = M x - c balanced for that weight:
    # the maximizer is wahba_maximize's of A = int_S (g1+g2) x f^T, which sits
    # 0.9 degrees from the maximizer of the unweighted int_S x f^T
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 10)
    g = sg.affine_scalar(0.2, [0.5, 0.0])
    thick = sg.ThicknessPair(g1=g, g2=g)
    fr = squad.frame
    weight = squad.weights * thick.total(fr.u)
    f = fr.x @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]]).T
    f = f - (weight[:, None] * f).sum(axis=0) / weight.sum()
    residual, mass = sg.load_compatibility_residual(thick, f, squad)
    assert residual <= 1e-12 * mass
    Q, value, classification = sg.wahba_maximize((weight[:, None] * fr.x).T @ f)
    Q_unweighted, _, _ = sg.wahba_maximize((squad.weights[:, None] * fr.x).T @ f)
    assert np.degrees(np.arccos((np.trace(Q.T @ Q_unweighted) - 1.0) / 2.0)) > 0.5
    res = sg.example_maximizer_set(f, thick, squad)
    assert res.classification == classification == "unique"
    assert np.allclose(res.optimal_rotation, Q, atol=1e-12)
    assert res.value == pytest.approx(value, rel=1e-12)


def test_example_maximizer_set_preconditions():
    sph = sg.make_builtin_patch("sphere", radius=1.0)
    squad = sg.surface_quadrature(sph, 6)
    asym = sg.ThicknessPair.constant(0.4, 0.6)
    with pytest.raises(UnsupportedCaseError):
        sg.example_maximizer_set(squad.frame.x, asym, squad)


def balanced_sine(fr):
    """Vertical plate load sin(pi u1) sin(pi u2) with its mean removed."""
    out = np.zeros(fr.u.shape[:-1] + (3,))
    out[..., 2] = (np.sin(np.pi * fr.u[..., 0]) * np.sin(np.pi * fr.u[..., 1])
                   - 4.0 / np.pi ** 2)
    return out


def test_load_compatibility_residual():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    squad = sg.surface_quadrature(plate, 8)
    resid, mass = sg.load_compatibility_residual(thick, balanced_sine(squad.frame), squad)
    assert resid <= 1e-8 * mass

    unbalanced = at_nodes(squad, [0.0, 0.0, 1.0])
    resid, mass = sg.load_compatibility_residual(thick, unbalanced, squad)
    assert resid > 0.1 * mass


def plate_load_scene(order=6):
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(plate, order)
    trule = sg.TransversalRule.make(4)
    V = sg.plate_sine_field(1.0, 1, 1)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.zero_vector_field()
    load = balanced_sine(quad.frame)
    return plate, thick, W, quad, trule, V, iso, w, load


def test_J_h_reduces_to_energy_without_load():
    plate, thick, W, quad, trule, V, iso, w, _ = plate_load_scene()
    zero_load = at_nodes(quad, np.zeros(3))
    h = 2.0 ** -4
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    rec = sg.build_recovery(data, h=h, e_h=h ** 4)
    Eh = sg.eval_shell_energy(rec, W, quad, trule).E_h
    Jh = sg.eval_J_h(rec, Eh, zero_load, quad, trule)
    assert Jh == pytest.approx(Eh, rel=1e-12)


def test_J_h_nonnegative_for_identity_deformation():
    plate, thick, W, quad, trule, V, iso, w, load = plate_load_scene()
    iso0 = sg.build_isometry(sg.zero_vector_field(), quad=quad)
    data0 = sg.recovery_data(plate, W, iso0, sg.zero_vector_field(),
                             thick, kappa=1.0, frame=quad.frame)
    rec0 = sg.build_recovery(data0, h=0.125, e_h=0.125 ** 4)
    Eh = sg.eval_shell_energy(rec0, W, quad, trule).E_h
    Jh = sg.eval_J_h(rec0, Eh, load, quad, trule)
    assert Jh >= -1e-12


def test_J_h_refuses_a_recovery_built_at_other_points():
    # the nodes in reverse order have the size of the nodes: read at the
    # quadrature weights, they would give a wrong load work without an error
    plate, thick, W, quad, trule, V, iso, w, load = plate_load_scene(order=4)
    h = 2.0 ** -4
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    Eh = sg.eval_shell_energy(sg.build_recovery(data, h=h, e_h=h ** 4), W, quad, trule).E_h
    reversed_data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame[::-1])
    with pytest.raises(ParameterError, match="other chart points than the quadrature nodes"):
        sg.eval_J_h(sg.build_recovery(reversed_data, h=h, e_h=h ** 4), Eh, load, quad, trule)


@pytest.mark.parametrize("kind", ["plate", "sphere_cap", "cylinder"])
def test_J_h_matches_the_work_summed_from_evaluations(kind):
    # J^h from the moment products A + h B and the transversal moments of y^h
    # against the moment matrix (1/h) int z (f^h)^T dz summed over the (T, N)
    # nodes z = x + h t n, where the extension weight cancels the volume
    # factor, and the weighted sum of y^h there, for a scalar h and a schedule
    data, thick, quad = moment_scene(kind)
    trule = sg.TransversalRule.make(4)
    t, wt = trule.across(thick, quad.frame.u)
    load = np.random.default_rng(32).normal(size=quad.frame.x.shape)
    hs = np.array([2.0 ** -3, 2.0 ** -5, 2.0 ** -7])
    for h in (2.0 ** -4, hs):
        rec = sg.build_recovery(data, h=h, e_h=np.asarray(h) ** 4)
        Eh = np.zeros(np.shape(h))
        fh = (np.asarray(h) ** 3)[..., None, None] * load
        fr = quad.frame
        action = np.reshape([
            sg.wahba_maximize(np.einsum("n,tn,tni,nj->ij", quad.weights, wt,
                                        fr.x + hk * t[..., None] * fr.n, fk))[1]
            for fk, hk in zip(fh.reshape((-1,) + load.shape), np.ravel(h))], np.shape(h))
        y_int = np.sum(wt[..., None] * rec.evaluate(t), axis=-3)
        work = np.sum(quad.weights * (fh * y_int).sum(axis=-1), axis=-1)
        got = sg.eval_J_h(rec, Eh, load, quad, trule)
        assert np.shape(got) == np.shape(h)
        assert np.max(np.abs(got - (action - work))) <= 1e-14 * np.max(np.abs(work)), (kind, h)


def test_J_h_converges_to_limit_total_energy():
    plate, thick, W, quad, trule, V, iso, w, load = plate_load_scene()
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    limit = sg.eval_I(data.limit, data.q2, thick, quad)
    J_limit = sg.eval_J(limit, thick, iso, load, np.eye(3), quad=quad).total
    gaps = []
    for k in (3, 5):
        h = 2.0 ** -k
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        Eh = sg.eval_shell_energy(rec, W, quad, trule).E_h
        Jh = sg.eval_J_h(rec, Eh, load, quad, trule)
        gaps.append(abs(Jh / rec.e_h - J_limit) / abs(J_limit))
    assert gaps[1] < gaps[0]
    assert gaps[1] <= 0.05
