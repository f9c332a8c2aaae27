"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints one line `ACCEPTANCE <n>: PASS|FAIL - <detail>` (visible
with `pytest -s` or in the captured output on failure) and asserts the
criterion at its stated tolerance, including the stated runtime budget.
"""

import time

import numpy as np

import shellgamma as sg
from shellgamma.errors import NotAnIsometryError
from shellgamma.fields import stencil_points, stencil_steps
from shellgamma.material import isotropic_q2_closed_form
from shellgamma.studies import load_config, fit_order, run_study

from oracles import An_partials, sum_fields

GENERIC_W = [(0.4, 1.3, 0.2, 0.9, 0.5),
             (0.3, 0.7, 1.1, 1.4, 0.3),
             (0.5, 1.1, 0.4, 0.8, 1.2)]


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_q2_reduction_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    n = np.array([0.0, 0.0, 1.0])
    T = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    worst_brute = 0.0
    worst_closed = 0.0
    for mu, lam in [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)]:
        q3 = sg.make_isotropic(mu, lam).q3
        q2 = sg.reduce_q2(q3, n, T)
        F = rng.normal(size=(200, 2, 2))
        val = q2.apply_tangential(F)
        brute, _ = sg.relax_q2_brute_force(q3, n, F, T)
        worst_brute = max(worst_brute, float(np.max(np.abs(val - brute))))
        closed = isotropic_q2_closed_form(mu, lam, F)
        worst_closed = max(worst_closed, float(np.max(
            np.abs(val - closed) / np.maximum(1.0, np.abs(closed)))))
    # anisotropic M = A A^T + Id, where only the brute force checks the reduction
    for seed in (50, 51):
        A = np.random.default_rng(seed).normal(size=(6, 6))
        q3 = sg.QuadForm3.from_matrix(A @ A.T + np.eye(6))
        F = rng.normal(size=(200, 2, 2))
        val = sg.reduce_q2(q3, n, T).apply_tangential(F)
        brute, _ = sg.relax_q2_brute_force(q3, n, F, T)
        worst_brute = max(worst_brute, float(np.max(np.abs(val - brute))))
    elapsed = time.perf_counter() - t0
    ok = worst_brute <= 1e-8 and worst_closed <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"brute-force dev {worst_brute:.2e} (tol 1e-8), closed-form "
                   f"rel dev {worst_closed:.2e} (tol 1e-10), {elapsed:.1f}s (< 10 s)")


def test_criterion_2_expansion_orders():
    details = []
    ok = True
    for name in ("plate-expansion", "sphere-expansion", "cylinder-expansion"):
        t0 = time.perf_counter()
        report = run_study(load_config(name))
        elapsed = time.perf_counter() - t0
        s, s_r2 = report.summary["stretch_slope"], report.summary["stretch_r2"]
        b, b_r2 = report.summary["bend_slope"], report.summary["bend_r2"]
        this_ok = (s >= 2.9 and b >= 1.9 and s_r2 >= 0.99 and b_r2 >= 0.99
                   and report.passed and elapsed < 60.0)
        ok = ok and this_ok
        details.append(f"{name}: stretch {s:.2f} (r2 {s_r2:.4f}), "
                       f"bend {b:.2f} (r2 {b_r2:.4f}), {elapsed:.1f}s")
    _report(2, ok, "; ".join(details))


def test_criterion_3_gamma_limit_consistency():
    details = []
    ok = True
    for name in ("plate-gamma", "sphere-gamma", "sphere-anisotropic-gamma"):
        t0 = time.perf_counter()
        report = run_study(load_config(name))
        elapsed = time.perf_counter() - t0
        raw = report.summary["raw_rel_gap_at_smallest_h"]
        extr = report.summary["extrapolated_rel_gap"]
        this_ok = raw <= 0.05 and extr <= 0.02 and report.passed and elapsed < 300.0
        if name.startswith("sphere"):
            # the rigid-isometry scenarios are checked against a stretching-only limit
            this_ok = this_ok and report.summary["I_bending"] <= 1e-10
        ok = ok and this_ok
        details.append(f"{name}: raw gap {raw:.2e} (tol 0.05), extrapolated "
                       f"{extr:.2e} (tol 0.02), {elapsed:.0f}s")
    _report(3, ok, "; ".join(details))


def test_criterion_4_averaged_displacement_diagnostics():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(plate, 8)
    trule = sg.TransversalRule.make(4)
    V = sg.plate_sine_field(1.0, 1, 1)
    iso = sg.build_isometry(V, quad=quad)
    w = sg.zero_vector_field()

    hs = [2.0 ** -k for k in range(3, 8)]
    dists = []
    grad_errs = []
    probes = quad.frame[::17]
    data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0, frame=quad.frame)
    # the sym-grad diagnostic reads y^h at the stencil points of the probes
    stencil = stencil_points(probes.u, stencil_steps(probes.u, plate.domain))
    probe_data = sg.recovery_data(plate, W, iso, w, thick, kappa=1.0,
                                  frame=plate.frame(stencil))
    for h in hs:
        rec = sg.build_recovery(data, h=h, e_h=h ** 4)
        vh = sg.averaged_displacement(rec, trule)
        dists.append(sg.discrete_l2_distance(vh, V.value(quad.frame.u), quad))
        S = sg.averaged_displacement_sym_grad(sg.build_recovery(probe_data, h=h, e_h=h ** 4),
                                              trule, probes, plate.domain)
        # B_tan = sym grad w = 0
        grad_errs.append(float(np.max(np.linalg.norm(S, axis=(-2, -1)))))

    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    slope, _ = fit_order(list(zip(hs, dists)))
    # B_tan = 0 for this scenario: nodewise errors sit at the finite-difference
    # resolution of the diagnostic; "decreasing" is enforced up to that floor
    grad_ok = all(b <= a * 1.05 + 1e-10 for a, b in zip(grad_errs, grad_errs[1:])) \
        and grad_errs[-1] <= 1e-9
    ok = monotone and slope > 0.9 and grad_ok
    _report(4, ok, f"V^h distance {dists[0]:.2e} -> {dists[-1]:.2e} "
                   f"(order {slope:.2f}), sym-grad error "
                   f"{grad_errs[0]:.1e} -> {grad_errs[-1]:.1e}")


def test_criterion_5_variable_thickness_term():
    plate = sg.make_builtin_patch("plate")
    quad = sg.surface_quadrature(plate, 8)
    W = sg.make_isotropic(1.0, 1.0)
    V = sum_fields(sg.rigid_field(plate, (0.2, -0.3, 0.4), (0.1, 0.0, -0.2)),
                      sg.plate_sine_field(0.8, 1, 1))
    iso = sg.build_isometry(V, quad=quad)
    b_tan = np.zeros((len(quad.weights), 2, 2))
    kappa = 1.0

    thick_a = sg.ThicknessPair.constant(0.4, 0.6)
    thick_b = sg.ThicknessPair.constant(0.5, 0.5)
    fr = quad.frame
    zero = sg.zero_vector_field()  # B_tan = sym grad w = b_tan
    DAn = An_partials(plate, iso, fr.u)
    fields_a = sg.limit_fields(iso, zero, thick_a, kappa, fr, *iso.An(fr), DAn)
    fields_b = sg.limit_fields(iso, zero, thick_b, kappa, fr, *iso.An(fr), DAn)
    q2 = sg.reduce_q2(W.q3, fr.n, fr.tangents)
    I_a = sg.eval_I(fields_a, q2, thick_a, quad)
    I_b = sg.eval_I(fields_b, q2, thick_b, quad)

    # independent per-node recomputation of the thickness-gradient contribution
    # to the stretching term (for constant profiles on the plate it vanishes)
    contribution = 0.0
    for i, weight in enumerate(quad.weights):
        fr = quad.frame[i]
        A = iso.A_at(fr, *iso.An(fr))
        base = b_tan[i] - 0.5 * kappa * fr.tan2(A @ A)
        AG = A @ fr.grad3(sg.kinematics.gamma_n_partials(fr, fr.dn, thick_a))
        Tg = fr.tan2(AG)
        with_term = base - 0.25 * (Tg + Tg.T)
        contribution += 0.5 * weight * thick_a.total(fr.u) * (
            isotropic_q2_closed_form(1.0, 1.0, with_term)
            - isotropic_q2_closed_form(1.0, 1.0, base))
    gap = abs((I_a.total - I_b.total) - contribution)

    bitwise = np.array_equal(fields_a.stretching, fields_b.stretching)
    ok = gap <= 1e-10 and bitwise
    _report(5, ok, f"thickness-term mismatch {gap:.2e} (tol 1e-10), "
                   f"constant-thickness stretching tensor bit-identical: {bitwise}")


def test_criterion_6_load_alignment():
    t0 = time.perf_counter()
    report = run_study(load_config("load-align"))
    elapsed = time.perf_counter() - t0
    ok = (report.passed
          and report.summary["matrices"] == 20
          and report.summary["rotation_samples"] == 100000
          and report.summary["constant_load_classification"] == "all_SO3"
          and report.summary["radial_load_classification"] == "unique")
    _report(6, ok, f"worst sampling margin {report.summary['worst_margin']:.2e}, "
                   f"classifications: constant -> "
                   f"{report.summary['constant_load_classification']}, radial -> "
                   f"{report.summary['radial_load_classification']}, {elapsed:.0f}s")


def test_criterion_7_degenerate_and_trivial_suite():
    plate = sg.make_builtin_patch("plate")
    thick = sg.ThicknessPair.constant(0.5, 0.5)
    W = sg.make_isotropic(1.0, 1.0)
    quad = sg.surface_quadrature(plate, 6)
    trule = sg.TransversalRule.make(4)

    iso0 = sg.build_isometry(sg.zero_vector_field(), quad=quad)
    data0 = sg.recovery_data(plate, W, iso0, sg.zero_vector_field(), thick,
                             kappa=1.0, frame=quad.frame)
    rec0 = sg.build_recovery(data0, h=0.125, e_h=0.125 ** 4)
    identity_energy = sg.eval_shell_energy(rec0, W, quad, trule).E_h

    I0 = sg.eval_I(data0.limit, data0.q2, thick, quad).total
    d0, d1 = sg.build_d_fields(data0.limit, data0.q2, kappa=1.0)
    d_norm = max(np.max(np.linalg.norm(d0[::5], axis=-1)),
                 np.max(np.linalg.norm(d1[::5], axis=-1)))

    cap = sg.make_builtin_patch("sphere_cap", radius=1.0, cap_angle=np.pi / 3)
    cap_quad = sg.surface_quadrature(cap, 6)
    cap_thick = sg.ThicknessPair.constant(0.5, 0.5)
    iso_r = sg.build_isometry(sg.rigid_field(cap, (0.3, -0.2, 0.4)),
                              quad=cap_quad)
    # the bending part of I, with B_tan = 0
    cap_fr = cap_quad.frame
    fields_r = sg.limit_fields(iso_r, sg.zero_vector_field(), cap_thick, 0.0,
                               cap_fr, *iso_r.An(cap_fr), An_partials(cap, iso_r, cap_fr.u))
    q2_r = sg.reduce_q2(W.q3, cap_fr.n, cap_fr.tangents)
    bending = sg.eval_I(fields_r, q2_r, cap_thick, cap_quad).bending

    from shellgamma.fields import VectorField
    stretchy = VectorField(
        value=lambda u: u[..., 0, None] * np.array([1.0, 0.0, 0.0]),
        d1=lambda m: np.zeros(m.u.shape[:-1] + (3, 2)) + np.array(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    rejected = False
    worst_reported = None
    try:
        sg.build_isometry(stretchy, quad=quad)
    except NotAnIsometryError as err:
        rejected = True
        worst_reported = err.u is not None and err.residual is not None

    ok = (identity_energy == 0.0 and abs(I0) <= 1e-14 and d_norm <= 1e-13
          and bending <= 1e-10 and rejected and bool(worst_reported))
    _report(7, ok, f"identity E_h = {identity_energy}, I(0,0) = {I0:.1e}, "
                   f"max |d0|,|d1| = {d_norm:.1e}, rigid-V bending = {bending:.1e}, "
                   f"non-isometry rejected with worst node: {rejected}")
