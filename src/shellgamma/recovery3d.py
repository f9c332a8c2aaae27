"""The explicit recovery deformation, its energy, and averaged-displacement diagnostics.

The deformation is transcribed literally from its defining display: the
transversal coordinate t lives in (-g1(x), g2(x)), every t-dependent term is
centered at t - (g2-g1)/2, and the physical offset is h*t.  Its ingredients
(V, w, A n, the normal part xi of grad w, d0, d1 and their chart partials)
do not depend on h, so `recovery_data` builds them once per scene and
`build_recovery` only combines them with the powers of h and t.  The full 3D
gradient is assembled by the chain rule through the chart, pairing the chart
partials with the frame {(Id + h t Pi) tau_1, (Id + h t Pi) tau_2, n}.
Chart derivatives of d0, d1 and xi are taken here by finite differences of
the assembled fields; those of A n come from `IsometryField.An_partials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnergyBlowupError, ParameterError
from .fields import VectorField, domain_widths, fd_partial
from .geometry import offset_jacobian
from .kinematics import bending_matrix, grad3_gamma_n, stretching_tensor
from .material import StoredEnergy, as_q3, reduce_q2

COMPOSITE_FD_REL_STEP = 1e-3
BLOWUP_DISTANCE = 0.5


def build_d_fields(patch, material, iso, strain, thick, kappa):
    """The two correction fields of the recovery deformation.

    d0 completes the stretching tensor to its optimal 3D extension (plus the
    frame terms from A^2 and the thickness gradient); d1 does the same for
    the bending tensor.  Both use the minimizer map c of the Q2 reduction.
    """
    q3 = as_q3(material)
    s_tensor = stretching_tensor(iso, strain, thick, kappa, patch)

    def d0_value(u):
        fr = patch.frame(u)
        q2 = reduce_q2(q3, fr.n, fr.t1, fr.t2)
        out = 2.0 * q2.minimizer(s_tensor(fr))
        A = iso.A_at(u)
        A2n = A @ (A @ fr.n)
        out = out + kappa * A2n - 0.5 * kappa * float(fr.n @ A2n) * fr.n
        AG = A @ grad3_gamma_n(fr, thick)
        return out + 0.5 * (AG.T @ fr.n)

    def d1_value(u):
        fr = patch.frame(u)
        q2 = reduce_q2(q3, fr.n, fr.t1, fr.t2)
        M = bending_matrix(iso, fr)
        Mt = fr.tan2(M)
        return 2.0 * q2.minimizer(0.5 * (Mt + Mt.T)) - M.T @ fr.n

    d0 = VectorField.from_callables(d0_value, patch.domain, name="d0",
                                    rel_step=COMPOSITE_FD_REL_STEP)
    d1 = VectorField.from_callables(d1_value, patch.domain, name="d1",
                                    rel_step=COMPOSITE_FD_REL_STEP)
    return d0, d1


@dataclass(frozen=True)
class RecoveryData:
    """The h-independent ingredients of the recovery deformation of one scene.

    at(u) returns the frame at u and the values and chart partials of
    (g2-g1), V, w, A n, xi, d0 and d1 there, memoized per chart point.
    """

    patch: object
    thick: object
    at: Callable  # u -> dict of h-independent fields at u


@dataclass(frozen=True)
class RecoveryDeformation:
    h: float
    e_h: float
    patch: object
    thick: object
    evaluate: Callable  # (u, t) -> R^3, t in (-g1(u), g2(u))
    gradient: Callable  # (u, t) -> 3x3 deformation gradient on the physical shell


@dataclass(frozen=True)
class ShellEnergyValue:
    E_h: float
    normalized: float  # E_h / e_h


def recovery_data(patch, material, iso, strain, thick, kappa):
    """Build the fields of the recovery deformation that do not depend on h.

    Requires a generator-backed strain (the formula needs w itself).  The
    result serves `build_recovery` for every h of a schedule.
    """
    if strain.generator is None:
        raise ParameterError(
            "recovery needs a generator-backed strain (B_tan = sym grad w)")
    V = iso.displacement
    w = strain.generator
    d0, d1 = build_d_fields(patch, material, iso, strain, thick, kappa)
    steps = COMPOSITE_FD_REL_STEP * domain_widths(patch.domain)

    def normal_part_grad_w(u):
        # tangent vector xi with xi . tau = n . d_tau w
        fr = patch.frame(u)
        return fr.grad3(w.d1(fr.u).T @ fr.n)

    cache = {}

    def at(u):
        key = np.asarray(u, dtype=float).tobytes()
        hit = cache.get(key)
        if hit is not None:
            return hit
        fr = patch.frame(u)
        fields = {
            "fr": fr,
            "dn": fr.shape_op @ fr.jac,  # chart partials of the normal
            "gamma": thick.gamma(fr.u),
            "dgamma": thick.gamma_d(fr.u),
            "V": V.value(fr.u),
            "DV": V.d1(fr.u),
            "w": w.value(fr.u),
            "Dw": w.d1(fr.u),
            "p": iso.An_at(fr.u),  # first-order rotation of the normal
            "Dp": iso.An_partials(fr.u),
            "xi": normal_part_grad_w(u),
            "Dxi": _fd_columns(normal_part_grad_w, u, steps, patch.domain),
            "d0": d0.value(u),
            "Dd0": d0.d1(u),
            "d1": d1.value(u),
            "Dd1": d1.d1(u),
        }
        cache[key] = fields
        return fields

    return RecoveryData(patch=patch, thick=thick, at=at)


def build_recovery(data, h, e_h):
    """Assemble the recovery deformation y^h from the scene's RecoveryData.

    Requires h small enough that Id + h t Pi stays orientation-preserving
    through the thickness.
    """
    if not (0.0 < h < 1.0):
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    if e_h <= 0.0:
        raise ParameterError("e_h must be positive")
    patch = data.patch
    _check_thin_shell(patch, data.thick, h)
    sq = float(np.sqrt(e_h))

    def evaluate(u, t):
        pd = data.at(u)
        fr = pd["fr"]
        s = t - 0.5 * pd["gamma"]
        return (fr.x + 0.5 * h * pd["gamma"] * fr.n
                + (sq / h) * pd["V"] + sq * pd["w"]
                + h * s * fr.n
                + s * sq * pd["p"]
                - h * s * sq * pd["xi"]
                + s * h * sq * pd["d0"]
                + 0.5 * s * s * h * sq * pd["d1"])

    def gradient(u, t):
        pd = data.at(u)
        fr = pd["fr"]
        s = t - 0.5 * pd["gamma"]
        dn = pd["dn"]
        cols = []
        for i in (0, 1):
            ds = -0.5 * pd["dgamma"][i]
            col = (fr.jac[:, i]
                   + 0.5 * h * (pd["dgamma"][i] * fr.n + pd["gamma"] * dn[:, i])
                   + (sq / h) * pd["DV"][:, i] + sq * pd["Dw"][:, i]
                   + h * (ds * fr.n + s * dn[:, i])
                   + sq * (ds * pd["p"] + s * pd["Dp"][:, i])
                   - h * sq * (ds * pd["xi"] + s * pd["Dxi"][:, i])
                   + h * sq * (ds * pd["d0"] + s * pd["Dd0"][:, i])
                   + h * sq * (s * ds * pd["d1"] + 0.5 * s * s * pd["Dd1"][:, i]))
            cols.append(col)
        dt = (h * fr.n + sq * pd["p"] - h * sq * pd["xi"]
              + h * sq * pd["d0"] + s * h * sq * pd["d1"])
        M, _ = offset_jacobian(patch, u, h * t)
        frame_mat = np.column_stack([M @ fr.jac[:, 0], M @ fr.jac[:, 1], fr.n])
        Y = np.column_stack([cols[0], cols[1], dt / h])
        return Y @ np.linalg.inv(frame_mat)

    return RecoveryDeformation(h=float(h), e_h=float(e_h), patch=patch,
                               thick=data.thick, evaluate=evaluate,
                               gradient=gradient)


def _fd_columns(f, u, steps, domain):
    cols = [fd_partial(f, u, ax, steps[ax], domain) for ax in (0, 1)]
    return np.stack(cols, axis=-1)


def _check_thin_shell(patch, thick, h, grid=5):
    (a1, b1), (a2, b2) = patch.domain
    for x1 in np.linspace(a1, b1, grid + 2)[1:-1]:
        for x2 in np.linspace(a2, b2, grid + 2)[1:-1]:
            u = np.array([x1, x2])
            for t in (-thick.g1.value(u), thick.g2.value(u)):
                offset_jacobian(patch, u, h * t)  # raises ThicknessError if det <= 0


def eval_shell_energy(rec, material, squad, trule, blowup_distance=BLOWUP_DISTANCE):
    """Rescaled 3D energy E_h = int_S int_{-g1}^{g2} W(grad y) det(Id + h s Pi) ds dS.

    The substitution t = h s absorbs the 1/h of the energy scaling.  Raises
    EnergyBlowupError naming the worst node when the gradient leaves the
    declared neighborhood of SO(3).
    """
    if not isinstance(material, StoredEnergy):
        raise ParameterError("shell energy needs a StoredEnergy, not only a Q3 form")
    total = 0.0
    for node in squad.nodes:
        fr = node.frame
        t_nodes, t_weights = trule.nodes_at(rec.thick.g1.value(fr.u),
                                            rec.thick.g2.value(fr.u))
        for t, wt in zip(t_nodes, t_weights):
            F = rec.gradient(fr.u, t)
            sv = np.linalg.svd(F, compute_uv=False)
            dist = float(np.linalg.norm(sv - 1.0))
            Wv = material.evaluate(F)
            if not np.isfinite(Wv) or dist > blowup_distance:
                raise EnergyBlowupError(
                    f"gradient at distance {dist:.3e} from SO(3) at "
                    f"u={tuple(fr.u)}, t={t:.4f}", u=fr.u, t=t)
            _, det = offset_jacobian(rec.patch, fr.u, rec.h * t)
            total += node.weight * wt * Wv * det
    return ShellEnergyValue(E_h=total, normalized=total / rec.e_h)


def shell_energy_tangential_lower_bound(rec, material, squad, trule):
    """Quadrature of the tangential Q2 part of the energy integrand, over e_h.

    Pointwise (1/2) Q2((E)_tan) <= (1/2) Q3(E) = W for quadratic-in-strain
    densities, so this never exceeds the normalized energy; the gap closes
    as h -> 0.
    """
    q3 = as_q3(material)
    total = 0.0
    for node in squad.nodes:
        fr = node.frame
        q2 = reduce_q2(q3, fr.n, fr.t1, fr.t2)
        t_nodes, t_weights = trule.nodes_at(rec.thick.g1.value(fr.u),
                                            rec.thick.g2.value(fr.u))
        for t, wt in zip(t_nodes, t_weights):
            F = rec.gradient(fr.u, t)
            E3 = 0.5 * (F.T @ F - np.eye(3))
            _, det = offset_jacobian(rec.patch, fr.u, rec.h * t)
            total += node.weight * wt * 0.5 * q2.apply_tangential(fr.tan2(E3)) * det
    return total / rec.e_h


def averaged_displacement(rec, patch, thick, trule):
    """The scaled transversal average (h/sqrt(e_h)) avg_t [y^h(x+tn) - (x+htn)].

    Returns a chart function u -> R^3, evaluable anywhere on the patch.
    """
    scale = rec.h / np.sqrt(rec.e_h)

    def vh(u):
        u = np.asarray(u, dtype=float)
        x = patch.chart(u)
        n = patch.normal(u)
        t_nodes, t_weights = trule.nodes_at(thick.g1.value(u), thick.g2.value(u))
        acc = np.zeros(3)
        for t, wt in zip(t_nodes, t_weights):
            acc += wt * (rec.evaluate(u, t) - (x + rec.h * t * n))
        return scale * acc / thick.total(u)

    return vh


def averaged_displacement_sym_grad(rec, patch, thick, trule, frame,
                                   rel_step=COMPOSITE_FD_REL_STEP):
    """(1/h) sym tangential gradient of the averaged displacement at one frame."""
    vh = averaged_displacement(rec, patch, thick, trule)
    steps = rel_step * domain_widths(patch.domain)
    D = _fd_columns(vh, frame.u, steps, patch.domain)
    M = frame.tan2(frame.grad3(D))
    return 0.5 * (M + M.T) / rec.h


def discrete_l2_distance(field_a, field_b, squad):
    """Quadrature-weighted L^2 distance between two chart functions u -> R^3."""
    acc = 0.0
    for node in squad.nodes:
        diff = np.asarray(field_a(node.frame.u)) - np.asarray(field_b(node.frame.u))
        acc += node.weight * float(diff @ diff)
    return float(np.sqrt(acc))
