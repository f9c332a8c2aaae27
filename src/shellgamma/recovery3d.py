"""The explicit recovery deformation, its energy, and averaged-displacement diagnostics.

The deformation is transcribed literally from its defining display: the
transversal coordinate t lives in (-g1(x), g2(x)), every t-dependent term is
centered at t - (g2-g1)/2, and the physical offset is h*t.  Its ingredients
(V, w, A n, the normal part xi of grad w, d0, d1 and their chart partials)
do not depend on h, so `recovery_data` builds them once per scene over the
quadrature node array and `build_recovery` only combines them with the
powers of h and t.  The full 3D gradient is assembled by the chain rule
through the chart, pairing the chart partials with the frame
{(Id + h t Pi) tau_1, (Id + h t Pi) tau_2, n}.  Chart derivatives of d0, d1
and xi are taken here by finite differences of the assembled fields; those
of A n come from `IsometryField.An_partials`.

Everything broadcasts over leading batch axes: the energies read y^h once
per h over the (T, N) grid of transversal and surface nodes, with the
transversal axis leading so that arrays over the surface nodes broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnergyBlowupError, ParameterError
from .fields import (VectorField, domain_widths, fd_partial, matvec, outer,
                     transpose)
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
        A2n = matvec(A, matvec(A, fr.n))
        nA2n = (fr.n * A2n).sum(axis=-1)[..., None]
        out = out + kappa * A2n - 0.5 * kappa * nA2n * fr.n
        AG = A @ grad3_gamma_n(fr, thick)
        return out + 0.5 * matvec(transpose(AG), fr.n)

    def d1_value(u):
        fr = patch.frame(u)
        q2 = reduce_q2(q3, fr.n, fr.t1, fr.t2)
        M = bending_matrix(iso, fr)
        Mt = fr.tan2(M)
        return 2.0 * q2.minimizer(0.5 * (Mt + transpose(Mt))) - matvec(transpose(M), fr.n)

    d0 = VectorField.from_callables(d0_value, patch.domain, name="d0",
                                    rel_step=COMPOSITE_FD_REL_STEP)
    d1 = VectorField.from_callables(d1_value, patch.domain, name="d1",
                                    rel_step=COMPOSITE_FD_REL_STEP)
    return d0, d1


@dataclass(frozen=True)
class RecoveryData:
    """The h-independent ingredients of the recovery deformation of one scene.

    values_at(u) returns the frame at u with the values of (g2-g1), V, w,
    A n, xi, d0 and d1 there; partials_at(u) adds their chart partials.
    Both are built once at the node array of the scene's quadrature and
    returned from there when u is that array; at any other chart points
    they are computed afresh and nothing is stored.
    """

    patch: object
    thick: object
    values_at: Callable    # u -> dict of values at u
    partials_at: Callable  # u -> dict of values and chart partials at u


@dataclass(frozen=True)
class RecoveryDeformation:
    h: float
    e_h: float
    patch: object
    thick: object
    evaluate: Callable  # (u, t) -> R^3, t in (-g1(u), g2(u)); broadcasts over (u, t)
    gradient: Callable  # (u, t) -> 3x3 deformation gradient on the physical shell


@dataclass(frozen=True)
class ShellEnergyValue:
    E_h: float
    normalized: float  # E_h / e_h


def recovery_data(patch, material, iso, strain, thick, kappa, quad):
    """Build the fields of the recovery deformation that do not depend on h.

    Requires a generator-backed strain (the formula needs w itself).  The
    fields are built once at the node array of `quad`; the result serves
    `build_recovery` for every h of a schedule.
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
        return fr.grad3(matvec(transpose(w.d1(fr.u)), fr.n))

    def values(u):
        return {
            "fr": patch.frame(u),
            "gamma": thick.gamma(u),
            "V": V.value(u),
            "w": w.value(u),
            "p": iso.An_at(u),  # first-order rotation of the normal
            "xi": normal_part_grad_w(u),
            "d0": d0.value(u),
            "d1": d1.value(u),
        }

    def with_partials(u):
        fields = values(u)
        fr = fields["fr"]
        fields.update({
            "dn": fr.shape_op @ fr.jac,  # chart partials of the normal
            "dgamma": thick.gamma_d(u),
            "DV": V.d1(u),
            "Dw": w.d1(u),
            "Dp": iso.An_partials(u),
            "Dxi": _fd_columns(normal_part_grad_w, u, steps, patch.domain),
            "Dd0": d0.d1(u),
            "Dd1": d1.d1(u),
        })
        return fields

    nodes = quad.frame.u
    at_nodes = with_partials(nodes)

    def stored_or(compute):
        def at(u):
            u = np.asarray(u, dtype=float)
            if u.shape == nodes.shape and np.array_equal(u, nodes):
                return at_nodes
            return compute(u)
        return at

    return RecoveryData(patch=patch, thick=thick, values_at=stored_or(values),
                        partials_at=stored_or(with_partials))


def build_recovery(data, h, e_h):
    """Assemble the recovery deformation y^h from the scene's RecoveryData.

    Requires h small enough that Id + h t Pi stays orientation-preserving
    through the thickness.  `evaluate(u, t)` and `gradient(u, t)` broadcast
    u of shape (..., 2) against t.
    """
    if not (0.0 < h < 1.0):
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    if e_h <= 0.0:
        raise ParameterError("e_h must be positive")
    patch = data.patch
    _check_thin_shell(patch, data.thick, h)
    sq = float(np.sqrt(e_h))

    def evaluate(u, t):
        pd = data.values_at(u)
        fr = pd["fr"]
        s = (np.asarray(t, dtype=float) - 0.5 * pd["gamma"])[..., None]
        return (fr.x + (0.5 * h * pd["gamma"])[..., None] * fr.n
                + (sq / h) * pd["V"] + sq * pd["w"]
                + h * s * fr.n
                + s * sq * pd["p"]
                - h * s * sq * pd["xi"]
                + s * h * sq * pd["d0"]
                + 0.5 * s * s * h * sq * pd["d1"])

    def gradient(u, t):
        pd = data.partials_at(u)
        fr = pd["fr"]
        t = np.asarray(t, dtype=float)
        s = t - 0.5 * pd["gamma"]
        ds = -0.5 * pd["dgamma"]
        sm = s[..., None, None]  # s against (3, 2) chart partials
        dn = pd["dn"]
        # column i: chart partial d/du_i of y^h
        Y2 = (fr.jac
              + 0.5 * h * (outer(fr.n, pd["dgamma"]) + pd["gamma"][..., None, None] * dn)
              + (sq / h) * pd["DV"] + sq * pd["Dw"]
              + h * (outer(fr.n, ds) + sm * dn)
              + sq * (outer(pd["p"], ds) + sm * pd["Dp"])
              - h * sq * (outer(pd["xi"], ds) + sm * pd["Dxi"])
              + h * sq * (outer(pd["d0"], ds) + sm * pd["Dd0"])
              + h * sq * (outer(pd["d1"], s[..., None] * ds) + 0.5 * sm * sm * pd["Dd1"]))
        dt = (h * fr.n + sq * pd["p"] - h * sq * pd["xi"]
              + h * sq * pd["d0"] + (s * h * sq)[..., None] * pd["d1"])
        M, _ = offset_jacobian(patch, u, h * t)
        MJ = M @ fr.jac
        frame_mat = np.concatenate(
            [MJ, np.broadcast_to(fr.n[..., None], MJ.shape[:-1] + (1,))], axis=-1)
        Y = np.concatenate(
            [Y2, np.broadcast_to((dt / h)[..., None], Y2.shape[:-1] + (1,))], axis=-1)
        return Y @ np.linalg.inv(frame_mat)

    return RecoveryDeformation(h=float(h), e_h=float(e_h), patch=patch,
                               thick=data.thick, evaluate=evaluate,
                               gradient=gradient)


def _fd_columns(f, u, steps, domain):
    cols = [fd_partial(f, u, ax, steps[ax], domain) for ax in (0, 1)]
    return np.stack(cols, axis=-1)


def _check_thin_shell(patch, thick, h, grid=5):
    (a1, b1), (a2, b2) = patch.domain
    x1 = np.linspace(a1, b1, grid + 2)[1:-1]
    x2 = np.linspace(a2, b2, grid + 2)[1:-1]
    u = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    t = np.stack([-thick.g1.value(u), thick.g2.value(u)])
    offset_jacobian(patch, u, h * t)  # raises ThicknessError if det <= 0


def eval_shell_energy(rec, material, squad, trule, blowup_distance=BLOWUP_DISTANCE):
    """Rescaled 3D energy E_h = int_S int_{-g1}^{g2} W(grad y) det(Id + h s Pi) ds dS.

    The substitution t = h s absorbs the 1/h of the energy scaling.  Raises
    EnergyBlowupError naming the node of largest distance from SO(3) when
    the gradient leaves the declared neighborhood of SO(3).
    """
    if not isinstance(material, StoredEnergy):
        raise ParameterError("shell energy needs a StoredEnergy, not only a Q3 form")
    u = squad.frame.u
    t, wt = trule.across(rec.thick, u)  # (T, N)
    F = rec.gradient(u, t)
    sv = np.linalg.svd(F, compute_uv=False)
    dist = np.sqrt(((sv - 1.0) ** 2).sum(axis=-1))
    Wv = material.evaluate(F)
    dist = np.where(np.isfinite(Wv), dist, np.inf)
    if np.any(dist > blowup_distance):
        k, i = np.unravel_index(np.argmax(dist), dist.shape)
        raise EnergyBlowupError(
            f"gradient at distance {dist[k, i]:.3e} from SO(3) at "
            f"u={tuple(u[i].tolist())}, t={t[k, i]:.4f}", u=u[i], t=t[k, i])
    _, det = offset_jacobian(rec.patch, u, rec.h * t)
    total = float(np.sum(squad.weights * wt * Wv * det))
    return ShellEnergyValue(E_h=total, normalized=total / rec.e_h)


def shell_energy_tangential_lower_bound(rec, material, squad, trule):
    """Quadrature of the tangential Q2 part of the energy integrand, over e_h.

    Pointwise (1/2) Q2((E)_tan) <= (1/2) Q3(E) = W for quadratic-in-strain
    densities, so this never exceeds the normalized energy; the gap closes
    as h -> 0.
    """
    fr = squad.frame
    q2 = reduce_q2(as_q3(material), fr.n, fr.t1, fr.t2)
    u = fr.u
    t, wt = trule.across(rec.thick, u)
    F = rec.gradient(u, t)
    E3 = 0.5 * (transpose(F) @ F - np.eye(3))
    _, det = offset_jacobian(rec.patch, u, rec.h * t)
    integrand = squad.weights * wt * 0.5 * q2.apply_tangential(fr.tan2(E3)) * det
    return float(np.sum(integrand)) / rec.e_h


def averaged_displacement(rec, patch, thick, trule):
    """The scaled transversal average (h/sqrt(e_h)) avg_t [y^h(x+tn) - (x+htn)].

    Returns a chart function u -> R^3, evaluable anywhere on the patch and
    broadcasting over leading batch axes of u.
    """
    scale = rec.h / np.sqrt(rec.e_h)

    def vh(u):
        u = np.asarray(u, dtype=float)
        x = patch.chart(u)
        n = patch.normal(u)
        t, wt = trule.across(thick, u)
        offset = rec.evaluate(u, t) - (x + (rec.h * t)[..., None] * n)
        acc = np.sum(wt[..., None] * offset, axis=0)
        return scale * acc / thick.total(u)[..., None]

    return vh


def averaged_displacement_sym_grad(rec, patch, thick, trule, frame,
                                   rel_step=COMPOSITE_FD_REL_STEP):
    """(1/h) sym tangential gradient of the averaged displacement at one frame."""
    vh = averaged_displacement(rec, patch, thick, trule)
    steps = rel_step * domain_widths(patch.domain)
    D = _fd_columns(vh, frame.u, steps, patch.domain)
    M = frame.tan2(frame.grad3(D))
    return 0.5 * (M + transpose(M)) / rec.h


def discrete_l2_distance(field_a, field_b, squad):
    """Quadrature-weighted L^2 distance between two chart functions u -> R^3.

    Both functions are called once, on the (N, 2) node array.
    """
    u = squad.frame.u
    diff = np.asarray(field_a(u)) - np.asarray(field_b(u))
    return float(np.sqrt(np.sum(squad.weights * (diff * diff).sum(axis=-1))))
