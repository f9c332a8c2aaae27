"""The explicit recovery deformation, its energy, and averaged-displacement diagnostics.

The deformation is y^h = a0 + s a1 + (s^2/2) a2 with s = t - (g2-g1)/2,
t in (-g1(x), g2(x)), physical offset h*t, a0 = x + (h/2)(g2-g1) n +
(sqrt(e_h)/h) V + sqrt(e_h) w, a1 = h n + sqrt(e_h) (A n + h (d0 - xi)) and
a2 = h sqrt(e_h) d1, xi the normal part of grad w.  These ingredients do not
depend on h, so `recovery_data` builds them once per scene; `build_recovery`
writes the t-coefficients once, as a linear map that also takes the chart
partials of the ingredients to those of a0, a1, a2, and the chain rule
through the frame {(Id + h t Pi) tau_1, (Id + h t Pi) tau_2, n} gives grad y^h.

Each point array is evaluated once: the frame, A, A n, the chart partials
of w (which give B_tan and xi), the Q2 reduction, d0 and d1 at the
quadrature nodes, and the same bundle at the 4-point stencils of both
chart axes, 8 points per node, in one call.  The chart partials of A n,
xi, d0 and d1 at the nodes are 4th-order central differences of those
stencil values.  d1 at a stencil point needs the chart partials of A n
there: `fields.fd_stencil_columns` takes them from A n alone
(`IsometryField.An`, frames but no A) on one grid of 33 points per node,
whose mixed block serves both axis orders.  The limit functional reads
the same node evaluation (`RecoveryData.limit`).

Everything broadcasts over leading batch axes: the energies read y^h once
per h over the (T, N) grid of transversal and surface nodes, with the
transversal axis leading so that arrays over the surface nodes broadcast.
That one pass also gives the energy everything else it needs: `gradient`
returns det(Id + h t Pi) from the offset jacobian it forms anyway and
inverts the frame through its 2x2 tangential metric, and the Green strain,
formed once per h, feeds both the density and the distance from SO(3) of
the blow-up gate, read off its eigenvalues in closed form with no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnergyBlowupError, ParameterError
from .fields import (fd_columns, fd_stencil_columns, matvec, outer, stencil_partials,
                     stencil_points, stencil_steps, transpose)
from .fields import fd_partial  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .geometry import inv2, offset_jacobian
from .kinematics import gamma_n_partials, tangential_strain
from .limit2d import LimitFields, limit_fields
from .material import green_strain, reduce_q2

BLOWUP_DISTANCE = 0.5
# the fields whose chart partials come from the stencil values
_STENCIL_FIELDS = ("p", "xi", "d0", "d1")
# phase shifts of the three roots in the trigonometric eigenvalue formula
_EIG_ANGLES = np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)


def build_d_fields(fields, kappa):
    """The two correction fields of the recovery deformation at the points of `fields`.

    d0 completes the stretching tensor to its optimal 3D extension (plus the
    frame terms from A^2 and the thickness gradient); d1 does the same for
    the bending tensor.  Both use the minimizer map c of the Q2 reduction.
    """
    fr, A, q2 = fields.frame, fields.A, fields.q2
    d0 = 2.0 * q2.minimizer(fields.stretching)
    A2n = matvec(A, matvec(A, fr.n))
    nA2n = (fr.n * A2n).sum(axis=-1)[..., None]
    d0 = d0 + kappa * A2n - 0.5 * kappa * nA2n * fr.n
    d0 = d0 + 0.5 * matvec(transpose(fields.AG), fr.n)
    M = fields.bending_matrix
    d1 = 2.0 * q2.minimizer(fields.bending) - matvec(transpose(M), fr.n)
    return d0, d1


@dataclass(frozen=True)
class RecoveryData:
    """The h-independent ingredients of the recovery deformation of one scene.

    values_at(u) returns the frame at u with the values of (g2-g1), V, w,
    Dw, A n, xi, d0 and d1 there; partials_at(u) adds their chart partials.
    Both are built once at the node array of the scene's quadrature, and
    returned from there when u is that array; at any other chart points they
    are computed afresh and nothing is stored.  `limit` holds the limit
    functional's fields from the same node evaluation, its frame included.
    """

    patch: object
    thick: object
    limit: LimitFields     # at the quadrature nodes
    values_at: Callable    # u -> dict of values at u
    partials_at: Callable  # u -> dict of values and chart partials at u


@dataclass(frozen=True)
class RecoveryDeformation:
    h: float
    e_h: float
    patch: object
    thick: object
    evaluate: Callable  # (u, t) -> R^3, t in (-g1(u), g2(u)); broadcasts over (u, t)
    # (u, t) -> (3x3 deformation gradient on the physical shell, det(Id + h t Pi))
    gradient: Callable


@dataclass(frozen=True)
class ShellEnergyValue:
    E_h: float
    normalized: float      # E_h / e_h
    so3_distance: float    # largest distance of grad y^h from SO(3) at the quadrature points
    min_det: float         # smallest det(Id + h t Pi) at the quadrature points


def recovery_data(patch, material, iso, w, thick, kappa, quad):
    """Build the fields of the recovery deformation that do not depend on h.

    w is the second-order displacement with finite strain B_tan = sym grad w;
    its chart partials are read once per point array and give B_tan, xi and
    Dw.  The fields are built once at the node array of `quad`, reusing its
    frame; the result serves `build_recovery` for every h of a schedule and
    `eval_I` through its `limit`.
    """
    V = iso.displacement

    def values(fr, An_partials):
        Dw = w.d1(fr.u)
        lf = limit_fields(material, iso, tangential_strain(fr, Dw), thick, kappa, fr,
                          An_partials)
        d0, d1 = build_d_fields(lf, kappa)
        return {
            "fr": fr,
            "limit": lf,
            "gamma": thick.gamma(fr.u),
            "V": V.value(fr.u),
            "w": w.value(fr.u),
            "Dw": Dw,
            "p": iso.An(fr),  # first-order rotation of the normal
            # tangent vector xi with xi . tau = n . d_tau w
            "xi": fr.grad3(matvec(transpose(Dw), fr.n)),
            "d0": d0,
            "d1": d1,
        }

    def values_at(u):
        fr = patch.frame(u)
        return values(fr, iso.An_partials(fr.u))

    def with_partials(fr):
        d = stencil_steps(fr.u, patch.domain)
        An_partials = fd_stencil_columns(lambda points: iso.An(patch.frame(points)),
                                         fr.u, patch.domain)
        stencil = values(patch.frame(stencil_points(fr.u, d)), An_partials)
        partials = {"D" + k: stencil_partials(stencil[k], d) for k in _STENCIL_FIELDS}
        fields = values(fr, partials["Dp"])
        fields.update(partials)
        fields.update({
            "dn": fr.shape_op @ fr.jac,  # chart partials of the normal
            "dgamma": thick.gamma_d(fr.u),
            "Dgamma_n": gamma_n_partials(fr, thick),
            "DV": V.d1(fr.u),
        })
        return fields

    nodes = quad.frame.u
    at_nodes = with_partials(quad.frame)

    def stored_or(compute):
        def at(u):
            u = np.asarray(u, dtype=float)
            if u.shape == nodes.shape and np.array_equal(u, nodes):
                return at_nodes
            return compute(u)
        return at

    return RecoveryData(patch=patch, thick=thick, limit=at_nodes["limit"],
                        values_at=stored_or(values_at),
                        partials_at=stored_or(lambda u: with_partials(patch.frame(u))))


def build_recovery(data, h, e_h):
    """Assemble the recovery deformation y^h from the scene's RecoveryData.

    Requires h small enough that Id + h t Pi stays orientation-preserving
    through the thickness.  `evaluate(u, t)` and `gradient(u, t)` broadcast
    u of shape (..., 2) against t; `gradient` also returns det(Id + h t Pi),
    the volume factor of the energy, from the same offset jacobian.
    """
    if not (0.0 < h < 1.0):
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    if e_h <= 0.0:
        raise ParameterError("e_h must be positive")
    _check_thin_shell(data, h)
    sq = float(np.sqrt(e_h))

    def coefficients(x, gamma_n, V, w, n, p, xi, d0, d1):
        # (a0, a1, a2) from the fields, or their chart partials from the fields' partials
        return (x + (0.5 * h) * gamma_n + (sq / h) * V + sq * w,
                h * n + sq * p + (h * sq) * (d0 - xi), (h * sq) * d1)

    def t_coefficients(pd, t):
        # s and (a0, a1, a2) at the points of a RecoveryData bundle
        fr, gamma = pd["fr"], pd["gamma"]
        return (np.asarray(t, dtype=float) - 0.5 * gamma,
                *coefficients(fr.x, gamma[..., None] * fr.n, pd["V"], pd["w"], fr.n,
                              pd["p"], pd["xi"], pd["d0"], pd["d1"]))

    def evaluate(u, t):
        s, a0, a1, a2 = t_coefficients(data.values_at(u), t)
        s = s[..., None]
        return a0 + s * a1 + (0.5 * s * s) * a2

    def gradient(u, t):
        pd = data.partials_at(u)
        fr = pd["fr"]
        s, _, a1, a2 = t_coefficients(pd, t)
        Da0, Da1, Da2 = coefficients(
            fr.jac, pd["Dgamma_n"], pd["DV"], pd["Dw"], pd["dn"], pd["Dp"], pd["Dxi"],
            pd["Dd0"], pd["Dd1"])
        dy_ds = a1 + s[..., None] * a2
        sm = s[..., None, None]  # s against (3, 2) chart partials
        # column i: chart partial d/du_i of y^h; d s/du_i = -(1/2) d(g2-g1)/du_i
        Y2 = Da0 + sm * Da1 + (0.5 * sm * sm) * Da2 - 0.5 * outer(dy_ds, pd["dgamma"])
        M, det = offset_jacobian(fr, h * np.asarray(t, dtype=float))
        MJ = M @ fr.jac
        # [MJ, n]^-1 has rows g_t^-1 (MJ)^T and n^T, as n is normal to MJ;
        # g_t = (MJ)^T MJ has det(Id + h t Pi)^2 det g, as Id + h t Pi fixes n
        dual = inv2(transpose(MJ) @ MJ, (det * fr.sqrt_det_metric) ** 2) @ transpose(MJ)
        return Y2 @ dual + outer(dy_ds / h, fr.n), det

    return RecoveryDeformation(h=float(h), e_h=float(e_h), patch=data.patch,
                               thick=data.thick, evaluate=evaluate,
                               gradient=gradient)


def _check_thin_shell(data, h):
    """Raise ThicknessError unless every principal factor 1 + h t k of
    Id + h t Pi is positive for t in [-g1, g2] at every quadrature node.

    Each factor is affine in t, so its ends cover the segment;
    offset_jacobian checks both factors, not only their product.
    """
    fr = data.limit.frame
    offset_jacobian(fr, h * np.stack([-data.thick.g1.value(fr.u), data.thick.g2.value(fr.u)]))


def so3_distance(E):
    """Distance |sigma - 1| from SO(3) of each 3x3 matrix F with Green strain E.

    E = green_strain(F) over leading batch axes.  sigma are the singular
    values of F, read off the eigenvalues e of E as
    sigma - 1 = 2e / (1 + sqrt(1 + 2e)), which does not cancel near SO(3).
    The eigenvalues come from the trigonometric closed form for symmetric
    3x3 matrices, elementwise over the batch: near a double eigenvalue each
    one is accurate only to about sqrt(eps) of the spread of E, but the
    distance is a symmetric function of them and keeps full accuracy.
    Exact for E = 0; NaN where E has a NaN.
    """
    a, b, c = E[..., 0, 0], E[..., 1, 1], E[..., 2, 2]
    d, e, f = E[..., 0, 1], E[..., 0, 2], E[..., 1, 2]
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0)
    # (E - q Id)/p has unit spread; an isotropic E (p = 0) keeps r = 0
    s = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
    a, b, c, d, e, f = a * s, b * s, c * s, d * s, e * s, f * s
    r = 0.5 * (a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e))
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    eig = q[..., None] + 2.0 * p[..., None] * np.cos(phi[..., None] + _EIG_ANGLES)
    sm1 = 2.0 * eig / (1.0 + np.sqrt(np.maximum(1.0 + 2.0 * eig, 0.0)))
    return np.sqrt((sm1 * sm1).sum(axis=-1))


def eval_shell_energy(rec, material, squad, trule):
    """Rescaled 3D energy E_h = int_S int_{-g1}^{g2} W(grad y) det(Id + h s Pi) ds dS.

    The substitution t = h s absorbs the 1/h of the energy scaling.  Raises
    EnergyBlowupError naming the node of largest distance from SO(3) when
    the gradient leaves the declared neighborhood of SO(3).
    """
    u = squad.frame.u
    t, wt = trule.across(rec.thick, u)  # (T, N)
    F, det = rec.gradient(u, t)
    E = green_strain(F)
    dist = so3_distance(E)
    Wv = material.evaluate(E)
    dist = np.where(np.isfinite(Wv), dist, np.inf)
    if np.any(dist > BLOWUP_DISTANCE):
        k, i = np.unravel_index(np.argmax(dist), dist.shape)
        raise EnergyBlowupError(
            f"gradient at distance {dist[k, i]:.3e} from SO(3) at "
            f"u={tuple(u[i].tolist())}, t={t[k, i]:.4f}", u=u[i], t=t[k, i])
    total = float(np.sum(squad.weights * wt * Wv * det))
    return ShellEnergyValue(E_h=total, normalized=total / rec.e_h,
                            so3_distance=float(np.max(dist)),
                            min_det=float(np.min(det)))


def shell_energy_tangential_lower_bound(rec, material, squad, trule):
    """Quadrature of the tangential Q2 part of the energy integrand, over e_h.

    Pointwise (1/2) Q2((E)_tan) <= (1/2) Q3(E) = W for quadratic-in-strain
    densities, so this never exceeds the normalized energy; the gap closes
    as h -> 0.
    """
    fr = squad.frame
    q2 = reduce_q2(material.q3, fr.n, fr.t1, fr.t2)
    u = fr.u
    t, wt = trule.across(rec.thick, u)
    F, det = rec.gradient(u, t)
    integrand = squad.weights * wt * 0.5 * q2.apply_tangential(fr.tan2(green_strain(F))) * det
    return float(np.sum(integrand)) / rec.e_h


def averaged_displacement(rec, trule):
    """The scaled transversal average (h/sqrt(e_h)) avg_t [y^h(x+tn) - (x+htn)].

    Returns a chart function u -> R^3 on the patch of `rec`, averaged through
    its thickness and broadcasting over leading batch axes of u.
    """
    scale = rec.h / np.sqrt(rec.e_h)
    patch, thick = rec.patch, rec.thick

    def vh(u):
        u = np.asarray(u, dtype=float)
        x = patch.chart(u)
        n = patch.normal(u)
        t, wt = trule.across(thick, u)
        offset = rec.evaluate(u, t) - (x + (rec.h * t)[..., None] * n)
        acc = np.sum(wt[..., None] * offset, axis=0)
        return scale * acc / thick.total(u)[..., None]

    return vh


def averaged_displacement_sym_grad(rec, trule, frame):
    """(1/h) sym tangential gradient of the averaged displacement at a frame."""
    vh = averaged_displacement(rec, trule)
    return tangential_strain(frame, fd_columns(vh, frame.u, rec.patch.domain)) / rec.h


def discrete_l2_distance(field_a, field_b, squad):
    """Quadrature-weighted L^2 distance between two chart functions u -> R^3.

    Both functions are called once, on the (N, 2) node array.
    """
    u = squad.frame.u
    diff = np.asarray(field_a(u)) - np.asarray(field_b(u))
    return float(np.sqrt(np.sum(squad.weights * (diff * diff).sum(axis=-1))))
