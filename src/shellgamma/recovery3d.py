"""The explicit recovery deformation, its energy, and averaged-displacement diagnostics.

The deformation is y^h = a0 + s a1 + (s^2/2) a2 with s = t - (g2-g1)/2,
t in (-g1(x), g2(x)), physical offset h*t, a0 = x + (h/2)(g2-g1) n +
(sqrt(e_h)/h) V + sqrt(e_h) w, a1 = h n + sqrt(e_h) (A n + h (d0 - xi)) and
a2 = h sqrt(e_h) d1, xi the normal part of grad w.  These ingredients do not
depend on h, so `recovery_data` builds them once, at one point array;
`build_recovery` writes the t-coefficients once, as a linear map that also
takes the chart partials of the ingredients to those of a0, a1, a2, and the
chain rule through the frame {(Id + h t Pi) tau_1, (Id + h t Pi) tau_2, n}
gives grad y^h, at those points only.

A n and the chart partials DV of V are read once, on a grid of 33 points
per point (`fields.stencil_grid`) from its ChartMetric alone, which gives
the chart partials of A n at the points and their stencil points.  The
grid's first nine rows, the points and then their stencil points, hand A n
and DV at that (9, ...) union, and the ChartMetric at the stencil points,
with its frame products, to one bundle frame, which concatenates every field
of the frames at the points and at their stencil points, their products T,
g^-1 J^T and Pi J included, but the surface points x and sqrt(det g): no
reader of the bundle takes them, so the chart is not evaluated at the
stencil points and both are NaN in the bundle.  The bundle is evaluated
once: the limit's record (`kinematics.limit_fields`: the frame, the chart
partials of w and of (g2-g1) n, A and both tensors), the Q2 reduction
beside it, xi, d0 and d1, whose partials at the points are 4th-order
central differences of the stencil values.  g2-g1, V and w are read at
the points alone.  The limit functional reads `RecoveryData.limit` and
`.q2`.

Each array lives only as long as a reader needs it, which keeps the
transient peak of a recovery low: the grid's ChartMetric is freed once the
stencil frame products are formed from it, the 33-point A n and DV once the
partials of A n are taken and their first nine rows copied out, and the stencil
fields once the bundle frame has copied them in, before the bundle is
evaluated.

Everything broadcasts over leading batch axes: the energies read y^h once
per schedule over (H, T, N), the h, then the transversal and the surface
nodes, so that arrays over the surface nodes broadcast.  That one pass also
gives the energy everything else it needs: `gradient` returns det(Id + h t Pi)
from `geometry.offset_determinant`, 1 + h t (tr Pi + h t sigma2(Pi)) from the
per-node invariants of Pi, with its own thin-shell check at every t it is
asked for and no 3x3 matrix Id + h t Pi over (H, T, N), and inverts the
offset frame (Id + h t Pi) J = J + h t Pi J through its 2x2
tangential metric g + h t (b + b^T) + (h t)^2 c, from b = J^T Pi J and
c = (Pi J)^T Pi J formed once per `build_recovery`, with no 3x3 product over
(H, T, N); and the Green strain, formed once per schedule,
feeds both the density and the distance from SO(3) of the blow-up gate,
read off its eigenvalues in closed form with no SVD.  A transversal sum
sum_t wt y^h(t), which the load work and the averaged displacement read, is
a0 m0 + a1 m1 + a2 m2 / 2 from the moments m_k = sum_t wt s^k, the same
discrete sum in another order, with no (T, N, 3) array.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnergyBlowupError, ParameterError
from .fields import (grid_partials, matvec, outer, stencil_grid, stencil_partials, stencil_points,
                     stencil_steps, transpose)
from .fields import fd_partial  # noqa: F401  (perfbench/tracing.py wraps this import site)
from .geometry import NodeFrame, inv2, offset_determinant, offset_jacobian
from .kinematics import LimitFields, limit_fields, tangential_strain
from .material import QuadForm2, green_strain, reduce_q2

BLOWUP_DISTANCE = 0.5
# phase shifts of the three roots in the trigonometric eigenvalue formula
_EIG_ANGLES = np.array([0.0, 2.0, 4.0]) * (np.pi / 3.0)


def build_d_fields(fields, q2, kappa):
    """The two correction fields of the recovery deformation at the points of `fields`.

    d0 completes the stretching tensor to its optimal 3D extension (plus the
    frame terms from A^2 and the thickness gradient); d1 does the same for
    the bending tensor.  Both use the minimizer map c of q2, the Q2
    reduction in the tangent frames of `fields`.
    """
    fr, A = fields.frame, fields.A
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
    """The h-independent ingredients of the recovery deformation at one point array.

    `limit` is the LimitFields record of the points (its frame is the frame
    they were built at) and `q2` the Q2 reduced in their tangent frames;
    `fields` holds (g2-g1), V, w, xi, d0, d1 and the chart partials of all
    but V and w there.  `build_recovery` reads y^h and its gradient at
    exactly these points, and `eval_I` reads `limit` and `q2`.
    """

    thick: object
    limit: LimitFields
    q2: QuadForm2
    fields: dict


@dataclass(frozen=True)
class RecoveryDeformation:
    h: float    # or the (H,) schedule
    e_h: float  # or its (H,) values
    frame: NodeFrame  # the points of y^h
    thick: object
    evaluate: Callable  # t -> R^3 at the frame's points, t in (-g1, g2); t broadcasts against them
    # (t, wt) -> sum over the leading transversal axis of wt y^h(t), at the frame's points
    transversal_sum: Callable
    # t -> (3x3 deformation gradient on the physical shell, det(Id + h t Pi)) there;
    # raises ThicknessError, naming the worst point, where a t leaves the thin shell
    gradient: Callable


@dataclass(frozen=True)
class ShellEnergyValue:  # one entry per h on a schedule
    E_h: float
    normalized: float      # E_h / e_h
    so3_distance: float    # largest distance of grad y^h from SO(3) at the quadrature points
    min_det: float         # smallest det(Id + h t Pi) at the quadrature points


def recovery_data(patch, material, iso, w, thick, kappa, frame):
    """Build the fields of the recovery deformation that do not depend on h.

    w is the second-order displacement with finite strain B_tan = sym grad w;
    the record of `limit_fields` reads its chart partials once per point
    array, and they give B_tan and xi.  The fields are built once at the
    points of `frame`, a NodeFrame of any batch shape (a study passes its
    quadrature's frame); the result serves `build_recovery` for every h of
    a schedule and `eval_I` through its `limit` and `q2`.
    """
    # A n and DV on the grid; its rows 0..8 are the points and their stencil points
    grid, d = stencil_grid(frame.u, patch.domain)
    metric = patch.metric(grid)
    An, DV = iso.An(metric)
    st = metric[np.arange(1, 9)]  # an array index: copies, so the grid's record is freed
    st = {**vars(st), **patch.frame_products(st)}  # the stencil points' frame fields
    del metric  # the grid's record, 33 points per point: freed before the partials
    An_partials = grid_partials(An, d)
    An, DV = An[:9].copy(), DV[:9].copy()  # the 33-point values, freed before the bundle
    # one bundle over the points (entry 0) and their stencil points; no reader of the
    # bundle takes its x or sqrt(det g), so they are not evaluated: NaN, never copied
    fr = NodeFrame(**{k: np.concatenate([v[None], st[k]]) if k in st
                      else np.broadcast_to(np.nan, (9,) + v.shape)
                      for k, v in vars(frame).items()})
    del st  # the stencil fields, copied into the bundle
    lf = limit_fields(iso, w, thick, kappa, fr, An, DV, An_partials)
    q2 = reduce_q2(material.q3, fr.n, fr.tangents)
    d0, d1 = build_d_fields(lf, q2, kappa)
    # lf.An is the first-order rotation of the normal; xi . tau = n . d_tau w
    bundle = {"xi": fr.grad3(matvec(transpose(lf.Dw), fr.n)), "d0": d0, "d1": d1}
    fields = {k: v[0].copy() for k, v in bundle.items()}
    fields.update({"D" + k: stencil_partials(v[1:].reshape((2, 4) + fields[k].shape), d)
                   for k, v in bundle.items()},
                  gamma=thick.gamma(frame.u), V=iso.displacement.value(frame.u),
                  w=w.value(frame.u), Dp=An_partials[0].copy(),
                  dgamma=thick.gamma_d(frame.u))
    return RecoveryData(thick=thick, limit=dataclasses.replace(_first(lf), frame=frame),
                        q2=_first(q2), fields=fields)


def _first(record):
    """Entry 0 of each array field of a record, as a copy."""
    return dataclasses.replace(record, **{k: v[0].copy() for k, v in vars(record).items()
                                          if isinstance(v, np.ndarray)})


def check_points(rec, u, what):
    """Raise ParameterError unless the recovery `rec` was built at the chart points u."""
    if rec.frame.u is not u and not np.array_equal(rec.frame.u, u):
        raise ParameterError(f"the recovery was built at other chart points than the {what}")


def _offset_frame(frame):
    """ht -> ((MJ)^T, g_t) of the offset frame MJ = (Id + ht Pi) J at a frame's points.

    MJ = J + ht Pi J is linear in the offset ht, and its metric
    g_t = (MJ)^T MJ = g + ht (b + b^T) + ht^2 c is quadratic, with the 2x2
    fields b = J^T Pi J and c = (Pi J)^T Pi J formed here once; ht broadcasts
    against the frame's batch axes.
    """
    Jt, dnt = transpose(frame.jac), transpose(frame.dn)
    b = Jt @ frame.dn
    b = b + transpose(b)
    c = dnt @ frame.dn

    def at(ht):
        ht = np.asarray(ht, dtype=float)[..., None, None]
        return Jt + ht * dnt, frame.metric + ht * b + (ht * ht) * c

    return at


def build_recovery(data, h, e_h):
    """Assemble the recovery deformation y^h from the RecoveryData of a point array.

    h and e_h are scalars, or a schedule as 1-D arrays, which adds a leading
    axis H to what `evaluate` and `gradient` return.  Requires h small
    enough that Id + h t Pi stays orientation-preserving through the
    thickness.  `evaluate(t)` and `gradient(t)` read y^h at the points of
    the data, t broadcasting against them; `gradient` also returns
    det(Id + h t Pi), the volume factor of the energy, from
    `offset_determinant`.  `transversal_sum(t, wt)` sums wt y^h(t) over the
    leading axis of a (T, ...) grid t from the transversal moments of wt.
    """
    h, e_h = np.asarray(h, dtype=float), np.asarray(e_h, dtype=float)
    if not np.all((0.0 < h) & (h < 1.0)):
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    if np.any(e_h <= 0.0):
        raise ParameterError("e_h must be positive")
    lf, pd = data.limit, data.fields
    fr = lf.frame
    # thin-shell guard: both factors 1 + h t k of Id + h t Pi positive at t = -g1,
    # g2 at every point; monotone in h, so a decreasing schedule fails at its first h
    ends = np.stack([-data.thick.g1.value(fr.u), data.thick.g2.value(fr.u)])
    offset_jacobian(fr, h.reshape(h.shape + (1,) * ends.ndim) * ends)
    sq = np.sqrt(e_h)
    offset_frame = _offset_frame(fr)

    gamma = pd["gamma"]

    def scaled(ndim):
        # h and sqrt(e_h) with one trailing axis per batch axis of an ndim-dim t
        shape = h.shape + (1,) * max(ndim, fr.u.ndim - 1)
        return h.reshape(shape), sq.reshape(shape)

    def coefficients(h, sq, x, gamma_n, V, w, n, p, xi, d0, d1):
        # (a0, a1, a2) from the fields, or their chart partials from the fields' partials
        return (x + (0.5 * h) * gamma_n + (sq / h) * V + sq * w,
                h * n + sq * p + (h * sq) * (d0 - xi), (h * sq) * d1)

    def t_coefficients(t, h, sq):
        # s and (a0, a1, a2) at the points
        return (np.asarray(t, dtype=float) - 0.5 * gamma,
                *coefficients(h[..., None], sq[..., None], fr.x, gamma[..., None] * fr.n,
                              pd["V"], pd["w"], fr.n, lf.An, pd["xi"], pd["d0"], pd["d1"]))

    def evaluate(t):
        s, a0, a1, a2 = t_coefficients(t, *scaled(np.ndim(t)))
        s = s[..., None]
        return a0 + s * a1 + (0.5 * s * s) * a2

    def transversal_sum(t, wt):
        # sum_t wt y^h(t) = a0 m0 + a1 m1 + a2 m2 / 2, with the moments m_k = sum_t wt s^k
        s, a0, a1, a2 = t_coefficients(t, *scaled(np.ndim(t) - 1))
        ws = wt * s
        m0, m1, m2 = (np.sum(m, axis=0)[..., None] for m in (wt, ws, ws * s))
        return a0 * m0 + a1 * m1 + (0.5 * m2) * a2

    def gradient(t):
        hb, sb = scaled(np.ndim(t))
        s, _, a1, a2 = t_coefficients(t, hb, sb)
        Da0, Da1, Da2 = coefficients(
            hb[..., None, None], sb[..., None, None], fr.jac, lf.Dgamma_n, lf.DV, lf.Dw,
            fr.dn, pd["Dp"], pd["Dxi"], pd["Dd0"], pd["Dd1"])
        dy_ds = a1 + s[..., None] * a2
        sm = s[..., None, None]  # s against (3, 2) chart partials
        # column i: chart partial d/du_i of y^h; d s/du_i = -(1/2) d(g2-g1)/du_i
        Y2 = Da0 + sm * Da1 + (0.5 * sm * sm) * Da2 - 0.5 * outer(dy_ds, pd["dgamma"])
        ht = hb * np.asarray(t, dtype=float)
        det = offset_determinant(fr, ht)  # its own thin-shell check, at every t asked for
        MJt, g_t = offset_frame(ht)
        # [MJ, n]^-1 has rows g_t^-1 (MJ)^T and n^T, as n is normal to MJ;
        # g_t = (MJ)^T MJ has det(Id + h t Pi)^2 det g, as Id + h t Pi fixes n
        dual = inv2(g_t, (det * fr.sqrt_det_metric) ** 2) @ MJt
        return Y2 @ dual + outer(dy_ds / hb[..., None], fr.n), det

    return RecoveryDeformation(h=h[()], e_h=e_h[()], frame=fr, thick=data.thick,
                               evaluate=evaluate, transversal_sum=transversal_sum,
                               gradient=gradient)


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
    the gradient leaves the declared neighborhood of SO(3): on a schedule,
    at the first h that does, by index, with the energies of every h.
    """
    u = squad.frame.u
    check_points(rec, u, "quadrature nodes")
    t, wt = trule.across(rec.thick, u)  # (T, N)
    F, det = rec.gradient(t)
    E = green_strain(F)
    Wv = material.evaluate(E)
    dist = np.where(np.isfinite(Wv), so3_distance(E), np.inf)
    per_h = np.shape(rec.h) + (-1,)
    total = np.sum((squad.weights * wt * Wv * det).reshape(per_h), axis=-1)
    value = ShellEnergyValue(E_h=total[()], normalized=(total / rec.e_h)[()],
                             so3_distance=np.max(dist.reshape(per_h), axis=-1)[()],
                             min_det=np.min(det.reshape(per_h), axis=-1)[()])
    blown = np.flatnonzero(value.so3_distance > BLOWUP_DISTANCE)
    if blown.size:
        j = (blown[0],) if np.ndim(rec.h) else ()  # the first h that blew up
        k, i = np.unravel_index(np.argmax(dist[j]), dist[j].shape)
        raise EnergyBlowupError(
            f"gradient at distance {dist[j][k, i]:.3e} from SO(3) at "
            f"u={tuple(u[i].tolist())}, t={t[k, i]:.4f}", u=u[i], t=t[k, i],
            index=int(j[0]) if j else None, energy=value)
    return value


def shell_energy_tangential_lower_bound(rec, material, squad, trule):
    """Quadrature of the tangential Q2 part of the energy integrand, over e_h.

    Pointwise (1/2) Q2((E)_tan) <= (1/2) Q3(E) = W for quadratic-in-strain
    densities, so this never exceeds the normalized energy; the gap closes
    as h -> 0.  One value per h on a schedule.
    """
    fr = squad.frame
    check_points(rec, fr.u, "quadrature nodes")
    q2 = reduce_q2(material.q3, fr.n, fr.tangents)
    t, wt = trule.across(rec.thick, fr.u)
    F, det = rec.gradient(t)
    integrand = squad.weights * wt * 0.5 * q2.apply_tangential(fr.tan2(green_strain(F))) * det
    return (np.sum(integrand.reshape(np.shape(rec.h) + (-1,)), axis=-1) / rec.e_h)[()]


def averaged_displacement(rec, trule):
    """The scaled transversal average (h/sqrt(e_h)) avg_t [y^h(x+tn) - (x+htn)].

    Returns the (..., 3) values at the points of `rec`, of a scalar h,
    averaged through the thickness, with y^h summed by `rec.transversal_sum`.
    A schedule of h is a ParameterError.
    """
    if np.ndim(rec.h):
        raise ParameterError(f"h must be a scalar for the averaged displacement, got {rec.h}")
    fr, thick = rec.frame, rec.thick
    t, wt = trule.across(thick, fr.u)
    # sum_t wt [y^h(t) - (x + h t n)]
    acc = (rec.transversal_sum(t, wt) - np.sum(wt, axis=0)[..., None] * fr.x
           - (rec.h * np.sum(wt * t, axis=0))[..., None] * fr.n)
    return (rec.h / np.sqrt(rec.e_h)) * acc / thick.total(fr.u)[..., None]


def averaged_displacement_sym_grad(rec, trule, frame, domain):
    """(1/h) sym tangential gradient of the averaged displacement at a frame.

    `rec` must be built at `fields.stencil_points(frame.u, d)`, d the
    `fields.stencil_steps(frame.u, domain)`, whose values it differentiates.
    """
    d = stencil_steps(frame.u, domain)
    check_points(rec, stencil_points(frame.u, d), "stencil points of the frame")
    vh = averaged_displacement(rec, trule)
    return tangential_strain(frame, stencil_partials(vh, d)) / rec.h


def discrete_l2_distance(a, b, squad):
    """Quadrature-weighted L^2 distance between two (N, 3) arrays of values at the nodes."""
    diff = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.sum(squad.weights * (diff * diff).sum(axis=-1))))
