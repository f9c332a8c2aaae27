"""Batch-shape convention of fields and patches: an (N, 2) batch of chart
points gives the stacked results of the N single-point (2,) calls."""

import numpy as np
import pytest

import shellgamma as sg
from shellgamma.errors import DomainError
from shellgamma.fields import (fd_columns, fd_partial, fd_stencil_columns, stencil_points,
                               stencil_steps)

GENERIC_W = [(0.4, 1.3, 0.2, 0.9, 0.5),
             (0.3, 0.7, 1.1, 1.4, 0.3),
             (0.5, 1.1, 0.4, 0.8, 1.2)]

PATCHES = {
    "plate": lambda: sg.make_builtin_patch("plate"),
    "sphere_cap": lambda: sg.make_builtin_patch("sphere_cap", radius=1.0,
                                                cap_angle=np.pi / 3),
    "cylinder": lambda: sg.make_builtin_patch("cylinder", radius=2.0, height=1.0),
    "torus_patch": lambda: sg.make_builtin_patch("torus_patch", major_radius=2.0,
                                                 minor_radius=0.5),
}


def interior_points(domain, count, seed=0, margin=0.05):
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = domain
    s = rng.uniform(margin, 1.0 - margin, size=(count, 2))
    return np.column_stack([a1 + s[:, 0] * (b1 - a1), a2 + s[:, 1] * (b2 - a2)])


def assert_batch_matches_points(batched, singles, rtol=1e-14):
    """Batched result equals the stacked single-point results, relative to its scale."""
    stacked = np.stack([np.asarray(s, dtype=float) for s in singles])
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == stacked.shape
    scale = np.max(np.abs(stacked))
    assert np.max(np.abs(batched - stacked)) <= rtol * scale


def vector_families(patch):
    return {
        "zero": sg.zero_vector_field(patch.domain),
        "rigid": sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3)),
        "plate_sine": sg.plate_sine_field(0.8, 1, 2, patch.domain),
        "trig": sg.trig_vector_field(GENERIC_W, patch.domain),
        "sum": sg.sum_fields(sg.plate_sine_field(0.8, 1, 2, patch.domain),
                             sg.trig_vector_field(GENERIC_W, patch.domain)),
    }


def scalar_families(domain):
    return {
        "constant": sg.constant_scalar(0.4, domain),
        "affine": sg.affine_scalar(0.5, [0.04, -0.02], domain),
        "sine": sg.sine_scalar(0.5, 0.1, (1.3, 0.7), (0.2, 0.9), domain),
    }


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_batched_frame_equals_stacked_points(name):
    patch = PATCHES[name]()
    u = interior_points(patch.domain, 12)
    batch = patch.frame(u)
    singles = [patch.frame(p) for p in u]
    for field in ("u", "x", "jac", "metric", "metric_inv", "sqrt_det_metric",
                  "t1", "t2", "n", "shape_op"):
        assert_batch_matches_points(getattr(batch, field),
                                    [getattr(fr, field) for fr in singles])
    assert_batch_matches_points(patch.principal_curvatures(u),
                                [patch.principal_curvatures(p) for p in u])
    # any leading batch shape works, and indexing the batch gives the single frame
    grid = patch.frame(u.reshape(3, 4, 2))
    assert grid.x.shape == (3, 4, 3) and grid.shape_op.shape == (3, 4, 3, 3)
    assert np.array_equal(grid[1, 2].x, batch[6].x)


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_batched_offset_jacobian_equals_stacked_points(name):
    patch = PATCHES[name]()
    u = interior_points(patch.domain, 12, seed=1)
    t = np.linspace(-0.2, 0.2, 12)
    M, det = sg.offset_jacobian(patch.frame(u), t)
    singles = [sg.offset_jacobian(patch.frame(p), s) for p, s in zip(u, t)]
    assert_batch_matches_points(M, [m for m, _ in singles])
    assert_batch_matches_points(det, [d for _, d in singles])


@pytest.mark.parametrize("family", ["zero", "rigid", "plate_sine", "trig", "sum"])
@pytest.mark.parametrize("name", sorted(PATCHES))
def test_batched_vector_family_equals_stacked_points(name, family):
    patch = PATCHES[name]()
    field = vector_families(patch)[family]
    u = interior_points(patch.domain, 10, seed=2)
    for deriv in ("value", "d1"):
        f = getattr(field, deriv)
        assert_batch_matches_points(f(u), [f(p) for p in u])


@pytest.mark.parametrize("family", ["constant", "affine", "sine"])
def test_batched_scalar_family_equals_stacked_points(family):
    domain = ((0.0, 1.0), (0.0, 2.0))
    field = scalar_families(domain)[family]
    u = interior_points(domain, 10, seed=3)
    assert_batch_matches_points(field.value(u), [field.value(p) for p in u])
    assert_batch_matches_points(field.d(u), [field.d(p) for p in u])


def test_batched_fd_partial_near_the_boundary_uses_each_points_step():
    # points closer to the boundary than the stencil get their own shrunken step
    domain = ((0.0, 1.0), (0.0, 1.0))
    field = sg.trig_vector_field(GENERIC_W, domain)
    u = np.array([[1e-4, 0.5], [0.5, 0.5], [0.9995, 0.3], [0.2, 2e-5], [0.7, 0.99999]])
    for axis in (0, 1):
        batched = fd_partial(field.value, u, axis, 1e-3, domain)
        singles = [fd_partial(field.value, p, axis, 1e-3, domain) for p in u]
        assert_batch_matches_points(batched, singles)
        exact = field.d1(u)[..., axis]
        assert np.max(np.abs(batched - exact)) <= 1e-9


def test_batched_fd_partial_rejects_points_on_the_boundary():
    domain = ((0.0, 1.0), (0.0, 1.0))
    field = sg.trig_vector_field(GENERIC_W, domain)
    u = np.array([[0.5, 0.5], [0.0, 0.5], [1.0, 0.2]])
    with pytest.raises(DomainError, match=r"\(0\.0, 0\.5\)"):
        fd_partial(field.value, u, 0, 1e-3, domain)


def quartic(seed):
    """A random R^3-valued polynomial of total degree 4 in u, and its chart partials."""
    i, j = np.indices((5, 5))
    coeffs = np.random.default_rng(seed).normal(size=(3, 5, 5)) * (i + j <= 4)
    poly = np.polynomial.polynomial

    def value(u):
        return np.stack([poly.polyval2d(u[..., 0], u[..., 1], c) for c in coeffs], axis=-1)

    def partials(u):
        return np.stack([np.stack([poly.polyval2d(u[..., 0], u[..., 1], poly.polyder(c, axis=ax))
                                   for ax in (0, 1)], axis=-1) for c in coeffs], axis=-2)

    return value, partials


@pytest.mark.parametrize("seed", range(3))
def test_stencil_grid_is_exact_on_quartic_polynomials(seed):
    # the 4th-order stencil differentiates quartics exactly, so only round-off is left
    domain = ((0.0, 1.0), (-1.0, 1.0))
    value, partials = quartic(seed)
    u = interior_points(domain, 9, seed=seed)
    D = fd_stencil_columns(value, u, domain)
    points = stencil_points(u, stencil_steps(u, domain))
    assert D.shape == (2, 4, 9, 3, 2) and points.shape == (2, 4, 9, 2)
    assert np.max(np.abs(D - partials(points))) <= 1e-9


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_stencil_grid_matches_fd_columns_at_the_stencil_points(name):
    # the shared grid against differentiating A n afresh at each stencil point
    patch = PATCHES[name]()
    if name == "plate":
        V = sg.plate_sine_field(0.8, 1, 2, patch.domain)
    else:
        V = sg.rigid_field(patch, (0.3, -0.2, 0.4), (0.1, 0.2, -0.3))
    quad = sg.surface_quadrature(patch, 4)
    iso = sg.build_isometry(patch, V, quad=quad)

    def An(points):
        return iso.An(patch.frame(points))

    u = quad.frame.u
    grid = fd_stencil_columns(An, u, patch.domain)
    points = stencil_points(u, stencil_steps(u, patch.domain))
    nested = np.stack([[fd_columns(An, p, patch.domain) for p in axis] for axis in points])
    assert grid.shape == nested.shape == (2, 4, len(u), 3, 2)
    assert np.max(np.abs(grid - nested)) <= 1e-9


def test_stencil_grid_near_the_boundary_uses_each_points_step():
    # points within 5 steps of an edge get their own step, a fifth of the margin
    domain = ((0.0, 1.0), (0.0, 1.0))
    field = sg.trig_vector_field(GENERIC_W, domain)
    u = np.array([[1e-4, 0.5], [0.5, 0.5], [0.9995, 0.3], [0.2, 2e-5], [0.7, 0.99999]])
    d = stencil_steps(u, domain)
    assert np.allclose(d, [[2e-5, 1e-3, 1e-4, 1e-3, 1e-3],
                           [1e-3, 1e-3, 1e-3, 4e-6, 2e-6]], rtol=1e-9, atol=0.0)
    batched = fd_stencil_columns(field.value, u, domain)
    singles = [fd_stencil_columns(field.value, p, domain) for p in u]
    assert_batch_matches_points(np.moveaxis(batched, 2, 0), singles)
    exact = field.d1(stencil_points(u, d))
    assert np.max(np.abs(batched - exact)) <= 1e-9


def test_fd_columns_calls_f_once_on_the_shared_stencil():
    # one call on the stencil points, each point with its own clamped step
    domain = ((0.0, 1.0), (0.0, 1.0))
    field = sg.trig_vector_field(GENERIC_W, domain)
    u = np.array([[1e-4, 0.5], [0.5, 0.5], [0.9995, 0.3], [0.2, 2e-5], [0.7, 0.99999]])
    calls = []

    def value(points):
        calls.append(points.shape)
        return field.value(points)

    D = fd_columns(value, u, domain)
    assert calls == [(2, 4, 5, 2)]
    assert_batch_matches_points(D, [fd_columns(field.value, p, domain) for p in u])
    assert np.max(np.abs(D - field.d1(u))) <= 1e-9
    with pytest.raises(DomainError, match=r"\(0\.0, 0\.5\)"):
        fd_columns(field.value, np.array([[0.5, 0.5], [0.0, 0.5]]), domain)


def test_stencil_grid_rejects_points_on_the_boundary():
    domain = ((0.0, 1.0), (0.0, 1.0))
    field = sg.trig_vector_field(GENERIC_W, domain)
    u = np.array([[0.5, 0.5], [0.0, 0.5], [1.0, 0.2]])
    with pytest.raises(DomainError, match=r"\(0\.0, 0\.5\)"):
        fd_stencil_columns(field.value, u, domain)


def test_frame_names_the_first_point_outside_the_chart():
    plate = sg.make_builtin_patch("plate")
    u = np.array([[0.5, 0.5], [0.2, 1.5], [-0.3, 0.1]])
    with pytest.raises(DomainError, match=r"u=\(0\.2, 1\.5\)"):
        plate.frame(u)
