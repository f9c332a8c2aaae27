"""Configuration-driven convergence studies with machine-readable reports.

A study config is a JSON document, read by `load_config` from a builtin
scenario name or a file.  Each section that names a kind (patch, scalar
field, vector family, load, material, e_h mode, study) is parsed and built
from one table per section; a load is built as its values at the
quadrature nodes, once per scene.  Parsing materializes every default, so
the returned config is fully explicit; unknown keys, non-finite numbers,
non-integral counts and patch values that geometry refuses are rejected
with their key path.  Reports are a CSV table (one row per h, fixed header) plus a
sidecar summary of fitted orders, extrapolation, and pass/fail, written with
shortest-round-trip float formatting so identical configs produce identical
bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import fields as fieldlib
from .errors import ConfigError, NotAnIsometryError, ParameterError, ShellGammaError
from .geometry import (DEFAULT_SURFACE_ORDER, DEFAULT_TRANSVERSAL_ORDER, PATCH_KINDS,
                       ThicknessPair, TransversalRule, make_builtin_patch,
                       surface_quadrature, validate_thickness)
from .kinematics import (bending_expansion_residual, build_isometry, expansion_data,
                         stretching_expansion_residual)
from .limit2d import eval_I, eval_J
from .loads import (action_form, davenport_matrix, eval_J_h, example_maximizer_set,
                    load_compatibility_residual, random_rotations,
                    rotation_actions, rotation_matrices, wahba_maximize)
from .material import (QuadForm3, isotropic_q2_closed_form, make_isotropic,
                       quadratic_energy, reduce_q2, relax_q2_brute_force)
from .recovery3d import build_recovery, eval_shell_energy, recovery_data

CSV_HEADER = ("h", "e_h", "E_h", "normalized", "I_limit", "rel_gap",
              "residual_stretch", "residual_bend", "status")

EXACT_RESIDUAL_FLOOR = 1e-13
# least R² of the gamma-limit gap fit against h; correct recoveries give
# >= 0.995, a 0.9*d0 recovery 0.75-0.85
GAP_R2_MIN = 0.98


# ---------------------------------------------------------------------------
# config schema: one table per section kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    study: str
    patch: dict
    thickness: dict
    material: dict
    fields: dict
    kappa: float
    e_h: dict
    h_schedule: tuple
    load: Optional[dict]
    quadrature: dict
    tolerances: dict
    seed: int
    output: str

    def e_of_h(self, h):
        return _E_H_MODES[self.e_h["mode"]].build(self.e_h, self.kappa, h)


_REQUIRED = object()


@dataclass(frozen=True)
class _Kind:
    """One kind a config section can name.

    params maps each key to (default or _REQUIRED, parser(value, key path));
    build makes the kind's object from its parsed spec (for a material, a
    StoredEnergy; for a study kind it runs the study, and params are its
    tolerances); q2_closed_form is a material's closed-form Q2 oracle,
    where it has one.
    """

    params: dict
    build: Optional[Callable] = None
    q2_closed_form: Optional[Callable] = None


def _join(path, key):
    return f"{path}.{key}" if path else key


def _require(cond, msg, path, *args):
    """Raise a ConfigError at `path` unless cond; only then is msg formatted with args."""
    if not cond:
        raise ConfigError(msg.format(*args), key_path=path)


def _object(v, path):
    _require(isinstance(v, dict), "expected a JSON object, got {!r}", path, v)
    return v


def _parse_params(spec, params, path):
    """Parse a JSON object against {key: (default, parser)}; defaults are parsed too."""
    spec = dict(_object(spec, path))
    out = {}
    for key, (default, parse) in params.items():
        value = spec.pop(key, default)
        key_path = _join(path, key)
        _require(value is not _REQUIRED, "missing required key", key_path)
        out[key] = parse(value, key_path)
    if spec:
        raise ConfigError(f"unknown keys {sorted(spec)}", key_path=path)
    return out


def _parse_kind(spec, table, tag, path):
    """Parse a section that names its kind under `tag`, as {tag: kind, **params}."""
    kind = _object(spec, path).get(tag, _REQUIRED)
    _require(kind is not _REQUIRED, "missing required key", _join(path, tag))
    if not (isinstance(kind, str) and kind in table):
        raise ConfigError(f"unknown {tag} {kind!r}; expected one of {sorted(table)}",
                          key_path=_join(path, tag))
    rest = {key: value for key, value in spec.items() if key != tag}
    return {tag: kind, **_parse_params(rest, table[kind].params, path)}


def _build(table, tag, spec, *context):
    return table[spec[tag]].build(spec, *context)


def _number(v, path):
    """A finite JSON number, as a float."""
    _require(isinstance(v, (int, float)) and not isinstance(v, bool)
             and abs(v) <= sys.float_info.max, "expected a finite number, got {!r}", path, v)
    return float(v)


def _bounded(lower, strict):
    def parse(v, path):
        v = _number(v, path)
        _require(v > lower if strict else v >= lower, "must be {} {}, got {}", path,
                 ">" if strict else ">=", lower, v)
        return v
    return parse


_positive = _bounded(0.0, strict=True)
_nonnegative = _bounded(0.0, strict=False)


def _count(minimum):
    def parse(v, path):
        x = _number(v, path)
        _require(x.is_integer() and x >= minimum, "expected an integer >= {}, got {!r}",
                 path, minimum, v)
        return int(v)
    return parse


def _list_of(length, item=_number):
    def parse(v, path):
        _require(isinstance(v, (list, tuple)) and len(v) == length,
                 "expected a list of {} values, got {!r}", path, length, v)
        return [item(x, path) for x in v]
    return parse


def _shaped_like(default):
    """Parser of a patch parameter: a number, or a list shaped like its default."""
    if isinstance(default, tuple):
        return _list_of(len(default), _shaped_like(default[0]))
    return _number


def _kind_of(table, tag):
    return lambda v, path: _parse_kind(v, table, tag, path)


def _section(params):
    return lambda v, path: _parse_params(v, params, path)


def _parse_patch(v, path):
    # geometry owns the patch kinds, their defaults and their value checks
    spec = _parse_kind(v, _PATCH_PARAMS, "kind", path)
    for name, ok, message in PATCH_KINDS[spec["kind"]].checks:
        _require(ok(spec), message, _join(path, name))
    return spec


_PATCH_PARAMS = {
    kind: _Kind({name: (default, _shaped_like(default))
                 for name, default in patch_kind.defaults.items()})
    for kind, patch_kind in PATCH_KINDS.items()}

_SCALAR_FIELDS = {
    "constant": _Kind({"value": (_REQUIRED, _positive)},
                      lambda s: fieldlib.constant_scalar(s["value"])),
    "affine": _Kind({"base": (_REQUIRED, _number), "slope": ([0.0, 0.0], _list_of(2))},
                    lambda s: fieldlib.affine_scalar(s["base"], s["slope"])),
    "sine": _Kind({"base": (_REQUIRED, _number), "amplitude": (0.0, _number),
                   "freq": ([1.0, 1.0], _list_of(2)), "phase": ([0.0, 0.0], _list_of(2))},
                  lambda s: fieldlib.sine_scalar(s["base"], s["amplitude"],
                                                 s["freq"], s["phase"])),
}

_VECTOR_FAMILIES = {
    "zero": _Kind({}, lambda s, patch: fieldlib.zero_vector_field()),
    "rigid": _Kind({"omega": (_REQUIRED, _list_of(3)), "offset": ([0.0, 0.0, 0.0], _list_of(3))},
                   lambda s, patch: fieldlib.rigid_field(patch, s["omega"], s["offset"])),
    "plate_sine": _Kind({"amplitude": (1.0, _number), "m": (1, _count(1)), "n": (1, _count(1))},
                        lambda s, patch: fieldlib.plate_sine_field(s["amplitude"], s["m"], s["n"])),
    "trig": _Kind({"components": (_REQUIRED, _list_of(3, _list_of(5)))},
                  lambda s, patch: fieldlib.trig_vector_field(s["components"])),
}


def _plate_sine_balanced_load(s, fr):
    # vertical sine with its mean removed
    u = fr.u
    out = np.zeros(u.shape[:-1] + (3,))
    out[..., 2] = s["amplitude"] * (np.sin(math.pi * u[..., 0]) * np.sin(math.pi * u[..., 1])
                                    - 4.0 / math.pi ** 2)
    return out


# each builds the load's (N, 3) limit values f at the nodes of a frame
_LOADS = {
    "constant": _Kind({"vector": (_REQUIRED, _list_of(3))},
                      lambda s, fr: np.broadcast_to(np.asarray(s["vector"], dtype=float),
                                                    fr.x.shape)),
    "radial": _Kind({}, lambda s, fr: fr.x),
    "normal": _Kind({}, lambda s, fr: fr.n),
    "plate_sine_balanced": _Kind({"amplitude": (1.0, _number)}, _plate_sine_balanced_load),
}


def _q3_matrix(v, path):
    entries = _list_of(21)(v, path)
    try:  # the material layer owns the positive-definiteness check
        QuadForm3.from_upper_triangle(entries)
    except ParameterError as exc:
        raise ConfigError(str(exc), key_path=path) from exc
    return entries


_MATERIALS = {
    "isotropic": _Kind(
        {"mu": (_REQUIRED, _positive), "lambda": (_REQUIRED, _nonnegative)},
        lambda s: make_isotropic(s["mu"], s["lambda"]),
        q2_closed_form=lambda s, F: isotropic_q2_closed_form(s["mu"], s["lambda"], F)),
    "q3": _Kind({"matrix": (_REQUIRED, _q3_matrix)},
                lambda s: quadratic_energy(QuadForm3.from_upper_triangle(s["matrix"]))),
}

# each builds e_h from (spec, kappa, h)
_E_H_MODES = {
    "kappa_h4": _Kind({}, lambda s, kappa, h: kappa ** 2 * h ** 4),
    "h_alpha": _Kind({"alpha": (4.5, _bounded(4.0, strict=True))},
                     lambda s, kappa, h: h ** s["alpha"]),
}


def _e_h(v, path):
    return _parse_kind({"mode": "kappa_h4", **_object(v, path)}, _E_H_MODES, "mode", path)


def _study_kind(v, path):
    _require(isinstance(v, str) and v in _STUDIES, "study must be one of {}", path,
             tuple(_STUDIES))
    return v


def _schedule(v, path):
    _require(isinstance(v, (list, tuple)) and len(v) >= 4,
             "h_schedule needs at least 4 values for slope fits", path)
    schedule = tuple(_number(h, path) for h in v)
    for h in schedule:
        _require(0.0 < h < 1.0, "h values must lie in (0, 1), got {}", path, h)
    for a, b in zip(schedule, schedule[1:]):
        _require(b < a, "h_schedule must be strictly decreasing", path)
    return schedule


def _output_path(v, path):
    _require(isinstance(v, str) and v, "output must be a nonempty path string", path)
    return v


_HALF = {"kind": "constant", "value": 0.5}
_ZERO = {"family": "zero"}

# the top-level keys of a config, in parse order
_SECTIONS = {
    "study": (_REQUIRED, _study_kind),
    "patch": ({"kind": "plate"}, _parse_patch),
    "thickness": ({}, _section({"g1": (_HALF, _kind_of(_SCALAR_FIELDS, "kind")),
                                "g2": (_HALF, _kind_of(_SCALAR_FIELDS, "kind")),
                                "lipschitz_bound": (1.0, _nonnegative)})),
    "material": ({"type": "isotropic", "mu": 1.0, "lambda": 1.0},
                 _kind_of(_MATERIALS, "type")),
    "fields": ({}, _section({"V": (_ZERO, _kind_of(_VECTOR_FAMILIES, "family")),
                             "w": (_ZERO, _kind_of(_VECTOR_FAMILIES, "family"))})),
    "kappa": (1.0, _nonnegative),
    "e_h": ({}, _e_h),
    "h_schedule": ([2.0 ** -k for k in range(3, 8)], _schedule),
    "load": (None, lambda v, path: None if v is None else _parse_kind(v, _LOADS, "family", path)),
    "quadrature": ({}, _section({"surface_order": (DEFAULT_SURFACE_ORDER, _count(1)),
                                 "transversal_order": (DEFAULT_TRANSVERSAL_ORDER, _count(1))})),
    "tolerances": ({}, _object),  # parsed against the study kind's tolerances below
    "seed": (0, _count(0)),
    "output": ("report.csv", _output_path),
}


def validate_config(doc):
    """Validate a parsed JSON document into a StudyConfig with all defaults explicit."""
    cfg = _parse_params(doc, _SECTIONS, "")
    cfg["tolerances"] = _parse_params(cfg["tolerances"], _STUDIES[cfg["study"]].params,
                                      "tolerances")
    mode = cfg["e_h"]["mode"]
    _require(mode != "kappa_h4" or cfg["kappa"] > 0.0,
             "e_h mode kappa_h4 requires kappa > 0", "e_h.mode")
    _require(mode != "h_alpha" or cfg["kappa"] == 0.0,
             "e_h mode h_alpha (e_h/h^4 -> 0) requires kappa = 0, got {}", "kappa", cfg["kappa"])
    return StudyConfig(**cfg)


def load_config(spec):
    """The StudyConfig of a builtin scenario name or of a JSON file, validated as written."""
    if spec in BUILTIN_SCENARIOS:
        # validate_config neither changes nor keeps any part of the document
        return validate_config(BUILTIN_SCENARIOS[spec].doc)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{spec!r} is neither a readable file nor a builtin scenario "
                          f"({sorted(BUILTIN_SCENARIOS)})") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"invalid JSON in {spec}: {exc}") from None
    return validate_config(doc)


def serialize_config(cfg):
    """Canonical JSON of a config; parse(serialize(cfg)) == cfg."""
    doc = asdict(cfg)
    doc["h_schedule"] = list(doc["h_schedule"])
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# fitting and extrapolation
# ---------------------------------------------------------------------------

def fit_order(pairs):
    """Least-squares slope of log(residual) against log(h).

    Pairs with zero (or sub-floor) residual are excluded as exact; if nothing
    remains the data is exact and the slope is reported as +inf with r^2 = 1.
    A residual that is not finite gives a nan slope and r^2, which fail every
    gate.  Returns (slope, r_squared).
    """
    pts = [(float(h), float(r)) for h, r in pairs]
    if not all(math.isfinite(r) for _, r in pts):
        return math.nan, math.nan
    kept = [(h, r) for h, r in pts if r > EXACT_RESIDUAL_FLOOR]
    if len(kept) < 2:
        return math.inf, 1.0
    logs_h = np.log([h for h, _ in kept])
    logs_r = np.log([r for _, r in kept])
    A = np.column_stack([logs_h, np.ones(len(kept))])
    sol, *_ = np.linalg.lstsq(A, logs_r, rcond=None)
    fit = A @ sol
    ss_res = float(np.sum((logs_r - fit) ** 2))
    ss_tot = float(np.sum((logs_r - logs_r.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(sol[0]), r2


def richardson_extrapolate(h_coarse, v_coarse, h_fine, v_fine, order):
    """Eliminate the leading O(h^order) term from two values on a ratio pair.

    order = +inf (an exact fit, no gap left) gives v_fine, the limit of the
    formula; an order that is not positive eliminates nothing and gives nan.
    """
    rho = h_coarse / h_fine
    if rho <= 1.0:
        raise ShellGammaError("richardson needs h_coarse > h_fine")
    if order == math.inf:
        return v_fine
    if not order > 0.0:
        return math.nan
    w = rho ** order
    return (w * v_fine - v_coarse) / (w - 1.0)


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

@dataclass
class StudyRow:
    h: Optional[float] = None
    e_h: Optional[float] = None
    E_h: Optional[float] = None
    normalized: Optional[float] = None
    I_limit: Optional[float] = None
    rel_gap: Optional[float] = None
    residual_stretch: Optional[float] = None
    residual_bend: Optional[float] = None
    status: str = "ok"


@dataclass
class StudyReport:
    kind: str
    rows: list
    summary: dict          # deterministic key -> value lines for the sidecar
    passed: bool
    error: Optional[str] = None


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def write_report(report, path):
    """Write the CSV table and its sidecar summary; returns both paths."""
    path = str(path)
    lines = [",".join(CSV_HEADER)]
    for row in report.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_HEADER))
    csv_text = "\n".join(lines) + "\n"

    base, ext = os.path.splitext(path)
    summary_path = base + ".summary.txt"
    summary_lines = [f"study: {report.kind}",
                     f"passed: {_fmt(report.passed)}"]
    if report.error is not None:
        summary_lines.append(f"error: {report.error}")
    for key in sorted(report.summary):
        summary_lines.append(f"{key}: {_fmt(report.summary[key])}")
    summary_text = "\n".join(summary_lines) + "\n"

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_text)
    return path, summary_path


# ---------------------------------------------------------------------------
# study drivers
# ---------------------------------------------------------------------------

def run_study(cfg):
    """Run the study kind's driver; module errors other than ConfigError abort into a report."""
    try:
        return _STUDIES[cfg.study].build(cfg)
    except ConfigError:
        raise
    except ShellGammaError as exc:
        return StudyReport(kind=cfg.study, rows=[], summary={},
                           passed=False, error=str(exc))


def _gamma_scene(cfg):
    patch = make_builtin_patch(**cfg.patch)
    thick = ThicknessPair(g1=_build(_SCALAR_FIELDS, "kind", cfg.thickness["g1"]),
                          g2=_build(_SCALAR_FIELDS, "kind", cfg.thickness["g2"]),
                          lipschitz_bound=cfg.thickness["lipschitz_bound"])
    squad = surface_quadrature(patch, cfg.quadrature["surface_order"])
    try:  # positivity and the Lipschitz bound, checked at the nodes
        validate_thickness(thick, squad)
    except ParameterError as exc:
        raise ConfigError(str(exc), key_path="thickness") from exc
    V = _build(_VECTOR_FAMILIES, "family", cfg.fields["V"], patch)
    w = _build(_VECTOR_FAMILIES, "family", cfg.fields["w"], patch)
    try:  # the isometry check, at the nodes
        iso = build_isometry(V, quad=squad)
    except NotAnIsometryError as exc:
        raise ConfigError(str(exc), key_path="fields.V") from exc
    return patch, thick, squad, iso, w


def _rel_gap(value, limit):
    """|value - limit| relative to |limit|; absolute at a limit of 0."""
    return abs(value - limit) / abs(limit) if limit != 0.0 else abs(value)


def _run_gamma(cfg):
    patch, thick, squad, iso, w = _gamma_scene(cfg)
    material = _build(_MATERIALS, "type", cfg.material)
    trule = TransversalRule.make(cfg.quadrature["transversal_order"])
    tol = cfg.tolerances
    data = recovery_data(patch, material, iso, w, thick, cfg.kappa, squad.frame)
    limit = eval_I(data.limit, data.q2, thick, squad)
    I_value = limit.total

    f = None if cfg.load is None else _build(_LOADS, "family", cfg.load, squad.frame)
    J_value = None
    if f is not None:
        resid, mass = load_compatibility_residual(thick, f, squad)
        if resid > 1e-8 * max(mass, 1e-300):
            raise ConfigError(
                f"load violates the compatibility condition: |int (g1+g2) f| = "
                f"{resid:.3e} vs L1 mass {mass:.3e}", key_path="load")
        # maximizer-set example semantics: Qbar = Id
        J_value = eval_J(limit, thick, iso, f, np.eye(3), quad=squad).total

    hs = np.array(cfg.h_schedule)
    e_hs = cfg.e_of_h(hs)
    ran, J_h = len(hs), None
    try:
        rec = build_recovery(data, h=hs, e_h=e_hs)
        ev = eval_shell_energy(rec, material, squad, trule)
        J_h = None if f is None else eval_J_h(rec, ev.E_h, f, squad, trule)
    except ShellGammaError as exc:
        # the rows before the h that failed: a blow-up names it, the guard fails at h[0]
        ran, ev, error = getattr(exc, "index", 0), getattr(exc, "energy", None), str(exc)
    rows = [StudyRow(h=cfg.h_schedule[k], e_h=e_hs[k], E_h=ev.E_h[k],
                     normalized=ev.normalized[k], I_limit=I_value,
                     rel_gap=_rel_gap(ev.normalized[k], I_value), status="ok")
            for k in range(ran)]

    summary = {"I_limit": I_value,
               "I_stretching": limit.stretching,
               "I_bending": limit.bending,
               "raw_rel_gap_tolerance": tol["raw_rel_gap"],
               "extrapolated_rel_gap_tolerance": tol["extrapolated_rel_gap"],
               "gap_r2_min": GAP_R2_MIN}
    if J_value is not None:
        summary["J_limit"] = J_value
        if J_h is not None:
            summary["J_rel_gap_at_smallest_h"] = _rel_gap(J_h[-1] / e_hs[-1], J_value)
    if ran < len(hs):
        rows.append(StudyRow(h=cfg.h_schedule[ran], e_h=e_hs[ran], status="error"))
        return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=False,
                           error=f"aborted at h={cfg.h_schedule[ran]}: {error}")

    slope, r2 = fit_order([(r.h, abs(r.normalized - I_value)) for r in rows])
    coarse, fine = rows[-2], rows[-1]
    extrapolated = richardson_extrapolate(coarse.h, coarse.normalized,
                                          fine.h, fine.normalized, order=slope)
    extr_gap = _rel_gap(extrapolated, I_value)
    raw_ok = rows[-1].rel_gap <= tol["raw_rel_gap"]
    extr_ok = extr_gap <= tol["extrapolated_rel_gap"]
    # a wrong recovery can sit inside the gap tolerances at these h while
    # its gap no longer decays as a power of h
    fit_ok = r2 >= GAP_R2_MIN
    rows[-1].status = "pass" if (raw_ok and extr_ok and fit_ok) else "fail"
    summary.update({"fitted_gap_order": slope, "fitted_gap_r2": r2,
                    "extrapolated_limit": extrapolated,
                    "extrapolated_rel_gap": extr_gap,
                    "raw_rel_gap_at_smallest_h": rows[-1].rel_gap})
    return StudyReport(kind=cfg.study, rows=rows, summary=summary,
                       passed=bool(raw_ok and extr_ok and fit_ok))


def _run_expansion(cfg):
    patch, thick, squad, iso, w = _gamma_scene(cfg)
    tol = cfg.tolerances
    data = expansion_data(patch, iso, w, thick, squad)
    hs = cfg.h_schedule
    rows = [StudyRow(h=h, residual_stretch=rs, residual_bend=rb, status="ok")
            for h, rs, rb in zip(hs, stretching_expansion_residual(data, hs),
                                 bending_expansion_residual(data, hs))]

    s_slope, s_r2 = fit_order([(r.h, r.residual_stretch) for r in rows])
    b_slope, b_r2 = fit_order([(r.h, r.residual_bend) for r in rows])
    s_ok = s_slope >= tol["stretch_slope_min"] and s_r2 >= tol["r2_min"]
    b_ok = b_slope >= tol["bend_slope_min"] and b_r2 >= tol["r2_min"]
    for r in rows:
        r.status = "pass" if (s_ok and b_ok) else "fail"
    summary = {"stretch_slope": s_slope, "stretch_r2": s_r2,
               "bend_slope": b_slope, "bend_r2": b_r2,
               "stretch_slope_min": tol["stretch_slope_min"],
               "bend_slope_min": tol["bend_slope_min"], "r2_min": tol["r2_min"]}
    return StudyReport(kind=cfg.study, rows=rows, summary=summary,
                       passed=bool(s_ok and b_ok))


def _run_q2_check(cfg):
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    material = _MATERIALS[cfg.material["type"]]
    q3 = material.build(cfg.material).q3
    F = rng.normal(size=(tol["samples"], 2, 2))
    # one uniformly random frame (T, n), the columns of a rotation, per sample
    R = rotation_matrices(random_rotations(rng, tol["samples"]))
    T, n = R[..., :2], R[..., 2]
    val = reduce_q2(q3, n, T).apply_tangential(F)
    brute, _ = relax_q2_brute_force(q3, n, F, T)
    # np.max carries a nan deviation into the gates below
    worst_brute = float(np.max(np.abs(val - brute), initial=0.0))
    summary = {"brute_force_max_dev": worst_brute,
               "closed_form_rel_tol": tol["closed_form_rel_tol"],
               "brute_force_tol": tol["brute_force_tol"],
               "samples": tol["samples"]}
    worst_closed = None
    note = "residual_stretch column empty: the material has no closed-form Q2"
    if material.q2_closed_form is not None:
        closed = material.q2_closed_form(cfg.material, F)
        worst_closed = float(np.max(np.abs(val - closed) / np.maximum(1.0, np.abs(closed))))
        summary["closed_form_max_rel_dev"] = worst_closed
        note = "residual_stretch column = closed-form deviation"
    summary["note"] = note + ", residual_bend column = brute-force deviation"
    passed = bool(worst_brute <= tol["brute_force_tol"]
                  and (worst_closed is None or worst_closed <= tol["closed_form_rel_tol"]))
    rows = [StudyRow(residual_stretch=worst_closed, residual_bend=worst_brute,
                     status="pass" if passed else "fail")]
    return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=passed)


def _cube_rotations():
    """The 24 rotations of the cube, identity first: the signed permutation
    matrices G[i, p(i)] = s_i of determinant sign(p) s_1 s_2 s_3 = 1."""
    group = []
    for perm in itertools.permutations(range(3)):
        parity = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for signs in itertools.product((1.0, -1.0), repeat=3):
            if parity * math.prod(signs) > 0:
                G = np.zeros((3, 3))
                G[range(3), perm] = signs
                group.append(G)
    return np.array(group)


_CUBE = _cube_rotations()

# Gaussian quaternions per draw and per rotation_actions call: each scores the
# 24 rotations of the cube, so a chunk's actions are one (24 * matrices, chunk)
# array, 0.49 MB for the builtin's 20 matrices and most of the study's 0.58 MB
# transient peak, and its quaternions one (chunk, 4) buffer
_ACTION_CHUNK = 128


def _rotation_draws(rng, count):
    """The ceil(count / 24) Gaussian quaternions behind `count` rotations of
    `_best_actions`, drawn _ACTION_CHUNK at a time: the chunks of one draw,
    bit for bit, as the Gaussian stream fills it row by row.  Every chunk is
    drawn into one buffer, so each overwrites the one before."""
    draws = -(-count // len(_CUBE))
    buffer = np.empty((_ACTION_CHUNK, 4))
    for start in range(0, draws, _ACTION_CHUNK):
        size = min(_ACTION_CHUNK, draws - start)
        yield random_rotations(rng, size, out=buffer[:size])


def _best_actions(N, q, count):
    """Best tr(R N) over `count` uniform rotations R for each matrix of the (m, 3, 3) stack N.

    Rotation 24 d + j is R(q_d) G_j, for the d-th quaternion of q and the
    j-th rotation G_j of the cube.  Haar measure is invariant under right
    multiplication, so each is uniform, and tr(R(q_d) G_j N) is the action
    of q_d on G_j N: one action form, of the (24, m) stack G N, from loads
    and not from the K(N) that the Davenport route reads here, scores every
    draw against all 24 into a running maximum.  The last draw scores only
    the first count mod 24 of them, if that is not 0.

    q yields the ceil(count / 24) quaternions in (k, 4) chunks, scored as
    they come (`_rotation_draws`).
    """
    form = action_form(_CUBE[:, None] @ N).reshape(-1, 10)
    full, rest = divmod(count, len(_CUBE))
    best = np.full(len(N), -np.inf)
    start = 0
    for chunk in q:
        actions = rotation_actions(form, chunk)
        if start + len(chunk) > full:  # the last draw, of rest rotations
            actions[rest * len(N):, full - start] = -np.inf
        # over the 24 rows of each (matrix, draw) first: one contiguous pass
        per_draw = actions.reshape(len(_CUBE), -1).max(axis=0).reshape(len(N), -1)
        np.maximum(best, per_draw.max(axis=-1), out=best)
        del actions  # before the next chunk's, so one actions array is alive at a time
        start += len(chunk)
    return best


def _run_load_align(cfg):
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    Ns = rng.normal(size=(tol["matrices"], 3, 3))
    # common random numbers: every matrix meets the same uniform rotations,
    # streamed a chunk at a time
    samples = tol["rotation_samples"]
    best = _best_actions(Ns, _rotation_draws(rng, samples), samples)
    # third route to m_h: the largest eigenvalue of Davenport's K(N)
    davenport_max = np.linalg.eigvalsh(davenport_matrix(Ns))[:, -1]
    m_h = np.array([wahba_maximize(N)[1] for N in Ns])
    margins = best - m_h
    davenport_devs = np.abs(davenport_max - m_h)
    gates = tol["margin_rel_tol"] * np.maximum(1.0, np.abs(m_h))
    oks = (margins <= gates) & (davenport_devs <= gates)
    rows = [StudyRow(residual_stretch=float(margin), status="pass" if ok else "fail")
            for margin, ok in zip(margins, oks)]
    # np.max carries a nan margin or deviation into the summary
    worst_margin, worst_davenport = float(np.max(margins)), float(np.max(davenport_devs))

    sphere = make_builtin_patch("sphere", radius=1.0)
    squad = surface_quadrature(sphere, cfg.quadrature["surface_order"])
    thick = ThicknessPair.constant(0.5, 0.5)
    const_load = np.broadcast_to(np.array([0.3, -0.1, 0.2]), squad.frame.x.shape)
    cls_const = example_maximizer_set(const_load, thick, squad)
    cls_radial = example_maximizer_set(squad.frame.x, thick, squad)
    examples_ok = (cls_const.classification == "all_SO3"
                   and cls_radial.classification == "unique"
                   and bool(np.allclose(cls_radial.optimal_rotation, np.eye(3),
                                        atol=1e-8)))
    passed = bool(np.all(oks) and examples_ok)
    summary = {"worst_margin": worst_margin,
               "davenport_max_dev": worst_davenport,
               "margin_rel_tol": tol["margin_rel_tol"],
               "matrices": tol["matrices"],
               "rotation_samples": tol["rotation_samples"],
               "constant_load_classification": cls_const.classification,
               "radial_load_classification": cls_radial.classification,
               "note": "residual_stretch column = (best sampled action) - m_h"}
    return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=passed)


# each runs its study; params are the study's tolerances
_STUDIES = {
    "gamma-limit": _Kind({"raw_rel_gap": (0.05, _nonnegative),
                          "extrapolated_rel_gap": (0.02, _nonnegative)}, _run_gamma),
    "expansion-order": _Kind({"stretch_slope_min": (2.9, _number),
                              "bend_slope_min": (1.9, _number),
                              "r2_min": (0.99, _number)}, _run_expansion),
    "q2-check": _Kind({"closed_form_rel_tol": (1e-10, _nonnegative),
                       "brute_force_tol": (1e-8, _nonnegative),
                       "samples": (200, _count(1))}, _run_q2_check),
    "load-align": _Kind({"matrices": (20, _count(1)),
                         "rotation_samples": (100000, _count(1)),
                         "margin_rel_tol": (1e-9, _nonnegative)}, _run_load_align),
}


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

class Scenario(NamedTuple):
    note: str   # one line for `shellgamma list-scenarios`
    doc: dict   # the config document


# M = A A^T + Id for A = default_rng(50).normal(size=(6, 6)), to 2 digits:
# its normal-coupling block at n = e3 has condition number about 20
_ANISOTROPIC_Q3 = {"type": "q3",
                   "matrix": [6.6, -2.4, -0.45, -4.3, 2.4, -2.2, 3.8, -0.88, 3.1, -1.7,
                              1.5, 11.0, 3.1, 1.3, -6.3, 13.0, -0.42, -0.61, 3.7, -2.8, 7.1]}

_EXPANSION_W = {"family": "trig",
                "components": [[0.4, 1.3, 0.2, 0.9, 0.5],
                               [0.3, 0.7, 1.1, 1.4, 0.3],
                               [0.5, 1.1, 0.4, 0.8, 1.2]]}

# g2 - g1 varies, so d0 carries the paper's variable-thickness term
# (1/2) (A grad((g2 - g1) n))^T n
_VARYING_THICKNESS = {"g1": {"kind": "affine", "base": 0.5, "slope": [0.2, 0.0]},
                      "g2": {"kind": "sine", "base": 0.5, "amplitude": 0.1, "freq": [2.0, 1.0]}}

BUILTIN_SCENARIOS = {
    "plate-gamma": Scenario("plate, out-of-plane sine isometry, energy vs limit functional", {
        "study": "gamma-limit",
        "patch": {"kind": "plate"},
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "plate-gamma.csv",
    }),
    "sphere-gamma": Scenario("unit sphere cap, rigid isometry, stretching-only limit", {
        "study": "gamma-limit",
        "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": math.pi / 3},
        "fields": {"V": {"family": "rigid", "omega": [0.0, 0.0, 1.0]}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "sphere-gamma.csv",
    }),
    # Q2 depends on the tangent frame here, so the per-node reduction is tested end to end
    "sphere-anisotropic-gamma": Scenario("sphere-gamma's scene, anisotropic W(E) = Q3(E)/2", {
        "study": "gamma-limit",
        "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": math.pi / 3},
        "material": _ANISOTROPIC_Q3,
        "fields": {"V": {"family": "rigid", "omega": [0.0, 0.0, 1.0]}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "sphere-anisotropic-gamma.csv",
    }),
    "plate-thick-gamma": Scenario("plate-gamma's scene with a varying thickness profile", {
        "study": "gamma-limit",
        "patch": {"kind": "plate"},
        "thickness": _VARYING_THICKNESS,
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "plate-thick-gamma.csv",
    }),
    "cylinder-thick-gamma": Scenario("cylinder, rigid isometry, varying thickness profile", {
        "study": "gamma-limit",
        "patch": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
        "thickness": _VARYING_THICKNESS,
        "fields": {"V": {"family": "rigid", "omega": [0.3, -0.2, 0.4]}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "cylinder-thick-gamma.csv",
    }),
    # kappa = 0 with e_h = h^6: the bending-only limit
    "plate-bending-gamma": Scenario("plate-gamma's scene, bending-only limit (kappa = 0)", {
        "study": "gamma-limit",
        "patch": {"kind": "plate"},
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
        "kappa": 0.0,
        "e_h": {"mode": "h_alpha", "alpha": 6.0},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "plate-bending-gamma.csv",
    }),
    "plate-expansion": Scenario("stretching/bending expansion orders on the plate", {
        "study": "expansion-order",
        "patch": {"kind": "plate"},
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "plate-expansion.csv",
    }),
    "sphere-expansion": Scenario("stretching/bending expansion orders on the sphere cap", {
        "study": "expansion-order",
        "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": math.pi / 3},
        "fields": {"V": {"family": "rigid", "omega": [0.3, -0.2, 0.4]},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "sphere-expansion.csv",
    }),
    "cylinder-expansion": Scenario("stretching/bending expansion orders on the cylinder", {
        "study": "expansion-order",
        "patch": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
        "fields": {"V": {"family": "rigid", "omega": [0.3, -0.2, 0.4]},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "cylinder-expansion.csv",
    }),
    "q2-isotropic": Scenario("tangential relaxation vs closed form and brute force", {
        "study": "q2-check",
        "material": {"type": "isotropic", "mu": 1.0, "lambda": 1.0},
        "output": "q2-isotropic.csv",
    }),
    "q2-anisotropic": Scenario("tangential relaxation of an anisotropic Q3 vs brute force", {
        "study": "q2-check",
        "material": _ANISOTROPIC_Q3,
        "output": "q2-anisotropic.csv",
    }),
    "load-align": Scenario("rotation-maximized load action vs random sampling", {
        "study": "load-align",
        "output": "load-align.csv",
    }),
}

