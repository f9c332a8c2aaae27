"""Configuration-driven convergence studies with machine-readable reports.

A study config is a JSON document.  Parsing materializes every default, so
the returned config is fully explicit; unknown keys are rejected with their
key path.  Reports are a CSV table (one row per h, fixed header) plus a
sidecar summary of fitted orders, extrapolation, and pass/fail, written with
shortest-round-trip float formatting so identical configs produce identical
bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import fields as fieldlib
from .errors import ConfigError, ShellGammaError
from .geometry import (ThicknessPair, TransversalRule, make_builtin_patch,
                       surface_quadrature)
from .kinematics import (StrainField, bending_expansion_residual, build_isometry,
                         stretching_expansion_residual)
from .limit2d import eval_I, eval_J
from .loads import (LoadField, eval_J_h, example_maximizer_set,
                    load_compatibility_residual, random_rotations,
                    rotation_actions, wahba_maximize)
from .material import (QuadForm3, as_q3, isotropic_q2_closed_form, make_isotropic,
                       reduce_q2, relax_q2_brute_force)
from .recovery3d import build_recovery, eval_shell_energy, recovery_data

STUDY_KINDS = ("gamma-limit", "expansion-order", "q2-check", "load-align")

CSV_HEADER = ("h", "e_h", "E_h", "normalized", "I_limit", "rel_gap",
              "residual_stretch", "residual_bend", "status")

EXACT_RESIDUAL_FLOOR = 1e-13


# ---------------------------------------------------------------------------
# config schema
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
        if self.e_h["mode"] == "kappa_h4":
            return self.kappa ** 2 * h ** 4
        return h ** self.e_h["alpha"]


def _require(cond, msg, path):
    if not cond:
        raise ConfigError(msg, key_path=path)


def _take(d, key, default, path, required=False):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError("missing required key", key_path=f"{path}.{key}" if path else key)
    return default


def _no_leftovers(d, path):
    if d:
        raise ConfigError(f"unknown keys {sorted(d)}", key_path=path)


def _as_number(v, path, minimum=None, positive=False):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"expected a number, got {v!r}", key_path=path)
    v = float(v)
    if positive and v <= 0.0:
        raise ConfigError(f"must be positive, got {v}", key_path=path)
    if minimum is not None and v < minimum:
        raise ConfigError(f"must be >= {minimum}, got {v}", key_path=path)
    return v


def _as_vector(v, length, path):
    if not isinstance(v, (list, tuple)) or len(v) != length:
        raise ConfigError(f"expected a list of {length} numbers", key_path=path)
    return [_as_number(x, path) for x in v]


def _validate_patch(spec, path="patch"):
    spec = dict(spec)
    kind = _take(spec, "kind", None, path, required=True)
    out = {"kind": kind}
    if kind == "plate":
        extent = _take(spec, "extent", [[0.0, 1.0], [0.0, 1.0]], path)
        out["extent"] = [_as_vector(r, 2, f"{path}.extent") for r in extent]
    elif kind == "sphere_cap":
        out["radius"] = _as_number(_take(spec, "radius", 1.0, path), f"{path}.radius", positive=True)
        cap = _as_number(_take(spec, "cap_angle", math.pi / 3, path), f"{path}.cap_angle")
        _require(0.0 < cap <= math.pi / 2 + 1e-12, "cap_angle must lie in (0, pi/2]",
                 f"{path}.cap_angle")
        out["cap_angle"] = cap
        out["azimuth_range"] = _as_vector(
            _take(spec, "azimuth_range", [0.0, 2 * math.pi], path), 2, f"{path}.azimuth_range")
    elif kind == "sphere":
        out["radius"] = _as_number(_take(spec, "radius", 1.0, path), f"{path}.radius", positive=True)
    elif kind == "cylinder":
        out["radius"] = _as_number(_take(spec, "radius", 1.0, path), f"{path}.radius", positive=True)
        out["height"] = _as_number(_take(spec, "height", 1.0, path), f"{path}.height", positive=True)
        out["angle_range"] = _as_vector(
            _take(spec, "angle_range", [0.0, 2 * math.pi], path), 2, f"{path}.angle_range")
    elif kind == "torus_patch":
        out["major_radius"] = _as_number(_take(spec, "major_radius", 2.0, path),
                                         f"{path}.major_radius", positive=True)
        out["minor_radius"] = _as_number(_take(spec, "minor_radius", 0.5, path),
                                         f"{path}.minor_radius", positive=True)
        out["u1_range"] = _as_vector(_take(spec, "u1_range", [0.0, 2 * math.pi], path),
                                     2, f"{path}.u1_range")
        out["u2_range"] = _as_vector(_take(spec, "u2_range", [0.0, 2 * math.pi], path),
                                     2, f"{path}.u2_range")
    else:
        raise ConfigError(f"unknown patch kind {kind!r}", key_path=f"{path}.kind")
    _no_leftovers(spec, path)
    return out


def _validate_scalar_field(spec, path):
    spec = dict(spec)
    kind = _take(spec, "kind", None, path, required=True)
    out = {"kind": kind}
    if kind == "constant":
        val = _as_number(_take(spec, "value", None, path, required=True), f"{path}.value")
        _require(val > 0.0, f"thickness must be positive, got {val}", f"{path}.value")
        out["value"] = val
    elif kind == "affine":
        out["base"] = _as_number(_take(spec, "base", None, path, required=True), f"{path}.base")
        out["slope"] = _as_vector(_take(spec, "slope", [0.0, 0.0], path), 2, f"{path}.slope")
    elif kind == "sine":
        out["base"] = _as_number(_take(spec, "base", None, path, required=True), f"{path}.base")
        out["amplitude"] = _as_number(_take(spec, "amplitude", 0.0, path), f"{path}.amplitude")
        out["freq"] = _as_vector(_take(spec, "freq", [1.0, 1.0], path), 2, f"{path}.freq")
        out["phase"] = _as_vector(_take(spec, "phase", [0.0, 0.0], path), 2, f"{path}.phase")
    else:
        raise ConfigError(f"unknown scalar field kind {kind!r}", key_path=f"{path}.kind")
    _no_leftovers(spec, path)
    return out


def _validate_thickness(spec, path="thickness"):
    spec = dict(spec)
    g1 = _validate_scalar_field(_take(spec, "g1", {"kind": "constant", "value": 0.5}, path),
                                f"{path}.g1")
    g2 = _validate_scalar_field(_take(spec, "g2", {"kind": "constant", "value": 0.5}, path),
                                f"{path}.g2")
    lip = _as_number(_take(spec, "lipschitz_bound", 1.0, path),
                     f"{path}.lipschitz_bound", minimum=0.0)
    _no_leftovers(spec, path)
    return {"g1": g1, "g2": g2, "lipschitz_bound": lip}


def _validate_material(spec, path="material"):
    spec = dict(spec)
    mtype = _take(spec, "type", None, path, required=True)
    out = {"type": mtype}
    if mtype == "isotropic":
        out["mu"] = _as_number(_take(spec, "mu", None, path, required=True),
                               f"{path}.mu", positive=True)
        out["lambda"] = _as_number(_take(spec, "lambda", None, path, required=True),
                                   f"{path}.lambda", minimum=0.0)
    elif mtype == "q3":
        mat = _take(spec, "matrix", None, path, required=True)
        out["matrix"] = _as_vector(mat, 21, f"{path}.matrix")
    else:
        raise ConfigError(f"unknown material type {mtype!r}", key_path=f"{path}.type")
    _no_leftovers(spec, path)
    return out


def _validate_vector_family(spec, path):
    spec = dict(spec)
    family = _take(spec, "family", None, path, required=True)
    out = {"family": family}
    if family == "zero":
        pass
    elif family == "rigid":
        out["omega"] = _as_vector(_take(spec, "omega", None, path, required=True),
                                  3, f"{path}.omega")
        out["offset"] = _as_vector(_take(spec, "offset", [0.0, 0.0, 0.0], path),
                                   3, f"{path}.offset")
    elif family == "plate_sine":
        out["amplitude"] = _as_number(_take(spec, "amplitude", 1.0, path), f"{path}.amplitude")
        out["m"] = int(_as_number(_take(spec, "m", 1, path), f"{path}.m", minimum=1))
        out["n"] = int(_as_number(_take(spec, "n", 1, path), f"{path}.n", minimum=1))
    elif family == "trig":
        comps = _take(spec, "components", None, path, required=True)
        if not isinstance(comps, (list, tuple)) or len(comps) != 3:
            raise ConfigError("expected three 5-element components",
                              key_path=f"{path}.components")
        out["components"] = [_as_vector(c, 5, f"{path}.components") for c in comps]
    else:
        raise ConfigError(f"unknown field family {family!r}", key_path=f"{path}.family")
    _no_leftovers(spec, path)
    return out


def _validate_load(spec, path="load"):
    if spec is None:
        return None
    spec = dict(spec)
    family = _take(spec, "family", None, path, required=True)
    out = {"family": family}
    if family == "constant":
        out["vector"] = _as_vector(_take(spec, "vector", None, path, required=True),
                                   3, f"{path}.vector")
    elif family == "radial":
        pass
    elif family == "normal":
        pass
    elif family == "plate_sine_balanced":
        out["amplitude"] = _as_number(_take(spec, "amplitude", 1.0, path), f"{path}.amplitude")
    else:
        raise ConfigError(f"unknown load family {family!r}", key_path=f"{path}.family")
    scaling = _take(spec, "scaling", "h_sqrt_eh", path)
    _require(scaling == "h_sqrt_eh", "only the h*sqrt(e_h) scaling is configurable",
             f"{path}.scaling")
    out["scaling"] = scaling
    _no_leftovers(spec, path)
    return out


_DEFAULT_TOLERANCES = {
    "gamma-limit": {"raw_rel_gap": 0.05, "extrapolated_rel_gap": 0.02,
                    "richardson_order": 1},
    "expansion-order": {"stretch_slope_min": 2.9, "bend_slope_min": 1.9,
                        "r2_min": 0.99},
    "q2-check": {"closed_form_rel_tol": 1e-10, "brute_force_tol": 1e-8,
                 "samples": 200},
    "load-align": {"matrices": 20, "rotation_samples": 100000,
                   "margin_rel_tol": 1e-9},
}


def _validate_tolerances(spec, study, path="tolerances"):
    spec = dict(spec)
    out = {}
    for key, default in _DEFAULT_TOLERANCES[study].items():
        val = _take(spec, key, default, path)
        if isinstance(default, int) and not isinstance(default, bool):
            out[key] = int(_as_number(val, f"{path}.{key}", minimum=0))
        else:
            out[key] = _as_number(val, f"{path}.{key}")
    _no_leftovers(spec, path)
    return out


def validate_config(doc):
    """Validate a parsed JSON document into a StudyConfig with all defaults explicit."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    study = _take(doc, "study", None, "", required=True)
    _require(study in STUDY_KINDS, f"study must be one of {STUDY_KINDS}", "study")

    patch = _validate_patch(_take(doc, "patch", {"kind": "plate"}, ""))
    thickness = _validate_thickness(_take(doc, "thickness", {}, ""))
    material = _validate_material(
        _take(doc, "material", {"type": "isotropic", "mu": 1.0, "lambda": 1.0}, ""))

    fields_spec = dict(_take(doc, "fields", {}, ""))
    v_spec = _validate_vector_family(_take(fields_spec, "V", {"family": "zero"}, "fields"),
                                     "fields.V")
    w_spec = _validate_vector_family(_take(fields_spec, "w", {"family": "zero"}, "fields"),
                                     "fields.w")
    _no_leftovers(fields_spec, "fields")

    kappa = _as_number(_take(doc, "kappa", 1.0, ""), "kappa", minimum=0.0)

    e_spec = dict(_take(doc, "e_h", {"mode": "kappa_h4"}, ""))
    mode = _take(e_spec, "mode", "kappa_h4", "e_h")
    if mode == "kappa_h4":
        _require(kappa > 0.0, "e_h mode kappa_h4 requires kappa > 0", "e_h.mode")
        e_h = {"mode": "kappa_h4"}
    elif mode == "h_alpha":
        alpha = _as_number(_take(e_spec, "alpha", 4.5, "e_h"), "e_h.alpha")
        _require(alpha > 4.0, "h_alpha exponent must exceed 4", "e_h.alpha")
        e_h = {"mode": "h_alpha", "alpha": alpha}
    else:
        raise ConfigError(f"unknown e_h mode {mode!r}", key_path="e_h.mode")
    _no_leftovers(e_spec, "e_h")

    schedule = _take(doc, "h_schedule", [2.0 ** -k for k in range(3, 8)], "")
    if not isinstance(schedule, (list, tuple)) or len(schedule) < 4:
        raise ConfigError("h_schedule needs at least 4 values for slope fits",
                          key_path="h_schedule")
    schedule = tuple(_as_number(h, "h_schedule") for h in schedule)
    for h in schedule:
        _require(0.0 < h < 1.0, f"h values must lie in (0, 1), got {h}", "h_schedule")
    for a, b in zip(schedule, schedule[1:]):
        _require(b < a, "h_schedule must be strictly decreasing", "h_schedule")

    load = _validate_load(_take(doc, "load", None, ""))

    quad_spec = dict(_take(doc, "quadrature", {}, ""))
    surface_order = int(_as_number(_take(quad_spec, "surface_order", 10, "quadrature"),
                                   "quadrature.surface_order", minimum=1))
    transversal_order = int(_as_number(
        _take(quad_spec, "transversal_order", 4, "quadrature"),
        "quadrature.transversal_order", minimum=1))
    _no_leftovers(quad_spec, "quadrature")

    tolerances = _validate_tolerances(_take(doc, "tolerances", {}, ""), study)
    seed = int(_as_number(_take(doc, "seed", 0, ""), "seed", minimum=0))
    output = _take(doc, "output", "report.csv", "")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a nonempty path string", key_path="output")
    _no_leftovers(doc, "")

    if study == "gamma-limit" and material["type"] != "isotropic":
        raise ConfigError("energy-level studies need a stored energy; "
                          "q3-only materials support q2-check only",
                          key_path="material.type")

    return StudyConfig(study=study, patch=patch, thickness=thickness,
                       material=material,
                       fields={"V": v_spec, "w": w_spec}, kappa=kappa, e_h=e_h,
                       h_schedule=schedule, load=load,
                       quadrature={"surface_order": surface_order,
                                   "transversal_order": transversal_order},
                       tolerances=tolerances, seed=seed, output=output)


def parse_config(text):
    """Parse and validate a JSON study document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return validate_config(doc)


def serialize_config(cfg):
    """Canonical JSON of a config; parse(serialize(cfg)) == cfg."""
    doc = asdict(cfg)
    doc["h_schedule"] = list(doc["h_schedule"])
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# scene construction from a validated config
# ---------------------------------------------------------------------------

def _build_patch(spec):
    params = {k: v for k, v in spec.items() if k != "kind"}
    if "extent" in params:
        params["extent"] = tuple(tuple(r) for r in params["extent"])
    for key in ("azimuth_range", "angle_range", "u1_range", "u2_range"):
        if key in params:
            params[key] = tuple(params[key])
    return make_builtin_patch(spec["kind"], **params)


def _build_scalar(spec, domain):
    if spec["kind"] == "constant":
        return fieldlib.constant_scalar(spec["value"], domain)
    if spec["kind"] == "affine":
        return fieldlib.affine_scalar(spec["base"], spec["slope"], domain)
    return fieldlib.sine_scalar(spec["base"], spec["amplitude"], spec["freq"],
                                spec["phase"], domain)


def _build_material(spec):
    if spec["type"] == "isotropic":
        return make_isotropic(spec["mu"], spec["lambda"])
    return QuadForm3.from_upper_triangle(spec["matrix"])


def _build_vector_field(spec, patch):
    family = spec["family"]
    if family == "zero":
        return fieldlib.zero_vector_field(patch.domain)
    if family == "rigid":
        return fieldlib.rigid_field(patch, spec["omega"], spec["offset"])
    if family == "plate_sine":
        return fieldlib.plate_sine_field(spec["amplitude"], spec["m"], spec["n"],
                                         patch.domain)
    return fieldlib.trig_vector_field(spec["components"], patch.domain)


def _build_load(spec, patch):
    if spec is None:
        return None
    family = spec["family"]
    if family == "constant":
        vec = np.asarray(spec["vector"], dtype=float)
        f = lambda fr: vec.copy()
    elif family == "radial":
        f = lambda fr: fr.x.copy()
    elif family == "normal":
        f = lambda fr: fr.n.copy()
    else:  # plate_sine_balanced: vertical sine with its mean removed
        amp = spec["amplitude"]
        mean = 4.0 / math.pi ** 2

        def f(fr, _a=amp, _m=mean):
            return np.array([0.0, 0.0,
                             _a * (math.sin(math.pi * fr.u[0])
                                   * math.sin(math.pi * fr.u[1]) - _m)])
    return LoadField(f=f, scaling=spec["scaling"])


# ---------------------------------------------------------------------------
# fitting and extrapolation
# ---------------------------------------------------------------------------

def fit_order(pairs):
    """Least-squares slope of log(residual) against log(h).

    Pairs with zero (or sub-floor) residual are excluded as exact; if nothing
    remains the data is exact and the slope is reported as +inf with r^2 = 1.
    Returns (slope, r_squared).
    """
    pts = [(float(h), float(r)) for h, r in pairs]
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


def richardson_extrapolate(h_coarse, v_coarse, h_fine, v_fine, order=1):
    """Eliminate the leading O(h^order) term from two values on a ratio pair."""
    rho = h_coarse / h_fine
    if rho <= 1.0:
        raise ShellGammaError("richardson needs h_coarse > h_fine")
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


def read_report_rows(path):
    """Re-parse a report CSV into StudyRow objects (round-trip helper)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != ",".join(CSV_HEADER):
        raise ShellGammaError(f"unexpected CSV header in {path}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        kwargs = {}
        for col, cell in zip(CSV_HEADER, cells):
            if col == "status":
                kwargs[col] = cell
            else:
                kwargs[col] = float(cell) if cell else None
        rows.append(StudyRow(**kwargs))
    return rows


# ---------------------------------------------------------------------------
# study drivers
# ---------------------------------------------------------------------------

def run_study(cfg):
    """Dispatch to the study kind; module errors abort into an error report."""
    try:
        if cfg.study == "gamma-limit":
            return _run_gamma(cfg)
        if cfg.study == "expansion-order":
            return _run_expansion(cfg)
        if cfg.study == "q2-check":
            return _run_q2_check(cfg)
        return _run_load_align(cfg)
    except ShellGammaError as exc:
        return StudyReport(kind=cfg.study, rows=[], summary={},
                           passed=False, error=str(exc))


def _gamma_scene(cfg):
    patch = _build_patch(cfg.patch)
    thick = ThicknessPair(g1=_build_scalar(cfg.thickness["g1"], patch.domain),
                          g2=_build_scalar(cfg.thickness["g2"], patch.domain),
                          lipschitz_bound=cfg.thickness["lipschitz_bound"])
    material = _build_material(cfg.material)
    squad = surface_quadrature(patch, cfg.quadrature["surface_order"])
    trule = TransversalRule.make(cfg.quadrature["transversal_order"])
    V = _build_vector_field(cfg.fields["V"], patch)
    w = _build_vector_field(cfg.fields["w"], patch)
    iso = build_isometry(patch, V, quad=squad)
    strain = StrainField.from_generator(w)
    return patch, thick, material, squad, trule, iso, strain


def _run_gamma(cfg):
    patch, thick, material, squad, trule, iso, strain = _gamma_scene(cfg)
    tol = cfg.tolerances
    limit = eval_I(patch, thick, material, iso, strain, cfg.kappa, quad=squad)
    I_value = limit.total

    load = _build_load(cfg.load, patch)
    J_value = None
    if load is not None:
        resid, mass = load_compatibility_residual(patch, thick, load, squad)
        if resid > 1e-8 * max(mass, 1e-300):
            raise ConfigError(
                f"load violates the compatibility condition: |int (g1+g2) f| = "
                f"{resid:.3e} vs L1 mass {mass:.3e}", key_path="load")
        # maximizer-set example semantics: Qbar = Id, r = 0
        J_value = eval_J(limit, patch, thick, iso, load.f, np.eye(3), 0.0,
                         quad=squad).total

    data = recovery_data(patch, material, iso, strain, thick, cfg.kappa, squad)
    rows = []
    failing_h = None
    J_gap = None
    for h in cfg.h_schedule:
        e_h = cfg.e_of_h(h)
        try:
            rec = build_recovery(data, h=h, e_h=e_h)
            ev = eval_shell_energy(rec, material, squad, trule)
            if load is not None:
                J_h = eval_J_h(rec, ev.E_h, load, squad, trule)
                J_gap = abs(J_h / e_h - J_value) / max(1e-300, abs(J_value))
        except ShellGammaError as exc:
            failing_h = (h, str(exc))
            rows.append(StudyRow(h=h, e_h=e_h, status="error"))
            break
        gap = abs(ev.normalized - I_value) / abs(I_value) if I_value != 0.0 \
            else abs(ev.normalized)
        rows.append(StudyRow(h=h, e_h=e_h, E_h=ev.E_h, normalized=ev.normalized,
                             I_limit=I_value, rel_gap=gap, status="ok"))

    summary = {"I_limit": I_value,
               "I_stretching": limit.stretching,
               "I_bending": limit.bending,
               "raw_rel_gap_tolerance": tol["raw_rel_gap"],
               "extrapolated_rel_gap_tolerance": tol["extrapolated_rel_gap"],
               "richardson_order": int(tol["richardson_order"])}
    if J_value is not None:
        summary["J_limit"] = J_value
        if J_gap is not None:
            summary["J_rel_gap_at_smallest_h"] = J_gap
    if failing_h is not None:
        return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=False,
                           error=f"aborted at h={failing_h[0]}: {failing_h[1]}")

    slope, r2 = fit_order([(r.h, abs(r.normalized - I_value)) for r in rows])
    coarse, fine = rows[-2], rows[-1]
    extrapolated = richardson_extrapolate(coarse.h, coarse.normalized,
                                          fine.h, fine.normalized,
                                          order=int(tol["richardson_order"]))
    extr_gap = abs(extrapolated - I_value) / abs(I_value) if I_value != 0.0 \
        else abs(extrapolated)
    raw_ok = rows[-1].rel_gap <= tol["raw_rel_gap"]
    extr_ok = extr_gap <= tol["extrapolated_rel_gap"]
    rows[-1].status = "pass" if raw_ok else "fail"
    summary.update({"fitted_gap_order": slope, "fitted_gap_r2": r2,
                    "extrapolated_limit": extrapolated,
                    "extrapolated_rel_gap": extr_gap,
                    "raw_rel_gap_at_smallest_h": rows[-1].rel_gap})
    return StudyReport(kind=cfg.study, rows=rows, summary=summary,
                       passed=bool(raw_ok and extr_ok))


def _run_expansion(cfg):
    patch, thick, material, squad, trule, iso, strain = _gamma_scene(cfg)
    w = strain.generator
    tol = cfg.tolerances
    rows = []
    for h in cfg.h_schedule:
        rs = stretching_expansion_residual(patch, iso, w, thick, h, quad=squad)
        rb = bending_expansion_residual(patch, iso, thick, h, quad=squad)
        rows.append(StudyRow(h=h, residual_stretch=rs, residual_bend=rb, status="ok"))

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


def _q2_check_materials(cfg):
    if cfg.material["type"] == "isotropic":
        return [(cfg.material["mu"], cfg.material["lambda"], _build_material(cfg.material))]
    return [(None, None, _build_material(cfg.material))]


def _run_q2_check(cfg):
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    n = np.array([0.0, 0.0, 1.0])
    t1 = np.array([1.0, 0.0, 0.0])
    t2 = np.array([0.0, 1.0, 0.0])
    worst_closed = 0.0
    worst_brute = 0.0
    for mu, lam, material in _q2_check_materials(cfg):
        q3 = as_q3(material)
        q2 = reduce_q2(q3, n, t1, t2)
        for _ in range(int(tol["samples"])):
            F = rng.normal(size=(2, 2))
            val = q2.apply_tangential(F)
            if mu is not None:
                closed = isotropic_q2_closed_form(mu, lam, F)
                worst_closed = max(worst_closed,
                                   abs(val - closed) / max(1.0, abs(closed)))
            brute, _ = relax_q2_brute_force(q3, n, F, t1=t1, t2=t2)
            worst_brute = max(worst_brute, abs(val - brute))
    closed_ok = worst_closed <= tol["closed_form_rel_tol"]
    brute_ok = worst_brute <= tol["brute_force_tol"]
    passed = bool(closed_ok and brute_ok)
    rows = [StudyRow(residual_stretch=worst_closed, residual_bend=worst_brute,
                     status="pass" if passed else "fail")]
    summary = {"closed_form_max_rel_dev": worst_closed,
               "brute_force_max_dev": worst_brute,
               "closed_form_rel_tol": tol["closed_form_rel_tol"],
               "brute_force_tol": tol["brute_force_tol"],
               "samples": int(tol["samples"]),
               "note": "residual_stretch column = closed-form deviation, "
                       "residual_bend column = brute-force deviation"}
    return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=passed)


def _run_load_align(cfg):
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_margin = -math.inf
    all_ok = True
    for _ in range(int(tol["matrices"])):
        N = rng.normal(size=(3, 3))
        _, m_val, _, _ = wahba_maximize(N)
        samples = rotation_actions(N, random_rotations(rng, int(tol["rotation_samples"])))
        margin = float(samples.max() - m_val)
        ok = margin <= tol["margin_rel_tol"] * max(1.0, abs(m_val))
        all_ok = all_ok and ok
        worst_margin = max(worst_margin, margin)
        rows.append(StudyRow(residual_stretch=margin,
                             status="pass" if ok else "fail"))

    sphere = make_builtin_patch("sphere", radius=1.0)
    squad = surface_quadrature(sphere, cfg.quadrature["surface_order"])
    thick = ThicknessPair.constant(0.5, 0.5, sphere.domain)
    const_load = LoadField(f=lambda fr: np.array([0.3, -0.1, 0.2]))
    radial_load = LoadField(f=lambda fr: fr.x.copy())
    cls_const = example_maximizer_set(sphere, const_load, thick, squad)
    cls_radial = example_maximizer_set(sphere, radial_load, thick, squad)
    examples_ok = (cls_const.classification == "all_SO3"
                   and cls_radial.classification == "unique"
                   and bool(np.allclose(cls_radial.optimal_rotation, np.eye(3),
                                        atol=1e-8)))
    passed = bool(all_ok and examples_ok)
    summary = {"worst_margin": worst_margin,
               "margin_rel_tol": tol["margin_rel_tol"],
               "matrices": int(tol["matrices"]),
               "rotation_samples": int(tol["rotation_samples"]),
               "constant_load_classification": cls_const.classification,
               "radial_load_classification": cls_radial.classification,
               "note": "residual_stretch column = (best sampled action) - m_h"}
    return StudyReport(kind=cfg.study, rows=rows, summary=summary, passed=passed)


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

_EXPANSION_W = {"family": "trig",
                "components": [[0.4, 1.3, 0.2, 0.9, 0.5],
                               [0.3, 0.7, 1.1, 1.4, 0.3],
                               [0.5, 1.1, 0.4, 0.8, 1.2]]}

BUILTIN_SCENARIOS = {
    "plate-gamma": {
        "study": "gamma-limit",
        "patch": {"kind": "plate"},
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "plate-gamma.csv",
    },
    "sphere-gamma": {
        "study": "gamma-limit",
        "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": math.pi / 3},
        "fields": {"V": {"family": "rigid", "omega": [0.0, 0.0, 1.0]}},
        "h_schedule": [2.0 ** -k for k in range(3, 8)],
        "output": "sphere-gamma.csv",
    },
    "plate-expansion": {
        "study": "expansion-order",
        "patch": {"kind": "plate"},
        "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "plate-expansion.csv",
    },
    "sphere-expansion": {
        "study": "expansion-order",
        "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": math.pi / 3},
        "fields": {"V": {"family": "rigid", "omega": [0.3, -0.2, 0.4]},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "sphere-expansion.csv",
    },
    "cylinder-expansion": {
        "study": "expansion-order",
        "patch": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
        "fields": {"V": {"family": "rigid", "omega": [0.3, -0.2, 0.4]},
                   "w": _EXPANSION_W},
        "h_schedule": [2.0 ** -k for k in range(3, 10)],
        "quadrature": {"surface_order": 6, "transversal_order": 4},
        "output": "cylinder-expansion.csv",
    },
    "q2-isotropic": {
        "study": "q2-check",
        "material": {"type": "isotropic", "mu": 1.0, "lambda": 1.0},
        "output": "q2-isotropic.csv",
    },
    "load-align": {
        "study": "load-align",
        "output": "load-align.csv",
    },
}


def builtin_scenario_config(name):
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown builtin scenario {name!r}; "
                          f"available: {sorted(BUILTIN_SCENARIOS)}")
    return validate_config(json.loads(json.dumps(BUILTIN_SCENARIOS[name])))
