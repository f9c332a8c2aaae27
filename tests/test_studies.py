import csv
import dataclasses
import importlib.util
import json
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellgamma.cli as cli
from shellgamma import fields, kinematics, limit2d, loads, recovery3d, studies
from shellgamma.errors import ConfigError, NotAnIsometryError, ParameterError, ThicknessError
from shellgamma.geometry import (SurfacePatch, TransversalRule, gauss_legendre,
                                 make_builtin_patch, surface_quadrature)
from shellgamma.studies import (CSV_HEADER, StudyReport, StudyRow, fit_order,
                                load_config, richardson_extrapolate, run_study,
                                serialize_config, validate_config, write_report)

MINIMAL_GAMMA = {
    "study": "gamma-limit",
    "patch": {"kind": "plate"},
    "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
}


def test_parse_minimal_document_materializes_defaults():
    cfg = validate_config(MINIMAL_GAMMA)
    assert cfg.study == "gamma-limit"
    assert cfg.patch == {"kind": "plate", "extent": [[0.0, 1.0], [0.0, 1.0]]}
    assert cfg.thickness["g1"] == {"kind": "constant", "value": 0.5}
    assert cfg.material == {"type": "isotropic", "mu": 1.0, "lambda": 1.0}
    assert cfg.fields["w"] == {"family": "zero"}
    assert cfg.kappa == 1.0
    assert cfg.e_h == {"mode": "kappa_h4"}
    assert len(cfg.h_schedule) >= 4
    assert cfg.quadrature == {"surface_order": 10, "transversal_order": 4}
    assert cfg.tolerances["raw_rel_gap"] == 0.05
    assert cfg.load is None
    assert cfg.seed == 0
    assert cfg.e_of_h(0.5) == pytest.approx(0.5 ** 4)


def test_negative_thickness_names_key_path():
    doc = dict(MINIMAL_GAMMA)
    doc["thickness"] = {"g1": {"kind": "constant", "value": -0.5}}
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "thickness.g1" in str(err.value)


_STEEP_G1 = {"kind": "sine", "base": 0.5, "amplitude": 0.3, "freq": [20, 20]}
_NEGATIVE_G1 = {"kind": "affine", "base": -0.5}


@pytest.mark.parametrize("doc", [
    {**MINIMAL_GAMMA, "thickness": {"g1": _STEEP_G1, "lipschitz_bound": 0.0}},
    {"study": "expansion-order", "thickness": {"g1": _NEGATIVE_G1}},
    {**MINIMAL_GAMMA, "thickness": {"g1": _NEGATIVE_G1}},
], ids=["steep-gamma", "negative-expansion", "negative-gamma"])
def test_thickness_hypotheses_are_checked_at_the_nodes(doc, tmp_path, capsys):
    # the profiles parse, but fail positivity or the Lipschitz bound at the
    # first quadrature node (C order), which the error names; as at parse
    # time, nothing is printed to stdout and no report is written
    cfg_path = tmp_path / "thick.json"
    cfg_path.write_text(json.dumps({**doc, "output": str(tmp_path / "thick.csv")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    x = float(gauss_legendre(10, 0.0, 1.0)[0][0])
    out, err = capsys.readouterr()
    assert err.startswith("error: thickness: ") and "g1" in err, err
    assert err.rstrip().endswith(f"at u=({x}, {x})"), err
    assert out == ""
    assert not (tmp_path / "thick.csv").exists()
    assert not (tmp_path / "thick.summary.txt").exists()


def test_short_schedule_rejected():
    doc = dict(MINIMAL_GAMMA)
    doc["h_schedule"] = [0.25, 0.125]
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "h_schedule" in str(err.value)


def test_unknown_keys_rejected_with_path():
    doc = dict(MINIMAL_GAMMA)
    doc["quadrature"] = {"surface_order": 8, "sureface_order": 9}
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "quadrature" in str(err.value)

    with pytest.raises(ConfigError):
        validate_config({**MINIMAL_GAMMA, "extra_top": 1})


def test_invalid_values_rejected():
    bad_h = {**MINIMAL_GAMMA, "h_schedule": [0.5, 0.25, 0.125, 1.5]}
    with pytest.raises(ConfigError):
        validate_config(bad_h)
    increasing = {**MINIMAL_GAMMA, "h_schedule": [0.125, 0.25, 0.5, 0.6]}
    with pytest.raises(ConfigError):
        validate_config(increasing)
    bad_kind = {**MINIMAL_GAMMA, "study": "other"}
    with pytest.raises(ConfigError):
        validate_config(bad_kind)
    bad_alpha = {**MINIMAL_GAMMA, "kappa": 0.0,
                 "e_h": {"mode": "h_alpha", "alpha": 3.0}}
    with pytest.raises(ConfigError):
        validate_config(bad_alpha)


def test_config_round_trip(tmp_path):
    # load_config reads a builtin name or a JSON file, each validated as written
    for name in ("plate-gamma", "sphere-expansion", "q2-isotropic", "load-align"):
        cfg = load_config(name)
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_config(cfg))
        assert load_config(str(path)) == cfg
    with pytest.raises(ConfigError, match="neither a readable file nor a builtin"):
        load_config(str(tmp_path / "missing.json"))


def _numbers(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _vector(length):
    return st.lists(_numbers(min_value=-10.0, max_value=10.0),
                    min_size=length, max_size=length)


_POSITIVE = _numbers(min_value=1e-3, max_value=1e3)

# Q3 must be positive definite: a diagonal above 5 dominates five entries in [-1, 1]
_Q3_MATRICES = st.tuples(*[_numbers(min_value=6.0, max_value=100.0) if i == j
                           else _numbers(min_value=-1.0, max_value=1.0)
                           for i in range(6) for j in range(i, 6)]).map(list)

# geometry refuses reversed or empty intervals and a torus with minor >= major
_INTERVAL = st.lists(_numbers(min_value=-10.0, max_value=10.0), min_size=2, max_size=2,
                     unique=True).map(sorted)
_RADII = st.lists(_POSITIVE, min_size=2, max_size=2, unique=True).map(sorted)

_PATCHES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("plate")},
                          optional={"extent": st.tuples(_INTERVAL, _INTERVAL)}),
    st.fixed_dictionaries({"kind": st.just("sphere_cap")},
                          optional={"radius": _POSITIVE,
                                    "cap_angle": _numbers(min_value=1e-3,
                                                          max_value=math.pi / 2),
                                    "azimuth_range": _INTERVAL}),
    st.fixed_dictionaries({"kind": st.just("sphere")}, optional={"radius": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("cylinder")},
                          optional={"radius": _POSITIVE, "height": _POSITIVE,
                                    "angle_range": _INTERVAL}),
    st.builds(lambda radii, ranges: {"kind": "torus_patch", "minor_radius": radii[0],
                                     "major_radius": radii[1], **ranges},
              _RADII, st.fixed_dictionaries({}, optional={"u1_range": _INTERVAL,
                                                          "u2_range": _INTERVAL})))

_SCALARS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("affine"), "base": _POSITIVE},
                          optional={"slope": _vector(2)}),
    st.fixed_dictionaries({"kind": st.just("sine"), "base": _POSITIVE},
                          optional={"amplitude": _numbers(min_value=-1.0, max_value=1.0),
                                    "freq": _vector(2), "phase": _vector(2)}))

_FIELDS = st.one_of(
    st.just({"family": "zero"}),
    st.fixed_dictionaries({"family": st.just("rigid"), "omega": _vector(3)},
                          optional={"offset": _vector(3)}),
    st.fixed_dictionaries({"family": st.just("plate_sine")},
                          optional={"amplitude": _numbers(min_value=-10.0, max_value=10.0),
                                    "m": st.integers(1, 9), "n": st.integers(1, 9)}),
    st.fixed_dictionaries({"family": st.just("trig"),
                           "components": st.lists(_vector(5), min_size=3, max_size=3)}))

_LOADS = st.one_of(
    st.none(),
    st.fixed_dictionaries({"family": st.just("constant"), "vector": _vector(3)}),
    st.fixed_dictionaries({"family": st.sampled_from(["radial", "normal"])}),
    st.fixed_dictionaries({"family": st.just("plate_sine_balanced")},
                          optional={"amplitude": _numbers(min_value=-10.0, max_value=10.0)}))

_SCHEDULES = st.lists(_numbers(min_value=1e-6, max_value=0.999), min_size=4, max_size=8,
                      unique=True).map(lambda hs: sorted(hs, reverse=True))

_TOLERANCES = {
    "gamma-limit": st.fixed_dictionaries(
        {}, optional={"raw_rel_gap": _POSITIVE, "extrapolated_rel_gap": _POSITIVE}),
    "expansion-order": st.fixed_dictionaries(
        {}, optional={"stretch_slope_min": _POSITIVE, "bend_slope_min": _POSITIVE,
                      "r2_min": _numbers(min_value=0.0, max_value=1.0)}),
    "q2-check": st.fixed_dictionaries(
        {}, optional={"closed_form_rel_tol": _POSITIVE, "brute_force_tol": _POSITIVE,
                      "samples": st.integers(1, 1000)}),
}


@st.composite
def _study_documents(draw):
    study = draw(st.sampled_from(sorted(_TOLERANCES)))
    materials = st.one_of(
        st.fixed_dictionaries({"type": st.just("isotropic"), "mu": _POSITIVE,
                               "lambda": _numbers(min_value=0.0, max_value=1e3)}),
        st.fixed_dictionaries({"type": st.just("q3"), "matrix": _Q3_MATRICES}))
    e_h = draw(st.one_of(st.just({"mode": "kappa_h4"}),
                         st.fixed_dictionaries({"mode": st.just("h_alpha")},
                                               optional={"alpha": _numbers(
                                                   min_value=4.001, max_value=10.0)})))
    # kappa_h4 needs kappa > 0; h_alpha has e_h/h^4 -> 0, so its limit's kappa is 0
    kappa = draw(_POSITIVE) if e_h["mode"] == "kappa_h4" else 0.0
    return {"study": study,
            "patch": draw(_PATCHES),
            "thickness": draw(st.fixed_dictionaries(
                {"g1": _SCALARS, "g2": _SCALARS},
                optional={"lipschitz_bound": _numbers(min_value=0.0, max_value=10.0)})),
            "material": draw(materials),
            "fields": {"V": draw(_FIELDS), "w": draw(_FIELDS)},
            "kappa": kappa,
            "e_h": e_h,
            "h_schedule": draw(_SCHEDULES),
            "load": draw(_LOADS),
            "quadrature": {"surface_order": draw(st.integers(1, 20)),
                           "transversal_order": draw(st.integers(1, 10))},
            "tolerances": draw(_TOLERANCES[study]),
            "seed": draw(st.integers(0, 2 ** 32)),
            "output": draw(st.text(min_size=1, max_size=20))}


@settings(max_examples=50)
@given(_study_documents())
def test_config_round_trip_on_random_documents(doc):
    cfg = validate_config(doc)
    assert validate_config(json.loads(serialize_config(cfg))) == cfg
    # every patch the config layer accepts also builds
    assert isinstance(make_builtin_patch(**cfg.patch), SurfacePatch)


_Q2 = {"study": "q2-check"}


@pytest.mark.parametrize("doc, key_path", [
    # each of these crashed with a traceback
    ({**MINIMAL_GAMMA, "patch": 5}, "patch"),
    ({**MINIMAL_GAMMA, "patch": "plate"}, "patch"),
    ({**MINIMAL_GAMMA, "thickness": {"g1": 3}}, "thickness.g1"),
    ({**MINIMAL_GAMMA, "patch": {"kind": "plate", "extent": [[0, 1]]}}, "patch.extent"),
    ({**MINIMAL_GAMMA, "patch": {"kind": "plate", "extent": 5}}, "patch.extent"),
    ({**_Q2, "material": {"type": "isotropic", "mu": math.nan, "lambda": 1.0}},
     "material.mu"),
    ({**MINIMAL_GAMMA, "quadrature": {"surface_order": math.inf}}, "quadrature.surface_order"),
    # and each of these was accepted, silently changed
    ({**MINIMAL_GAMMA, "fields": []}, "fields"),
    ({**MINIMAL_GAMMA, "fields": {"V": {"family": "plate_sine", "m": 1.5}}}, "fields.V.m"),
    ({**_Q2, "seed": 3.9}, "seed"),
    ({**MINIMAL_GAMMA, "quadrature": {"surface_order": 2.7}}, "quadrature.surface_order"),
    ({**_Q2, "tolerances": {"closed_form_rel_tol": math.inf}},
     "tolerances.closed_form_rel_tol"),
    # each of these compared nothing, or failed at run time without a key path
    ({**_Q2, "tolerances": {"samples": 0}}, "tolerances.samples"),
    ({"study": "load-align", "tolerances": {"matrices": 0}}, "tolerances.matrices"),
    ({"study": "load-align", "tolerances": {"rotation_samples": 0}},
     "tolerances.rotation_samples"),
    ({**_Q2, "material": {"type": "q3", "matrix": [0.0] * 21}}, "material.matrix"),
    # diag(1, 1, 1, 1, 1, -1)
    ({"study": "expansion-order",
      "material": {"type": "q3", "matrix": [float(i == j) * (-1.0 if i == 5 else 1.0)
                                            for i in range(6) for j in range(i, 6)]}},
     "material.matrix"),
    # the only load scaling is f^h = h sqrt(e_h) f, so it is not a key
    ({**MINIMAL_GAMMA, "load": {"family": "radial", "scaling": "h_sqrt_eh"}}, "load"),
    # a study gated by a negative upper bound can only fail
    ({**MINIMAL_GAMMA, "tolerances": {"raw_rel_gap": -1e-3}}, "tolerances.raw_rel_gap"),
    ({**MINIMAL_GAMMA, "tolerances": {"extrapolated_rel_gap": -1e-3}},
     "tolerances.extrapolated_rel_gap"),
    ({**_Q2, "tolerances": {"closed_form_rel_tol": -5.0}}, "tolerances.closed_form_rel_tol"),
    ({**_Q2, "tolerances": {"brute_force_tol": -1.0}}, "tolerances.brute_force_tol"),
    ({"study": "load-align", "tolerances": {"margin_rel_tol": -1e-9}},
     "tolerances.margin_rel_tol"),
    # e_h = kappa^2 h^4 vanishes at kappa = 0
    ({**MINIMAL_GAMMA, "kappa": 0}, "e_h.mode"),
    # e_h = h^alpha, alpha > 4, has e_h/h^4 -> 0: the limit is at kappa = 0
    ({**MINIMAL_GAMMA, "e_h": {"mode": "h_alpha"}}, "kappa"),
])
def test_bad_input_is_a_config_error_with_its_key_path(doc, key_path, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert err.value.key_path == key_path
    # json writes nan and inf as NaN and Infinity, which json.load reads back
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**doc, "output": str(tmp_path / "bad.csv")}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key_path}: ")


@pytest.mark.parametrize("patch, key_path", [
    ({"kind": "plate", "extent": [[1.0, 0.0], [0.0, 1.0]]}, "patch.extent"),
    ({"kind": "torus_patch", "major_radius": 0.4, "minor_radius": 0.5},
     "patch.minor_radius"),
    ({"kind": "sphere_cap", "cap_angle": math.pi / 2 + 1e-13}, "patch.cap_angle"),
])
def test_patch_checks_run_at_parse_time(patch, key_path):
    # the checks are geometry's own, which make_builtin_patch also runs
    with pytest.raises(ConfigError) as err:
        validate_config({**MINIMAL_GAMMA, "patch": patch})
    assert err.value.key_path == key_path
    with pytest.raises(ParameterError):
        make_builtin_patch(**patch)


def test_q2_check_fails_on_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(studies, "isotropic_q2_closed_form",
                        lambda mu, lam, F: np.full(F.shape[:-2], np.nan))
    report = run_study(load_config("q2-isotropic"))
    assert math.isnan(report.summary["closed_form_max_rel_dev"])
    assert not report.passed
    assert report.rows[0].status == "fail"


def test_cube_rotations_are_a_group_of_24_with_the_identity_first():
    G = studies._CUBE
    assert G.shape == (24, 3, 3)
    assert np.array_equal(G[0], np.eye(3))
    assert len({g.tobytes() for g in G}) == 24
    assert np.array_equal(G @ np.swapaxes(G, -1, -2), np.broadcast_to(np.eye(3), G.shape))
    assert np.allclose(np.linalg.det(G), 1.0, rtol=0.0, atol=1e-15)
    products = {(g @ k).tobytes() for g in G for k in G}
    assert products == {g.tobytes() for g in G}


# rotations scored per chunk of draws: the counts below stop short of, at
# and past the chunk edges, with and without a partial last draw
_CHUNK_ROTATIONS = 24 * studies._ACTION_CHUNK


def action_chunks(q):
    """The (k, 4) batch q in the chunks of _ACTION_CHUNK rows that `_best_actions` scores."""
    return [q[start:start + studies._ACTION_CHUNK]
            for start in range(0, len(q), studies._ACTION_CHUNK)]


@pytest.mark.parametrize("count", [1, 7, 24, 25, 1365, _CHUNK_ROTATIONS, _CHUNK_ROTATIONS + 1,
                                   4096, 4097, 8229])
def test_chunked_best_action_is_the_batch_maximum(count):
    # rotation 24 d + j is the matrix R(q_d) G_j; the best action meets the
    # largest tr(R N) over exactly `count` of them, and the streamed draws
    # give one draw's maxima, bit for bit
    rng = np.random.default_rng(27)
    Ns = rng.normal(size=(5, 3, 3))
    state = rng.bit_generator.state
    streamed = studies._best_actions(Ns, studies._rotation_draws(rng, count), count)
    rng.bit_generator.state = state
    q = studies.random_rotations(rng, -(-count // 24))
    best = studies._best_actions(Ns, action_chunks(q), count)
    assert best.shape == (5,)
    assert np.array_equal(streamed, best)
    R = (studies.rotation_matrices(q)[:, None] @ studies._CUBE).reshape(-1, 3, 3)[:count]
    explicit = np.einsum("rab,mba->mr", R, Ns).max(axis=-1)
    assert np.max(np.abs(best - explicit)) <= 1e-14


def test_load_align_gate_fails_a_low_maximum(monkeypatch):
    # m_h 1% low from wahba_maximize, and K(N) shifted down by as much so that
    # the Davenport route agrees: only the sampled rotations can tell, and
    # they must beat the low m_h for every matrix
    wahba, davenport = studies.wahba_maximize, studies.davenport_matrix

    def drop(N):
        return 0.01 * max(1.0, abs(wahba(N)[1]))

    def low_wahba(N):
        Q, m_h, classification = wahba(N)
        return Q, m_h - drop(N), classification

    def low_davenport(N):
        drops = np.reshape([drop(M) for M in np.reshape(N, (-1, 3, 3))], np.shape(N)[:-2])
        return davenport(N) - drops[..., None, None] * np.eye(4)

    monkeypatch.setattr(studies, "wahba_maximize", low_wahba)
    monkeypatch.setattr(studies, "davenport_matrix", low_davenport)
    report = run_study(load_config("load-align"))
    assert report.summary["davenport_max_dev"] <= 1e-12
    assert not report.passed
    assert [row.status for row in report.rows] == ["fail"] * report.summary["matrices"]
    assert all(row.residual_stretch > 1e-3 for row in report.rows)


def test_load_align_summary_carries_a_nan_maximum(monkeypatch):
    # a nan m_h at the 2nd matrix fails its row; the summary must show it
    # too, though the worst margin of the other rows comes before it
    wahba = studies.wahba_maximize
    calls = []

    def nan_second(N):
        calls.append(N)
        Q, m_h, classification = wahba(N)
        return Q, (np.nan if len(calls) == 2 else m_h), classification

    monkeypatch.setattr(studies, "wahba_maximize", nan_second)
    report = run_study(load_config("load-align"))
    assert not report.passed
    assert [row.status for row in report.rows][:3] == ["pass", "fail", "pass"]
    assert math.isnan(report.summary["worst_margin"])
    assert math.isnan(report.summary["davenport_max_dev"])


def test_load_align_forms_one_action_form_and_draws_once(monkeypatch):
    # the sampled route's form from loads, once, of the (24, m) stack G N;
    # K(N) of this module once, for the eigenvalue route; ceil(n / 24)
    # quaternions streamed in draws of at most one chunk, each scored as it
    # comes, whose maxima are those of one draw of every quaternion from the
    # same seed, bit for bit; every draw fills one buffer
    counted = {"action_form": [], "davenport_matrix": [], "rotation_actions": [],
               "random_rotations": []}
    buffers = []
    maxima = []
    best_actions = studies._best_actions

    def counting(name):
        f = getattr(studies, name)

        def counted_call(*args, **kwargs):
            result = f(*args, **kwargs)
            # copies: the draws overwrite their buffer
            counted[name].append(tuple(np.copy(a) if isinstance(a, np.ndarray) else a
                                       for a in args))
            if "out" in kwargs:
                buffers.append(kwargs["out"])
            return result
        return counted_call

    def recording_best_actions(N, q, count):
        maxima.append(best_actions(N, q, count))
        return maxima[-1]

    for name in counted:
        monkeypatch.setattr(studies, name, counting(name))
    monkeypatch.setattr(studies, "_best_actions", recording_best_actions)
    cfg = load_config("load-align")
    report = run_study(cfg)
    assert report.passed
    samples, matrices = cfg.tolerances["rotation_samples"], cfg.tolerances["matrices"]
    draws = -(-samples // 24)
    chunks = -(-draws // studies._ACTION_CHUNK)
    assert {name: len(calls) for name, calls in counted.items()} == {
        "action_form": 1, "davenport_matrix": 1,
        "rotation_actions": chunks, "random_rotations": chunks}
    assert all(count <= studies._ACTION_CHUNK for _, count in counted["random_rotations"])
    assert sum(count for _, count in counted["random_rotations"]) == draws
    assert len(buffers) == chunks
    assert all(np.shares_memory(out, buffers[0]) for out in buffers)
    [(GNs,)] = counted["action_form"]
    assert GNs.shape == (24, matrices, 3, 3)
    Ns = GNs[0]  # the identity comes first
    assert np.array_equal(GNs, studies._CUBE[:, None] @ Ns)
    assert all(form.shape == (24 * matrices, 10) and len(q) <= studies._ACTION_CHUNK
               for form, q in counted["rotation_actions"])
    assert sum(len(q) for _, q in counted["rotation_actions"]) == draws
    monkeypatch.undo()
    rng = np.random.default_rng(cfg.seed)
    assert np.array_equal(rng.normal(size=(matrices, 3, 3)), Ns)
    one_draw = studies.random_rotations(rng, draws)
    assert np.array_equal(np.concatenate([q for _, q in counted["rotation_actions"]]), one_draw)
    [streamed] = maxima
    assert np.array_equal(streamed, studies._best_actions(Ns, action_chunks(one_draw), samples))


# Transient heap peak of one load-align study, by tracemalloc: 1.25 MB when
# 4,096 rotations were drawn and scored per chunk, 0.58 MB with chunks of 128
# draws of 24 rotations each.  The budget pins that transient allocation: a
# chunk of more than about 150 draws, two chunks' actions alive at once or a
# (rotation_samples, 4) draw fails here.
LOAD_ALIGN_PEAK_BUDGET = 700_000  # bytes


def test_load_align_keeps_its_transient_peak_within_budget():
    import tracemalloc

    cfg = load_config("load-align")
    run_study(cfg)  # warm: caches of the sphere's quadrature
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= LOAD_ALIGN_PEAK_BUDGET, f"transient peak {peak} bytes"


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_import_site_resolves():
    # the tracer wraps each "module:attr" site of LAYERS in place; a site
    # that no longer exists stops every traced benchmark run
    sites = [site for sites, _ in _perfbench_module("tracing").LAYERS.values()
             for site in sites]
    assert sites
    for site in sites:
        module_name, attr = site.split(":")
        owner = importlib.import_module(f"shellgamma.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), site


def test_benchmark_workload_configs_validate():
    # a rejected config counts as a failed operation of the benchmark; seed 0
    # of these two workloads is the builtin scenario of the same name
    workloads = _perfbench_module("workloads")
    for workload in workloads.WORKLOADS:
        for seed in range(4):
            for name, doc in workloads.study_configs(workload, seed).items():
                cfg = validate_config(doc)
                if seed == 0 and workload in ("gamma-sphere", "verify-suite"):
                    builtin = load_config(name)
                    assert dataclasses.replace(cfg, output=builtin.output) == builtin, name


def test_fit_order_reference_cases():
    hs = [2.0 ** -k for k in range(3, 9)]
    slope, r2 = fit_order([(h, 2.7 * h ** 3) for h in hs])
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    slope, _ = fit_order([(h, 0.3 * h ** 2) for h in hs])
    assert slope == pytest.approx(2.0, abs=1e-12)

    rng = np.random.default_rng(30)
    noisy = [(h, 1.7 * h ** 3 * (1.0 + rng.uniform(-0.05, 0.05))) for h in hs]
    slope, r2 = fit_order(noisy)
    assert 2.8 <= slope <= 3.2

    slope, r2 = fit_order([(h, 0.0) for h in hs])
    assert slope == math.inf and r2 == 1.0

    # zeros are excluded, the rest still fits
    mixed = [(h, 2.7 * h ** 3) for h in hs[:4]] + [(hs[4], 0.0)]
    slope, _ = fit_order(mixed)
    assert slope == pytest.approx(3.0, abs=1e-10)


def test_fit_order_does_not_count_a_non_finite_residual_as_exact():
    hs = [2.0 ** -k for k in range(3, 9)]
    for bad in (math.nan, math.inf):
        for pairs in ([(h, bad) for h in hs],
                      [(h, 2.7 * h ** 3) for h in hs[:-1]] + [(hs[-1], bad)]):
            slope, r2 = fit_order(pairs)
            assert math.isnan(slope) and math.isnan(r2), (pairs, slope, r2)


def test_expansion_study_fails_a_nan_residual(monkeypatch):
    # one nan per h of the schedule
    monkeypatch.setattr(studies, "stretching_expansion_residual",
                        lambda data, h: np.full(np.shape(h), math.nan))
    report = run_study(load_config("plate-expansion"))
    assert math.isnan(report.summary["stretch_slope"])
    assert not report.passed
    assert {row.status for row in report.rows} == {"fail"}


def test_richardson_extrapolation():
    f = lambda h: 7.0 + 3.0 * h
    assert richardson_extrapolate(0.2, f(0.2), 0.1, f(0.1), order=1) == pytest.approx(7.0)
    g = lambda h: 7.0 + 3.0 * h ** 2
    assert richardson_extrapolate(0.2, g(0.2), 0.1, g(0.1), order=2) == pytest.approx(7.0)


def test_richardson_with_exact_or_non_positive_order():
    # an exact fit leaves no gap to eliminate; a non-positive order eliminates nothing
    assert richardson_extrapolate(0.2, 7.5, 0.1, 7.25, order=math.inf) == 7.25
    for order in (0.0, -1.0, math.nan):
        assert math.isnan(richardson_extrapolate(0.2, 7.5, 0.1, 7.25, order=order))


def test_gamma_study_extrapolates_with_the_fitted_order(monkeypatch):
    cfg = validate_config({**MINIMAL_GAMMA,
                           "quadrature": {"surface_order": 4, "transversal_order": 3}})
    report = run_study(cfg)
    rows, summary = report.rows, report.summary
    assert "richardson_order" not in summary
    assert summary["extrapolated_limit"] == richardson_extrapolate(
        rows[-2].h, rows[-2].normalized, rows[-1].h, rows[-1].normalized,
        order=summary["fitted_gap_order"])
    # the gap is O(h^2): extrapolating with the fitted order beats the raw value
    assert summary["extrapolated_rel_gap"] < summary["raw_rel_gap_at_smallest_h"]

    monkeypatch.setattr(studies, "fit_order", lambda pairs: (math.inf, 1.0))
    exact = run_study(cfg)
    assert exact.summary["extrapolated_limit"] == exact.rows[-1].normalized
    monkeypatch.setattr(studies, "fit_order", lambda pairs: (-0.5, 0.9))
    diverging = run_study(cfg)
    assert math.isnan(diverging.summary["extrapolated_rel_gap"])
    assert not diverging.passed


@pytest.mark.parametrize("name", ["plate-gamma", "sphere-gamma"])
def test_gamma_gate_fails_a_wrong_recovery(name, monkeypatch):
    # 0.9 d0 keeps both gaps inside their tolerances at these h; only the
    # fit of the gap against h shows that it no longer decays
    build_d_fields = recovery3d.build_d_fields

    def scaled_d0(*args, **kwargs):
        d0, d1 = build_d_fields(*args, **kwargs)
        return 0.9 * d0, d1

    monkeypatch.setattr(recovery3d, "build_d_fields", scaled_d0)
    report = run_study(load_config(name))
    summary = report.summary
    assert summary["raw_rel_gap_at_smallest_h"] <= summary["raw_rel_gap_tolerance"]
    assert summary["extrapolated_rel_gap"] <= summary["extrapolated_rel_gap_tolerance"]
    assert summary["fitted_gap_r2"] < summary["gap_r2_min"] == 0.98
    assert not report.passed
    assert report.rows[-1].status == "fail"


def test_gamma_gate_fails_without_the_variable_thickness_term_of_d0(monkeypatch):
    # on the cylinder with a varying thickness g2 - g1 is not constant, so d0
    # carries the paper's variable-thickness term (1/2) (A grad((g2 - g1) n))^T n
    report = run_study(load_config("cylinder-thick-gamma"))
    summary = report.summary
    assert report.passed
    assert summary["I_limit"] == pytest.approx(0.6053233015, rel=1e-9)
    assert summary["fitted_gap_r2"] >= 0.999
    assert summary["raw_rel_gap_at_smallest_h"] < 6e-3

    build_d_fields = recovery3d.build_d_fields

    def without_thickness_term(record, q2, kappa):
        d0, d1 = build_d_fields(record, q2, kappa)
        return d0 - 0.5 * fields.matvec(fields.transpose(record.AG), record.frame.n), d1

    monkeypatch.setattr(recovery3d, "build_d_fields", without_thickness_term)
    report = run_study(load_config("cylinder-thick-gamma"))
    summary = report.summary
    assert not report.passed
    assert summary["fitted_gap_r2"] < 0.9
    assert summary["raw_rel_gap_at_smallest_h"] > 0.2
    assert summary["extrapolated_rel_gap"] > 0.15


def test_anisotropic_gamma_fails_a_swapped_tangent_frame(monkeypatch):
    # an isotropic Q2 does not see the tangent frame, so only the anisotropic
    # builtin can catch a reduction in the frame (t2, t1)
    reduce_q2 = recovery3d.reduce_q2
    monkeypatch.setattr(recovery3d, "reduce_q2",
                        lambda q3, n, T: reduce_q2(q3, n, T[..., ::-1]))
    for name in ("plate-gamma", "sphere-gamma"):
        assert run_study(load_config(name)).passed
    report = run_study(load_config("sphere-anisotropic-gamma"))
    summary = report.summary
    assert summary["raw_rel_gap_at_smallest_h"] > summary["raw_rel_gap_tolerance"]
    assert summary["fitted_gap_r2"] < summary["gap_r2_min"]
    assert not report.passed and report.rows[-1].status == "fail"


@pytest.mark.parametrize("name, tensor", [
    ("plate-expansion", "stretching_tensor"),
    ("sphere-expansion", "stretching_tensor"),
    ("cylinder-expansion", "stretching_tensor"),
    ("plate-expansion", "bending_matrix"),
])
def test_expansion_study_checks_the_limit_tensors(name, tensor, monkeypatch):
    # the expansion identities read the tensors that the limit integrates, so
    # either one off by 10% fails the study; the sphere cap and the cylinder
    # have a rigid V, whose bending matrix is zero
    assert run_study(load_config(name)).passed
    exact = getattr(kinematics, tensor)
    monkeypatch.setattr(kinematics, tensor, lambda *args: 1.1 * exact(*args))
    assert not run_study(load_config(name)).passed


# with a sine g2 on every builtin expansion scene, A grad((g2 - g1) n) is not 0
_SINE_G2 = {"kind": "sine", "base": 0.5, "amplitude": 0.05, "phase": [0.2, 0.4]}


@pytest.mark.parametrize("name", ["plate-expansion", "sphere-expansion",
                                  "cylinder-expansion"])
def test_expansion_identities_hold_with_variable_thickness(name, monkeypatch):
    # the stretching identity is third order only with the thickness term of
    # the limit's stretching tensor: without it the stretch slope is about 2.3
    doc = {**studies.BUILTIN_SCENARIOS[name].doc, "thickness": {"g2": _SINE_G2}}
    report = run_study(validate_config(doc))
    assert report.passed, report.summary
    assert report.summary["stretch_slope"] >= 2.9 and report.summary["bend_slope"] >= 1.9
    exact = kinematics.stretching_tensor
    monkeypatch.setattr(kinematics, "stretching_tensor",
                        lambda frame, A, AG, b_tan, kappa: exact(frame, A, 0.0 * AG, b_tan,
                                                                 kappa))
    report = run_study(validate_config(doc))
    assert report.summary["stretch_slope"] < 2.5
    assert not report.passed


def test_richardson_order_key_is_rejected_with_its_path():
    doc = {**MINIMAL_GAMMA, "tolerances": {"richardson_order": 2}}
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert err.value.key_path == "tolerances"
    assert "richardson_order" in str(err.value)


@pytest.mark.parametrize("name", ["plate-gamma", "sphere-gamma"])
def test_gamma_gap_does_not_depend_on_the_fd_step(name, monkeypatch):
    # the one finite-difference step of the recovery fields and A n
    gaps = []
    normalized = []
    for step in (1e-3, 1e-4, 1e-5):
        monkeypatch.setattr(fields, "FD_REL_STEP", step)
        report = run_study(load_config(name))
        assert report.passed
        gaps.append(report.summary["raw_rel_gap_at_smallest_h"])
        normalized.append([row.normalized for row in report.rows])
    assert max(abs(g - gaps[0]) for g in gaps) <= 1e-5 * gaps[0], gaps
    # a step the patch no longer reaches would leave the energies unchanged
    assert normalized[0] != normalized[1] != normalized[2] != normalized[0]


@pytest.mark.parametrize("name", ["plate-expansion", "sphere-expansion",
                                  "cylinder-expansion"])
def test_expansion_residual_does_not_depend_on_the_fd_step(name, monkeypatch):
    # the one finite-difference step of A n and of the deformed normal
    finest = []
    for step in (1e-3, 2e-3, 5e-4):
        monkeypatch.setattr(fields, "FD_REL_STEP", step)
        report = run_study(load_config(name))
        assert report.passed
        finest.append(report.rows[-1].residual_bend)
    assert max(abs(r - finest[0]) for r in finest) <= 1e-12, finest
    # a step the study no longer reaches would leave the residuals unchanged
    assert len(set(finest)) > 1, finest


def test_h_alpha_study_runs_at_kappa_zero():
    # e_h = h^6: the rescaled energy tends to I at kappa = 0
    doc = {**studies.BUILTIN_SCENARIOS["plate-gamma"].doc,
           "e_h": {"mode": "h_alpha", "alpha": 6.0}, "kappa": 0.0}
    report = run_study(validate_config(doc))
    assert report.passed
    assert report.summary["fitted_gap_order"] == pytest.approx(2.0, abs=0.05)


def counting_d1(field, calls):
    """The vector field with each read of its chart partials recorded in calls."""
    def d1(m):
        calls.append(np.array(m.u, dtype=float))
        return field.d1(m)
    return dataclasses.replace(field, d1=d1)


def test_gamma_study_evaluates_each_point_array_once(monkeypatch):
    # a frame at the nodes alone; the 33-point grid per node that gives the
    # partials of A n at the nodes and their stencil points reads only the
    # chart jacobian, the normal and V, and its ChartMetric at the 8 stencil
    # points per node is completed to their frames, so the patch's chart and
    # shape operator run on the nodes and those stencil points, never on
    # the grid.  A, Q2 and the chart partials of w and
    # of (g2 - g1) n once, over the union of the nodes and their stencil
    # points, as A n on the grid needs none of them.  The chart partials of
    # V: at the nodes by the isometry check, and on the grid, which hands
    # them and A n at the nodes and their stencil points to the bundle
    from shellgamma import geometry, kinematics, limit2d, material
    seen = {"frame": [], "A_at": [], "reduce_q2": [], "w.d1": [], "gamma_n_partials": []}
    V_reads = []
    patch_calls = {"chart": [], "shape_operator": []}
    sphere_chart = geometry._sphere_chart
    frame = geometry.SurfacePatch.frame
    A_at = kinematics.IsometryField.A_at
    reduce_q2 = material.reduce_q2
    gamma_n_partials = kinematics.gamma_n_partials
    zero_vector_field = fields.zero_vector_field
    rigid_field = fields.rigid_field

    def counting_gamma_n_partials(m, dn, thick):
        seen["gamma_n_partials"].append(m.u.copy())
        return gamma_n_partials(m, dn, thick)

    def counting_frame(self, u):
        seen["frame"].append(np.array(u, dtype=float))
        return frame(self, u)

    def counting_A_at(self, fr, An, DV):
        seen["A_at"].append(fr.u.copy())
        return A_at(self, fr, An, DV)

    def recording(f, calls):
        def recorded(u):
            calls.append(np.shape(u))
            return f(u)
        return recorded

    def counting_sphere_chart(*args):
        patch = sphere_chart(*args)
        return dataclasses.replace(patch, **{name: recording(getattr(patch, name), calls)
                                             for name, calls in patch_calls.items()})

    def counting_reduce_q2(q3, n, *args, **kwargs):
        seen["reduce_q2"].append(np.array(n, dtype=float))
        return reduce_q2(q3, n, *args, **kwargs)

    monkeypatch.setattr(geometry.SurfacePatch, "frame", counting_frame)
    monkeypatch.setattr(kinematics.IsometryField, "A_at", counting_A_at)
    # the builtin's w and V
    monkeypatch.setattr(fields, "zero_vector_field",
                        lambda: counting_d1(zero_vector_field(), seen["w.d1"]))
    monkeypatch.setattr(fields, "rigid_field",
                        lambda *args: counting_d1(rigid_field(*args), V_reads))
    monkeypatch.setattr(kinematics, "gamma_n_partials", counting_gamma_n_partials)
    monkeypatch.setattr(geometry, "_sphere_chart", counting_sphere_chart)
    for module in (material, limit2d, recovery3d, studies):
        monkeypatch.setattr(module, "reduce_q2", counting_reduce_q2)

    def repeats(arrays):
        return sum(any(a.shape == b.shape and np.array_equal(a, b) for b in arrays[:i])
                   for i, a in enumerate(arrays))

    counts = []
    cfg = load_config("sphere-gamma")
    for surface_order in (4, 10):
        for calls in [*seen.values(), V_reads, *patch_calls.values()]:
            calls.clear()
        report = run_study(dataclasses.replace(
            cfg, quadrature={"surface_order": surface_order, "transversal_order": 4}))
        assert report.error is None
        assert {name: repeats(calls) for name, calls in seen.items()} == {
            "frame": 0, "A_at": 0, "reduce_q2": 0, "w.d1": 0, "gamma_n_partials": 0}
        nodes = surface_order ** 2
        assert [u.shape for u in seen["frame"]] == [(nodes, 2)]
        for name in ("w.d1", "gamma_n_partials", "A_at"):
            assert [u.shape for u in seen[name]] == [(9, nodes, 2)]
        # 1 + 33 chart points per node, in 2 reads
        assert len(V_reads) == 2
        assert sum(u.size // 2 for u in V_reads) == 34 * nodes
        # the shape operator at the nodes and their stencil points; the chart at
        # the nodes alone, as no reader of the recovery bundle takes x there
        assert {name: set(shapes) for name, shapes in patch_calls.items()} == {
            "chart": {(nodes, 2)}, "shape_operator": {(nodes, 2), (8, nodes, 2)}}
        counts.append({name: len(calls) for name, calls in seen.items()})
    assert counts[0] == counts[1] == {"frame": 1, "A_at": 1, "reduce_q2": 1, "w.d1": 1,
                                      "gamma_n_partials": 1}


# the seed-0 config of the gamma-plate-load benchmark workload
GAMMA_PLATE_LOAD = {
    "study": "gamma-limit",
    "patch": {"kind": "plate"},
    "thickness": {"g1": {"kind": "constant", "value": 0.4},
                  "g2": {"kind": "constant", "value": 0.6}},
    "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1},
               "w": {"family": "trig", "components": [[0.4, 1.3, 0.2, 0.9, 0.5],
                                                      [0.3, 0.7, 1.1, 1.4, 0.3],
                                                      [0.5, 1.1, 0.4, 0.8, 1.2]]}},
    "load": {"family": "plate_sine_balanced", "amplitude": 1.0},
    "h_schedule": [2.0 ** -k for k in range(3, 8)],
    "quadrature": {"surface_order": 10, "transversal_order": 4},
}


def test_gamma_study_forms_one_offset_jacobian_per_h_and_no_batched_svd(monkeypatch):
    # per study, the thin-shell guard forms Id + h t Pi once over the whole
    # schedule, and grad y^h forms no 3x3 offset matrix: its volume factor
    # and its own thin-shell check come from the invariants of Pi over
    # (H, T, N).  grad y^h inverts no 3x3 frame, the energy forms one Green
    # strain over (H, T, N), and the SO(3) distance of that gradient array is
    # taken without an SVD.  The loaded study reads y^h through its
    # transversal moments alone: eval_J_h never evaluates y^h.  No study
    # calls LAPACK over batch axes: the per-node 3x3 kernels are closed
    # forms, and only single matrices reach it (wahba_maximize, the rotation
    # check in limit2d)
    offsets = {"offset_jacobian": [], "offset_determinant": []}
    strain_shapes, evaluated = [], []
    linalg_shapes = {name: [] for name in ("svd", "inv", "solve", "det", "cholesky")}
    green_strain = recovery3d.green_strain
    build_recovery = studies.build_recovery

    def counting(name):
        call = getattr(recovery3d, name)

        def counted(frame, t):
            offsets[name].append(np.shape(t))
            return call(frame, t)
        return counted

    def recording(name):
        call = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            linalg_shapes[name].append(np.shape(a))
            return call(a, *args, **kwargs)
        return recorded

    def recording_green_strain(F):
        strain_shapes.append(np.shape(F))
        return green_strain(F)

    def recording_build_recovery(data, h, e_h):
        rec = build_recovery(data, h=h, e_h=e_h)

        def evaluate(t):
            evaluated.append(np.shape(t))
            return rec.evaluate(t)
        return dataclasses.replace(rec, evaluate=evaluate)

    for name in offsets:
        monkeypatch.setattr(recovery3d, name, counting(name))
    monkeypatch.setattr(recovery3d, "green_strain", recording_green_strain)
    monkeypatch.setattr(studies, "build_recovery", recording_build_recovery)
    for name in linalg_shapes:
        monkeypatch.setattr(np.linalg, name, recording(name))
    cfg = load_config("sphere-gamma")
    report = run_study(cfg)
    assert report.error is None and report.passed
    assert len(cfg.h_schedule) == 5
    assert offsets == {"offset_jacobian": [(5, 2, 100)], "offset_determinant": [(5, 4, 100)]}
    assert strain_shapes == [(5, 4, 100, 3, 3)]
    loaded, expansion = (run_study(validate_config(GAMMA_PLATE_LOAD)),
                         run_study(load_config("plate-expansion")))
    assert all(r.error is None and r.passed for r in (loaded, expansion))
    assert "J_rel_gap_at_smallest_h" in loaded.summary
    assert evaluated == []
    assert linalg_shapes["inv"] == []
    batched = {name: [shape for shape in shapes if len(shape) > 2]
               for name, shapes in linalg_shapes.items()}
    assert not any(batched.values()), batched


def gamma_pieces(cfg):
    """The h-independent objects of a gamma study: data, material, quadratures, load."""
    patch, thick, squad, iso, w = studies._gamma_scene(cfg)
    material = studies._build(studies._MATERIALS, "type", cfg.material)
    trule = TransversalRule.make(cfg.quadrature["transversal_order"])
    data = recovery3d.recovery_data(patch, material, iso, w, thick, cfg.kappa, squad.frame)
    f = None if cfg.load is None else studies._build(studies._LOADS, "family", cfg.load,
                                                     squad.frame)
    return data, material, squad, trule, f


@pytest.mark.parametrize("name", ["plate-gamma", "sphere-gamma", "sphere-anisotropic-gamma",
                                  "plate-load"])
def test_schedule_pass_equals_the_scalar_evaluation_bit_for_bit(name):
    cfg = validate_config(GAMMA_PLATE_LOAD) if name == "plate-load" else load_config(name)
    data, material, squad, trule, f = gamma_pieces(cfg)
    hs = np.array(cfg.h_schedule)
    e_hs = cfg.e_of_h(hs)
    rec = recovery3d.build_recovery(data, hs, e_hs)
    batched = recovery3d.eval_shell_energy(rec, material, squad, trule)
    singles = []
    for h, e_h in zip(cfg.h_schedule, e_hs):
        one = recovery3d.build_recovery(data, h, e_h)
        ev = recovery3d.eval_shell_energy(one, material, squad, trule)
        J_h = math.nan if f is None else loads.eval_J_h(one, ev.E_h, f, squad, trule)
        bound = recovery3d.shell_energy_tangential_lower_bound(one, material, squad, trule)
        singles.append(dataclasses.astuple(ev) + (J_h, bound))
    J_h = np.full(len(hs), math.nan) if f is None else loads.eval_J_h(
        rec, batched.E_h, f, squad, trule)
    bound = recovery3d.shell_energy_tangential_lower_bound(rec, material, squad, trule)
    expected = np.array(singles).T
    got = np.array(dataclasses.astuple(batched) + (J_h, bound))
    assert got.shape == expected.shape == (6, len(hs))
    assert np.array_equal(got, expected, equal_nan=True)


def test_averaged_displacement_of_a_schedule_is_a_parameter_error():
    # both diagnostics take a scalar h: a schedule fails naming h, before y^h is
    # evaluated or summed through the thickness
    cfg = load_config("sphere-gamma")
    data, material, squad, trule, f = gamma_pieces(cfg)
    hs = np.array([2.0 ** -4, 2.0 ** -5])
    evaluated = []

    def schedule(data):
        return dataclasses.replace(recovery3d.build_recovery(data, hs, cfg.e_of_h(hs)),
                                   evaluate=lambda t: evaluated.append(t),
                                   transversal_sum=lambda t, wt: evaluated.append(t))

    # the sym-grad diagnostic reads data built at the stencil points of its probe
    patch, thick, _, iso, w = studies._gamma_scene(cfg)
    probe = squad.frame[3]
    stencil = fields.stencil_points(probe.u, fields.stencil_steps(probe.u, patch.domain))
    probe_data = recovery3d.recovery_data(patch, material, iso, w, thick, cfg.kappa,
                                          patch.frame(stencil))
    for diagnostic in (lambda: recovery3d.averaged_displacement(schedule(data), trule),
                       lambda: recovery3d.averaged_displacement_sym_grad(
                           schedule(probe_data), trule, probe, patch.domain)):
        with pytest.raises(ParameterError, match=r"^h must be a scalar"):
            diagnostic()
    assert evaluated == []


@pytest.mark.parametrize("name", ["plate-expansion", "sphere-expansion", "cylinder-expansion"])
def test_expansion_residuals_of_a_schedule_equal_the_scalar_ones_bit_for_bit(name):
    cfg = load_config(name)
    patch, thick, squad, iso, w = studies._gamma_scene(cfg)
    data = kinematics.expansion_data(patch, iso, w, thick, squad)
    hs = np.array(cfg.h_schedule)
    for residual in (kinematics.stretching_expansion_residual,
                     kinematics.bending_expansion_residual):
        batched = residual(data, hs)
        assert batched.shape == hs.shape
        assert np.array_equal(batched, [residual(data, h) for h in cfg.h_schedule])


def test_a_thin_shell_failure_at_the_first_h_aborts_the_schedule():
    # factor 1 - h t / R: negative at h = 1/8 on a cap of radius 0.05 and
    # thickness 1/2 + 1/2, positive from h = 1/16 on
    cfg = validate_config({**json.loads(serialize_config(load_config("sphere-gamma"))),
                           "patch": {"kind": "sphere_cap", "radius": 0.05,
                                     "cap_angle": math.pi / 3}})
    data = gamma_pieces(cfg)[0]
    h0, e0 = cfg.h_schedule[0], cfg.e_of_h(cfg.h_schedule[0])
    with pytest.raises(ThicknessError) as scalar:
        recovery3d.build_recovery(data, h0, e0)
    recovery3d.build_recovery(data, cfg.h_schedule[1], cfg.e_of_h(cfg.h_schedule[1]))
    report = run_study(cfg)
    assert report.rows == [StudyRow(h=h0, e_h=e0, status="error")]
    assert report.error == f"aborted at h={h0}: {scalar.value}"
    assert not report.passed


def blow_up_below(monkeypatch, strain):
    """Make every h whose largest |E| entry is below `strain` blow up."""
    so3_distance = recovery3d.so3_distance

    def forced(E):
        small = np.abs(E).reshape(E.shape[:-4] + (-1,)).max(axis=-1) < strain
        return np.where(np.asarray(small)[..., None, None], 1.0, so3_distance(E))

    monkeypatch.setattr(recovery3d, "so3_distance", forced)


def test_a_blow_up_mid_schedule_keeps_the_rows_before_it(monkeypatch):
    # the largest |E| entry per h is about 0.10, 0.024, 0.0059, 0.0015, 0.00037
    cfg = validate_config(GAMMA_PLATE_LOAD)
    whole = run_study(cfg)
    blow_up_below(monkeypatch, 0.012)
    report = run_study(cfg)
    assert report.rows[:2] == whole.rows[:2]
    assert report.rows[2] == StudyRow(h=cfg.h_schedule[2], e_h=cfg.e_of_h(cfg.h_schedule[2]),
                                      status="error")
    assert len(report.rows) == 3 and not report.passed
    # the third h is the first whose gradient leaves SO(3); the error names it and its node
    assert report.error == ("aborted at h=0.03125: gradient at distance 1.000e+00 from "
                            "SO(3) at u=(0.013046735741414128, 0.013046735741414128), "
                            "t=-0.3306")
    # J^h of the smallest h is written only when the whole schedule ran
    assert "J_rel_gap_at_smallest_h" in whole.summary
    assert "J_rel_gap_at_smallest_h" not in report.summary
    assert report.summary["J_limit"] == whole.summary["J_limit"]


@pytest.mark.parametrize("name", ["plate-gamma", "sphere-gamma"])
def test_gamma_gap_does_not_depend_on_the_quadrature_order(name):
    # surface and transversal Gauss orders around the builtin 10/4; surface
    # order 6 is already off by about 4e-4 on the plate
    cfg = load_config(name)
    reference = run_study(cfg).summary["raw_rel_gap_at_smallest_h"]
    for surface_order in (8, 10, 12):
        for transversal_order in (3, 4, 5):
            report = run_study(dataclasses.replace(
                cfg, quadrature={"surface_order": surface_order,
                                 "transversal_order": transversal_order}))
            assert report.passed
            gap = report.summary["raw_rel_gap_at_smallest_h"]
            assert abs(gap - reference) <= 1e-4 * reference, (
                surface_order, transversal_order, gap, reference)


def read_rows(path):
    """The rows of a report CSV as StudyRow objects; empty cells read as None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_HEADER
        return [StudyRow(**{col: cell if col == "status" else float(cell) if cell else None
                            for col, cell in row.items()}) for row in reader]


def test_write_report_empty_schedule(tmp_path):
    report = StudyReport(kind="gamma-limit", rows=[], summary={}, passed=True)
    csv_path, summary_path = write_report(report, str(tmp_path / "r.csv"))
    text = pathlib.Path(csv_path).read_text()
    assert text == ",".join(CSV_HEADER) + "\n"
    assert os.path.exists(summary_path)


def test_write_report_round_trip_and_selfconsistency(tmp_path):
    rows = [StudyRow(h=2.0 ** -k, e_h=2.0 ** (-4 * k), E_h=1.0 / k,
                     normalized=1.0 + 1.0 / k, I_limit=1.0, rel_gap=1.0 / k,
                     status="ok") for k in range(3, 8)]
    rows[-1].status = "pass"
    report = StudyReport(kind="gamma-limit", rows=rows,
                         summary={"I_limit": 1.0}, passed=True)
    csv_path, _ = write_report(report, str(tmp_path / "r.csv"))
    parsed = read_rows(csv_path)
    assert len(parsed) == 5
    for a, b in zip(rows, parsed):
        for col in CSV_HEADER:
            assert getattr(a, col) == getattr(b, col)
    # rows sorted by h descending
    hs = [r.h for r in parsed]
    assert hs == sorted(hs, reverse=True)


def test_reports_are_deterministic(tmp_path):
    cfg = load_config("q2-isotropic")
    texts = []
    for tag in ("a", "b"):
        report = run_study(cfg)
        path, spath = write_report(report, str(tmp_path / f"{tag}.csv"))
        texts.append(pathlib.Path(path).read_text() + pathlib.Path(spath).read_text())
    assert texts[0] == texts[1]


def test_run_q2_study_passes():
    report = run_study(load_config("q2-isotropic"))
    assert report.passed and report.error is None
    assert report.rows[0].status == "pass"
    assert report.rows[0].residual_stretch <= 1e-10
    assert report.rows[0].residual_bend <= 1e-8


def test_run_study_with_anisotropic_material():
    A = np.random.default_rng(50).normal(size=(6, 6))
    M = A @ A.T + np.eye(6)
    entries = [M[i, j] for i in range(6) for j in range(i, 6)]
    doc = {"study": "q2-check", "material": {"type": "q3", "matrix": entries}}
    report = run_study(validate_config(doc))
    assert report.passed  # brute-force comparison only, no closed form
    assert report.summary["brute_force_max_dev"] <= 1e-8

    # a q3 material is the stored energy W(E) = (1/2) Q3(E), so every study takes it
    gamma_doc = {**MINIMAL_GAMMA, "material": {"type": "q3", "matrix": entries}}
    report = run_study(validate_config(gamma_doc))
    assert report.passed and report.error is None
    assert report.rows[-1].status == "pass"


def test_q2_anisotropic_builtin_passes_with_no_closed_form_figure(tmp_path):
    cfg = load_config("q2-anisotropic")
    assert validate_config(json.loads(serialize_config(cfg))) == cfg
    report = run_study(cfg)
    assert report.passed and report.rows[0].status == "pass"
    assert report.summary["brute_force_max_dev"] <= 1e-12
    # a q3 material has no closed-form Q2, so the report claims no comparison
    assert "closed_form_max_rel_dev" not in report.summary
    assert "no closed-form" in report.summary["note"]
    csv_path, _ = write_report(report, str(tmp_path / "q2a.csv"))
    row, = read_rows(csv_path)
    assert row.residual_stretch is None and row.residual_bend <= 1e-12


def test_q2_anisotropic_builtin_fails_a_reduction_that_ignores_its_frame(monkeypatch):
    # every sample has its own frame; a reduction at the fixed frame (e1, e2, e3)
    # agreed with the oracle while q2-check drew no frame
    reduce_q2 = studies.reduce_q2
    fixed = np.eye(3)
    monkeypatch.setattr(studies, "reduce_q2",
                        lambda q3, n, T: reduce_q2(q3, fixed[2], fixed[:, :2]))
    report = run_study(load_config("q2-anisotropic"))
    assert report.summary["brute_force_max_dev"] > 1.0
    assert not report.passed and report.rows[0].status == "fail"


def test_q2_anisotropic_builtin_fails_a_wrong_reduction(monkeypatch):
    # only the brute-force gate can catch a reduction of a slightly wrong Q3 here
    reduce_q2 = studies.reduce_q2
    monkeypatch.setattr(studies, "reduce_q2", lambda q3, *frame: reduce_q2(
        studies.QuadForm3(matrix6=1.000001 * q3.matrix6), *frame))
    report = run_study(load_config("q2-anisotropic"))
    assert report.summary["brute_force_max_dev"] > 1e-8
    assert not report.passed and report.rows[0].status == "fail"


def test_run_study_error_is_reported_not_raised():
    # a recovery that leaves the neighborhood of SO(3) at the first h aborts
    # the gamma study into an error report
    doc = {**MINIMAL_GAMMA,
           "fields": {"V": {"family": "plate_sine", "amplitude": 100.0,
                            "m": 1, "n": 1}}}
    report = run_study(validate_config(doc))
    assert not report.passed
    assert report.error is not None
    assert report.error.startswith("aborted at h=0.125: gradient at distance")
    assert [row.status for row in report.rows] == ["error"]


@pytest.mark.parametrize("study", ["gamma-limit", "expansion-order"])
def test_non_isometric_V_is_a_config_error(study, tmp_path, capsys):
    # as the thickness checks: exit 2 naming the worst node, and no report
    components = [[0.1, 1.3, 0.2, 0.9, 0.5], [0.05, 0.7, 1.1, 1.4, 0.3],
                  [0.2, 1.1, 0.4, 0.8, 1.2]]
    doc = {"study": study, "fields": {"V": {"family": "trig", "components": components}},
           "output": str(tmp_path / "v.csv")}
    cfg_path = tmp_path / "v.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    cfg = load_config(str(cfg_path))
    plate = make_builtin_patch(**cfg.patch)
    quad = surface_quadrature(plate, cfg.quadrature["surface_order"])
    with pytest.raises(NotAnIsometryError) as exc:
        kinematics.build_isometry(fields.trig_vector_field(components), quad=quad)
    assert exc.value.residual > 1e-2
    assert err == f"error: fields.V: {exc.value}\n"
    assert err.rstrip().endswith(f"at u={tuple(exc.value.u.tolist())}"), err
    assert out == ""
    assert not (tmp_path / "v.csv").exists()
    assert not (tmp_path / "v.summary.txt").exists()


def test_gamma_study_with_load_reports_total_energy(monkeypatch):
    import shellgamma.limit2d as limit2d
    import shellgamma.studies as studies
    calls = []
    eval_I = limit2d.eval_I

    def counting_eval_I(*args, **kwargs):
        calls.append(1)
        return eval_I(*args, **kwargs)

    monkeypatch.setattr(studies, "eval_I", counting_eval_I)
    monkeypatch.setattr(limit2d, "eval_I", counting_eval_I)
    doc = {**MINIMAL_GAMMA,
           "load": {"family": "plate_sine_balanced", "amplitude": 1.0},
           "quadrature": {"surface_order": 6, "transversal_order": 4},
           "h_schedule": [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6]}
    report = run_study(validate_config(doc))
    assert calls == [1]  # J reuses the study's I
    assert report.passed
    assert "J_limit" in report.summary
    assert report.summary["J_rel_gap_at_smallest_h"] <= 0.05


def test_gamma_plate_load_evaluates_its_load_once(monkeypatch):
    # the load is its node values, built once per scene: count each
    # evaluation of its formula, by the builder and by any function it returns
    kind = studies._LOADS["plate_sine_balanced"]
    evaluations = []

    def count(f):
        def counted(*args):
            evaluations.append(1)
            out = f(*args)
            return count(out) if callable(out) else out
        return counted

    monkeypatch.setitem(studies._LOADS, "plate_sine_balanced",
                        dataclasses.replace(kind, build=count(kind.build)))
    doc, = _perfbench_module("workloads").study_configs("gamma-plate-load", 0).values()
    report = run_study(validate_config(doc))
    assert report.passed
    assert len(evaluations) == 1


def test_gamma_study_rejects_incompatible_load():
    doc = {**MINIMAL_GAMMA,
           "load": {"family": "constant", "vector": [0.0, 0.0, 1.0]},
           "quadrature": {"surface_order": 4, "transversal_order": 3}}
    with pytest.raises(ConfigError) as err:
        run_study(validate_config(doc))
    assert err.value.key_path == "load"
    assert "compatibility" in str(err.value)


def test_cli_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "plate-gamma" in out and "q2-isotropic" in out


def test_cli_lists_the_note_of_every_builtin(monkeypatch, capsys):
    # the note lives with its scenario, so a new builtin brings its own
    monkeypatch.setitem(studies.BUILTIN_SCENARIOS, "extra-scenario", studies.Scenario(
        "an added scenario", {"study": "load-align"}))
    assert cli.main(["list-scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(studies.BUILTIN_SCENARIOS)
    for line, name in zip(lines, sorted(studies.BUILTIN_SCENARIOS)):
        note = studies.BUILTIN_SCENARIOS[name].note
        assert note and line.split(None, 1) == [name, note]


def test_cli_run_builtin_and_overrides(tmp_path, capsys):
    out_csv = str(tmp_path / "q2.csv")
    assert cli.main(["run", "--config", "q2-isotropic", "--out", out_csv]) == 0
    assert os.path.exists(out_csv)
    assert os.path.exists(str(tmp_path / "q2.summary.txt"))
    capsys.readouterr()


def test_cli_run_config_file_with_h_list(tmp_path, capsys):
    doc = {"study": "expansion-order",
           "patch": {"kind": "plate"},
           "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1},
                      "w": {"family": "trig",
                            "components": [[0.4, 1.3, 0.2, 0.9, 0.5],
                                           [0.3, 0.7, 1.1, 1.4, 0.3],
                                           [0.5, 1.1, 0.4, 0.8, 1.2]]}},
           "quadrature": {"surface_order": 4, "transversal_order": 4},
           "output": str(tmp_path / "exp.csv")}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["run", "--config", str(cfg_path),
                   "--h-list", "0.125,0.0625,0.03125,0.015625,0.0078125"])
    assert rc == 0
    rows = read_rows(str(tmp_path / "exp.csv"))
    assert len(rows) == 5
    assert rows[0].h == 0.125
    capsys.readouterr()


def test_cli_quad_order_reaches_the_study(tmp_path, monkeypatch, capsys):
    seen = []

    def recording_run_study(cfg):
        seen.append(cfg.quadrature)
        return run_study(cfg)

    monkeypatch.setattr(cli, "run_study", recording_run_study)
    doc = {**MINIMAL_GAMMA, "quadrature": {"surface_order": 4, "transversal_order": 3},
           "h_schedule": [2.0 ** -k for k in range(3, 7)]}
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps(doc))
    out = str(tmp_path / "g.csv")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == 0
    I_4 = read_rows(out)[0].I_limit
    assert cli.main(["run", "--config", str(cfg_path), "--out", out,
                     "--quad-order", "6"]) == 0
    assert seen == [{"surface_order": 4, "transversal_order": 3},
                    {"surface_order": 6, "transversal_order": 3}]
    assert read_rows(out)[0].I_limit != I_4
    capsys.readouterr()


def test_cli_malformed_h_list_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", "q2-isotropic", "--out", str(tmp_path / "q.csv"),
                     "--h-list", "0.1,abc"]) == 2
    assert capsys.readouterr().err == (
        "error: --h-list must be comma-separated floats, got '0.1,abc'\n")
    assert not os.path.exists(tmp_path / "q.csv")


@pytest.mark.parametrize("bad, override, key_path", [
    ({"h_schedule": [0.5, 0.25]}, ["--h-list", "0.125,0.0625,0.03125,0.015625"],
     "h_schedule"),
    ({"quadrature": {"surface_order": 0}}, ["--quad-order", "4"],
     "quadrature.surface_order"),
    ({"output": ""}, ["--out", "ok.csv"], "output"),
])
def test_cli_override_does_not_mend_an_invalid_config(bad, override, key_path, tmp_path,
                                                       monkeypatch, capsys):
    # overrides replace keys of a config that must be valid as written
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**MINIMAL_GAMMA, **bad}))
    assert cli.main(["run", "--config", str(cfg_path), *override]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key_path}: ")


def test_cli_exit_codes(tmp_path, capsys):
    # error: unknown config
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    # failure: impossible tolerance
    doc = {"study": "q2-check",
           "tolerances": {"brute_force_tol": 0.0, "samples": 10},
           "output": str(tmp_path / "fail.csv")}
    cfg_path = tmp_path / "fail.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"study": "q2-check",'],
                         ids=["not-utf8", "invalid-json"])
def test_cli_config_file_that_is_not_json_exits_2(content, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(content)
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: invalid JSON in {cfg_path}: "), err
    assert out == ""


def test_summary_matches_recomputation_from_rows(tmp_path):
    cfg = validate_config({**MINIMAL_GAMMA,
                           "quadrature": {"surface_order": 4, "transversal_order": 3},
                           "output": str(tmp_path / "g.csv")})
    report = run_study(cfg)
    csv_path, summary_path = write_report(report, cfg.output)
    rows = read_rows(csv_path)
    summary = dict(line.split(": ", 1) for line in
                   pathlib.Path(summary_path).read_text().strip().splitlines())

    # recompute the pass verdict from the CSV alone
    raw_ok = rows[-1].rel_gap <= float(summary["raw_rel_gap_tolerance"])
    order, r2 = fit_order([(r.h, abs(r.normalized - r.I_limit)) for r in rows])
    assert float(summary["fitted_gap_r2"]) == pytest.approx(r2, rel=1e-12)
    assert float(summary["fitted_gap_order"]) == pytest.approx(order, rel=1e-12)
    extrap = richardson_extrapolate(rows[-2].h, rows[-2].normalized,
                                    rows[-1].h, rows[-1].normalized, order=order)
    I_val = rows[-1].I_limit
    extr_ok = abs(extrap - I_val) / abs(I_val) <= float(
        summary["extrapolated_rel_gap_tolerance"])
    fit_ok = r2 >= float(summary["gap_r2_min"])
    assert (summary["passed"] == "true") == (raw_ok and extr_ok and fit_ok)
    assert (rows[-1].status == "pass") == (summary["passed"] == "true")
    assert float(summary["extrapolated_limit"]) == pytest.approx(extrap, rel=1e-12)
