import json
import math
import os

import numpy as np
import pytest

import shellgamma.cli as cli
from shellgamma.errors import ConfigError
from shellgamma.studies import (CSV_HEADER, StudyReport, StudyRow,
                                builtin_scenario_config, fit_order, parse_config,
                                read_report_rows, richardson_extrapolate,
                                run_study, serialize_config, validate_config,
                                write_report)

MINIMAL_GAMMA = {
    "study": "gamma-limit",
    "patch": {"kind": "plate"},
    "fields": {"V": {"family": "plate_sine", "amplitude": 1.0, "m": 1, "n": 1}},
}


def test_parse_minimal_document_materializes_defaults():
    cfg = parse_config(json.dumps(MINIMAL_GAMMA))
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
        parse_config(json.dumps(doc))
    assert "thickness.g1" in str(err.value)


def test_short_schedule_rejected():
    doc = dict(MINIMAL_GAMMA)
    doc["h_schedule"] = [0.25, 0.125]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "h_schedule" in str(err.value)


def test_unknown_keys_rejected_with_path():
    doc = dict(MINIMAL_GAMMA)
    doc["quadrature"] = {"surface_order": 8, "sureface_order": 9}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "quadrature" in str(err.value)

    with pytest.raises(ConfigError):
        parse_config(json.dumps({**MINIMAL_GAMMA, "extra_top": 1}))


def test_invalid_values_rejected():
    bad_h = {**MINIMAL_GAMMA, "h_schedule": [0.5, 0.25, 0.125, 1.5]}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad_h))
    increasing = {**MINIMAL_GAMMA, "h_schedule": [0.125, 0.25, 0.5, 0.6]}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(increasing))
    bad_kind = {**MINIMAL_GAMMA, "study": "other"}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad_kind))
    bad_alpha = {**MINIMAL_GAMMA, "kappa": 0.0,
                 "e_h": {"mode": "h_alpha", "alpha": 3.0}}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(bad_alpha))


def test_config_round_trip():
    for name in ("plate-gamma", "sphere-expansion", "q2-isotropic", "load-align"):
        cfg = builtin_scenario_config(name)
        assert parse_config(serialize_config(cfg)) == cfg


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


def test_richardson_extrapolation():
    f = lambda h: 7.0 + 3.0 * h
    assert richardson_extrapolate(0.2, f(0.2), 0.1, f(0.1), order=1) == pytest.approx(7.0)
    g = lambda h: 7.0 + 3.0 * h ** 2
    assert richardson_extrapolate(0.2, g(0.2), 0.1, g(0.1), order=2) == pytest.approx(7.0)


def test_write_report_empty_schedule(tmp_path):
    report = StudyReport(kind="gamma-limit", rows=[], summary={}, passed=True)
    csv_path, summary_path = write_report(report, str(tmp_path / "r.csv"))
    text = open(csv_path).read()
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
    parsed = read_report_rows(csv_path)
    assert len(parsed) == 5
    for a, b in zip(rows, parsed):
        for col in CSV_HEADER:
            assert getattr(a, col) == getattr(b, col)
    # rows sorted by h descending
    hs = [r.h for r in parsed]
    assert hs == sorted(hs, reverse=True)


def test_reports_are_deterministic(tmp_path):
    cfg = builtin_scenario_config("q2-isotropic")
    texts = []
    for tag in ("a", "b"):
        report = run_study(cfg)
        path, spath = write_report(report, str(tmp_path / f"{tag}.csv"))
        texts.append(open(path).read() + open(spath).read())
    assert texts[0] == texts[1]


def test_run_q2_study_passes():
    report = run_study(builtin_scenario_config("q2-isotropic"))
    assert report.passed and report.error is None
    assert report.rows[0].status == "pass"
    assert report.rows[0].residual_stretch <= 1e-10
    assert report.rows[0].residual_bend <= 1e-8


def test_run_study_with_anisotropic_material_q2_only():
    import shellgamma as sg
    M = sg.make_isotropic(1.2, 0.3).hessian_at_identity
    entries = [M[i, j] for i in range(6) for j in range(i, 6)]
    doc = {"study": "q2-check", "material": {"type": "q3", "matrix": entries}}
    report = run_study(validate_config(doc))
    assert report.passed  # brute-force comparison only, no closed form

    gamma_doc = {**MINIMAL_GAMMA, "material": {"type": "q3", "matrix": entries}}
    with pytest.raises(ConfigError):
        validate_config(gamma_doc)


def test_run_study_error_is_reported_not_raised():
    # a non-isometric V aborts the gamma study into an error report
    doc = {**MINIMAL_GAMMA,
           "patch": {"kind": "sphere_cap", "radius": 1.0, "cap_angle": 1.0},
           "fields": {"V": {"family": "plate_sine", "amplitude": 1.0,
                            "m": 1, "n": 1}}}
    report = run_study(validate_config(doc))
    assert not report.passed
    assert report.error is not None


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


def test_gamma_study_rejects_incompatible_load():
    doc = {**MINIMAL_GAMMA,
           "load": {"family": "constant", "vector": [0.0, 0.0, 1.0]},
           "quadrature": {"surface_order": 4, "transversal_order": 3}}
    report = run_study(validate_config(doc))
    assert not report.passed
    assert "compatibility" in report.error


def test_cli_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "plate-gamma" in out and "q2-isotropic" in out


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
    rows = read_report_rows(str(tmp_path / "exp.csv"))
    assert len(rows) == 5
    assert rows[0].h == 0.125
    capsys.readouterr()


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


def test_summary_matches_recomputation_from_rows(tmp_path):
    cfg = validate_config({**MINIMAL_GAMMA,
                           "quadrature": {"surface_order": 4, "transversal_order": 3},
                           "output": str(tmp_path / "g.csv")})
    report = run_study(cfg)
    csv_path, summary_path = write_report(report, cfg.output)
    rows = read_report_rows(csv_path)
    summary = dict(line.split(": ", 1) for line in
                   open(summary_path).read().strip().splitlines())

    # recompute the pass verdict from the CSV alone
    raw_ok = rows[-1].rel_gap <= float(summary["raw_rel_gap_tolerance"])
    order = int(summary["richardson_order"])
    extrap = richardson_extrapolate(rows[-2].h, rows[-2].normalized,
                                    rows[-1].h, rows[-1].normalized, order=order)
    I_val = rows[-1].I_limit
    extr_ok = abs(extrap - I_val) / abs(I_val) <= float(
        summary["extrapolated_rel_gap_tolerance"])
    assert (summary["passed"] == "true") == (raw_ok and extr_ok)
    assert float(summary["extrapolated_limit"]) == pytest.approx(extrap, rel=1e-12)
