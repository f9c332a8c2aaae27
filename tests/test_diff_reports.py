"""The field diff of tools/diff_reports.py, on hand-written report texts."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "diff_reports.py")
_spec = importlib.util.spec_from_file_location("diff_reports", _PATH)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)

CSV = ("h,E_h,rel_gap,residual_bend,status\n"
       "0.125,0.0004331308182188373,0.008919721673494608,,ok\n"
       "0.0625,2.6890827689234393e-05,0.002216799048812627,,pass\n")
SUMMARY = ("study: gamma-limit\n"
           "passed: true\n"
           "fitted_gap_order: 2.0025276727434833\n"
           "gap_r2_min: 0.98\n")


def diff(name, old, new):
    return diff_reports.diff_fields(list(diff_reports.report_fields(name, old)),
                                    list(diff_reports.report_fields(name, new)))


def test_identical_reports_have_no_changes():
    assert diff("a.csv", CSV, CSV) == ([], [])
    assert diff("a.summary.txt", SUMMARY, SUMMARY) == ([], [])


def test_numeric_cells_and_values_report_absolute_and_relative_change():
    new_csv = CSV.replace("0.002216799048812627", "0.002216799048812827")
    numeric, other = diff("a.csv", CSV, new_csv)
    assert other == []
    [(label, a, b, change, rel)] = numeric
    assert (label, a, b) == ("row 2 rel_gap", "0.002216799048812627", "0.002216799048812827")
    assert change == pytest.approx(2e-19, rel=1e-3)
    assert rel == pytest.approx(2e-19 / 0.002216799048812627, rel=1e-3)
    numeric, other = diff("a.summary.txt", SUMMARY,
                          SUMMARY.replace("2.0025276727434833", "2.0025276727434"))
    assert other == [] and [n[0] for n in numeric] == ["fitted_gap_order"]


def test_words_keys_and_rows_are_not_numeric_changes():
    numeric, other = diff("a.csv", CSV, CSV.replace(",pass\n", ",fail\n"))
    assert numeric == [] and other == [("row 2 status", "pass", "fail")]
    # a number that appears in an empty cell is a change of kind, not of value
    numeric, other = diff("a.csv", CSV, CSV.replace(",,ok", ",1e-3,ok"))
    assert numeric == [] and other == [("row 1 residual_bend", "", "1e-3")]
    numeric, other = diff("a.summary.txt", SUMMARY, SUMMARY.replace("passed: true", "passed: false"))
    assert numeric == [] and other == [("passed", "true", "false")]
    # an added key shifts every later field, so it never reads as numeric only
    numeric, other = diff("a.summary.txt", SUMMARY,
                          SUMMARY.replace("gap_r2_min", "fitted_gap_r2: 0.99\ngap_r2_min"))
    assert other
    numeric, other = diff("a.csv", CSV, CSV + "0.03125,1.6e-06,0.0005,,ok\n")
    assert numeric == [] and other


def test_a_value_turning_non_finite_is_not_a_numeric_change(tmp_path, capsys):
    # nan or inf on either side is a change of kind: compare fails on it
    for old, new in [("0.001", "nan"), ("1.0", "inf"), ("-inf", "2.0"), ("nan", "inf")]:
        text = SUMMARY.replace("0.98", old)
        numeric, other = diff("a.summary.txt", text, text.replace(old, new))
        assert numeric == [] and other == [("gap_r2_min", old, new)]
    dirs = [tmp_path / "parent", tmp_path / "change"]
    for d, value in zip(dirs, ("0.001", "nan")):
        d.mkdir()
        (d / "exit_codes.json").write_text(json.dumps({"s": 0}))
        (d / "s.csv").write_text(CSV.replace("0.008919721673494608", value))
    assert not diff_reports.compare(*dirs)
    out = capsys.readouterr().out.splitlines()
    assert out == ["s.csv: row 1 rel_gap: '0.001' -> 'nan'  NOT NUMERIC",
                   "1 studies, 0 numeric fields changed, OTHER CHANGES"]


def test_compare_fails_on_exit_codes_and_missing_files(tmp_path, capsys):
    dirs = [tmp_path / "parent", tmp_path / "change"]
    for d, summary, code in zip(dirs, (SUMMARY, SUMMARY.replace("0.98", "0.97")), (0, 0)):
        d.mkdir()
        (d / "exit_codes.json").write_text(json.dumps({"s": code}))
        (d / "s.csv").write_text(CSV)
        (d / "s.summary.txt").write_text(summary)
    assert diff_reports.compare(*dirs)
    assert "s.summary.txt: gap_r2_min: 0.98 -> 0.97" in capsys.readouterr().out
    (dirs[1] / "exit_codes.json").write_text(json.dumps({"s": 1}))
    assert not diff_reports.compare(*dirs)
    (dirs[1] / "exit_codes.json").write_text(json.dumps({"s": 0}))
    (dirs[1] / "s.csv").unlink()
    assert not diff_reports.compare(*dirs)


def test_compare_prints_the_largest_change_per_field_name(tmp_path, capsys):
    # the largest absolute change of rel_gap is in a.csv, the largest relative in b.csv
    new = {"a.csv": CSV.replace("0.008919721673494608", "0.008919721773494608"),
           "b.csv": CSV.replace("0.002216799048812627", "0.002216799098812627"),
           "b.summary.txt": SUMMARY.replace("2.0025276727434833", "2.0025276727434")}
    dirs = [tmp_path / "parent", tmp_path / "change"]
    for d in dirs:
        d.mkdir()
        (d / "exit_codes.json").write_text(json.dumps({"a": 0, "b": 0}))
        for name in ("a.csv", "b.csv", "a.summary.txt", "b.summary.txt"):
            old = CSV if name.endswith(".csv") else SUMMARY
            (d / name).write_text(new.get(name, old) if d == dirs[1] else old)
    assert diff_reports.compare(*dirs)
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "fitted_gap_order: 1 changed, largest abs 8.35e-14 in b.summary.txt, "
        "largest rel 4.17e-14 in b.summary.txt",
        "rel_gap: 2 changed, largest abs 1e-10 in a.csv, largest rel 2.26e-08 in b.csv",
        "2 studies, 3 numeric fields changed, no other change"]
