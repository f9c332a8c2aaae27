"""tools/bench_pairs.py on canned results: no benchmark is started."""

import argparse
import importlib.util
import json
import os
import subprocess

import numpy as np
import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(_ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall_s, failed=0, rel_gap=0.5):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "rel_gap": {"value": rel_gap, "unit": "1"}}}


def test_seed_ranges():
    assert bench_pairs.parse_seeds("1-10") == range(1, 11)
    assert bench_pairs.parse_seeds("7") == range(7, 8)
    for text in ("5-3", "-1", "a-b", "1-"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_seeds(text)


def test_trees_compile_first_and_alternate_which_runs_first():
    events = []
    trees = {"parent": "/p", "change": "/c"}

    def run(tree, workload, seed, seconds):
        events.append(("run", tree, workload, seed, seconds))
        return result(1.0 if tree == "/p" else 0.9)

    pairs = bench_pairs.collect(trees, ["w1", "w2"], range(1, 4), 8.0, run=run,
                                byte_compile=lambda tree: events.append(("compile", tree)))
    assert events[:2] == [("compile", "/p"), ("compile", "/c")]
    assert [(e[1], e[2], e[3]) for e in events[2:]] == [
        ("/p", "w1", 1), ("/c", "w1", 1), ("/c", "w1", 2), ("/p", "w1", 2),
        ("/p", "w1", 3), ("/c", "w1", 3),
        ("/p", "w2", 1), ("/c", "w2", 1), ("/c", "w2", 2), ("/p", "w2", 2),
        ("/p", "w2", 3), ("/c", "w2", 3)]
    assert all(e[4] == 8.0 for e in events[2:])
    assert [(p["code"], p["seed"]) for p in pairs[:4]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert pairs[0] == {"code": "parent", "workload": "w1", "trace": 0, "seed": 1,
                        "seconds": 8.0, "result": result(1.0)}


def make_tree(root):
    for path in ("perfbench/run.py", "src/shellgamma/material.py"):
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text("x = 1\n")
    return str(root)


def test_a_source_edited_during_the_runs_names_its_tree_and_file(tmp_path):
    trees = {code: make_tree(tmp_path / code) for code in bench_pairs.CODES}

    def run(tree, workload, seed, seconds):
        if seed == 2:
            # bytecode is not a source; an edited module is
            os.makedirs(os.path.join(tree, "src", "__pycache__"), exist_ok=True)
            with open(os.path.join(tree, "src", "__pycache__", "material.pyc"), "w") as fh:
                fh.write("compiled")
            if tree == trees["change"]:
                with open(os.path.join(tree, "src", "shellgamma", "material.py"), "a") as fh:
                    fh.write("y = 2\n")
        return result(1.0)

    with pytest.raises(bench_pairs.SourcesChanged) as err:
        bench_pairs.collect(trees, ["w"], range(1, 4), 1.0, run=run,
                            byte_compile=lambda tree: None)
    assert str(err.value).splitlines()[1:] == [
        f"  change tree {trees['change']}: {os.path.join('src', 'shellgamma', 'material.py')}"]
    # unchanged sources pass
    pairs = bench_pairs.collect(trees, ["w"], range(1, 4), 1.0, run=lambda *args: result(1.0),
                                byte_compile=lambda tree: None)
    assert len(pairs) == 6


def test_a_changed_tree_exits_non_zero_without_json(tmp_path, monkeypatch, capsys):
    trees = [make_tree(tmp_path / code) for code in bench_pairs.CODES]

    def added_file(argv, cwd, **kwargs):
        # the compile step and then one benchmark run, which adds a source
        if "compileall" not in argv and cwd == trees[0]:
            (tmp_path / "parent" / "perfbench" / "extra.py").write_text("")
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result(1.0)) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", added_file)
    assert bench_pairs.main([*trees, "--workload", "w", "--seeds", "1", "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"parent tree {trees[0]}: {os.path.join('perfbench', 'extra.py')}" in err


def test_summary_counts_wins_ties_and_failures():
    walls = {1: (4.0, 3.0), 2: (2.0, 2.0), 3: (1.0, 1.5), 4: (3.0, 0.5)}
    pairs = [{"code": code, "workload": "w", "trace": 0, "seed": seed, "seconds": 1,
              "result": result(wall, failed=int(code == "change" and seed == 3))}
             for seed, both in walls.items() for code, wall in zip(("parent", "change"), both)]
    [(workload, entry)] = bench_pairs.summarize(pairs).items()
    assert workload == "w" and entry["pairs"] == 4
    assert entry["wall_s"] == {"parent": {"p25": 1.75, "p50": 2.5, "p75": 3.25},
                               "change": {"p25": 1.25, "p50": 1.75, "p75": 2.25},
                               "change_lower_in_pairs": 2, "equal_in_pairs": 1}
    assert entry["rel_gap"]["change_lower_in_pairs"] == 0
    assert entry["rel_gap"]["equal_in_pairs"] == 4
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 40, "change": 40}
    assert entry["correct"] == {"parent": True, "change": False}


def test_summary_reproduces_a_committed_record():
    with open(os.path.join(_ROOT, "BENCH_22.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert bench_pairs.summarize(record["pairs"]) == record["summary"]
    assert bench_pairs.summarize(record["recheck_pairs"]) == record["recheck_summary"]


def synthetic_pairs(walls):
    """Pairs of one workload "w" from (parent, change) wall_s values per seed."""
    return [{"code": code, "workload": "w", "trace": 0, "seed": seed, "seconds": 1,
             "result": result(wall)}
            for seed, both in enumerate(walls, 1) for code, wall in zip(bench_pairs.CODES, both)]


def verdict(walls):
    lines = bench_pairs.verdicts(bench_pairs.summarize(synthetic_pairs(walls)),
                                 bench_pairs.load_bounds())
    [wall_line] = [line for line in lines if line.startswith("w wall_s:")]
    [gap_line] = [line for line in lines if line.startswith("w rel_gap:")]
    assert gap_line.endswith("change lower in 0/10, equal in 10: unresolved; within bound")
    return wall_line


def test_verdict_needs_nine_wins_in_ten_and_a_step_beyond_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    assert verdict([(p, p - 0.1) for p in parent]) == (
        "w wall_s: median 1.045 -> 0.945 (-9.6%), parent IQR 0.045, "
        "change lower in 10/10, equal in 0: gain shown; within bound")
    # nine wins and one tie still show the gain; eight wins do not
    nine = [(p, p - 0.1) for p in parent[:9]] + [(parent[9], parent[9])]
    assert verdict(nine).endswith("change lower in 9/10, equal in 1: gain shown; within bound")
    eight = [(p, p - 0.1) for p in parent[:8]] + [(p, p) for p in parent[8:]]
    assert verdict(eight).endswith("change lower in 8/10, equal in 2: unresolved; within bound")
    # ten wins by less than the parent's IQR
    assert verdict([(p, p - 0.01) for p in parent]).endswith(": unresolved; within bound")
    # the same rule with the sides swapped
    assert verdict([(p, p + 0.1) for p in parent]).endswith(
        "change lower in 0/10, equal in 0: worse; within bound")
    assert verdict([(p, p + 0.01) for p in parent]).endswith(": unresolved; within bound")


def test_a_rounding_step_is_not_a_gain():
    # parent runs with no spread and a change 1.8e-14 lower in every pair:
    # 10 wins beyond an IQR of 0, but a step that small is rounding
    assert verdict([(0.5, 0.5 * (1.0 - 1.8e-14))] * 10).endswith(
        "change lower in 10/10, equal in 0: unresolved; within bound")
    assert verdict([(0.5, 0.5 * (1.0 + 1.8e-14))] * 10).endswith(
        "change lower in 0/10, equal in 0: unresolved; within bound")
    # a step past the rounding floor still reads by the 9-in-10 rule
    assert verdict([(0.5, 0.5 * (1.0 - 1e-8))] * 10).endswith(
        "change lower in 10/10, equal in 0: gain shown; within bound")


def bounded_verdicts(walls, bounds):
    lines = bench_pairs.verdicts(bench_pairs.summarize(synthetic_pairs(walls)), bounds)
    return {line.split(":")[0]: line.rsplit(": ", 1)[1] for line in lines}


def test_verdict_reads_better_and_bound_from_the_benchmark_declaration():
    declared = bench_pairs.load_bounds()
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    assert declared == {m["name"]: (m["better"], m["bound"]) for m in metrics}
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    bounds = {"wall_s": ("lower", 0.2), "rel_gap": ("lower", 0.1)}
    # a gain and an equal metric are both within bound
    assert bounded_verdicts([(p, p - 0.1) for p in parent], bounds) == {
        "w wall_s": "gain shown; within bound",
        "w rel_gap": "unresolved; within bound"}
    # +9.6% is worse by the 9-in-10 rule, and inside a 20% bound
    assert bounded_verdicts([(p, p + 0.1) for p in parent], bounds)["w wall_s"] == (
        "worse; within bound")
    # +28.7% is beyond it; the step is measured at the medians, not pair by pair
    assert bounded_verdicts([(p, p + 0.3) for p in parent], bounds)["w wall_s"] == (
        "worse; beyond bound")
    # a 4.3% IQR is wider than a 2% bound, whatever the verdict
    tight = {"wall_s": ("lower", 0.02), "rel_gap": ("lower", 0.1)}
    assert bounded_verdicts([(p, p) for p in parent], tight)["w wall_s"] == (
        "unresolved; within bound; spread wider than bound")
    # for a metric that reads better higher, the sides swap
    higher = {"wall_s": ("higher", 0.05), "rel_gap": ("lower", 0.1)}
    assert bounded_verdicts([(p, p + 0.1) for p in parent], higher)["w wall_s"] == (
        "gain shown; within bound")
    assert bounded_verdicts([(p, p - 0.1) for p in parent], higher)["w wall_s"] == (
        "worse; beyond bound")


def test_a_control_runs_as_a_third_tree_in_an_order_that_rotates_with_the_seed():
    events = []
    trees = {"parent": "/p", "change": "/c", "control": "/x"}

    def run(tree, workload, seed, seconds):
        events.append((tree, seed))
        return result(1.0)

    pairs = bench_pairs.collect(trees, ["w"], range(1, 5), 1.0, run=run,
                                byte_compile=lambda tree: events.append(("compile", tree)))
    assert events[:3] == [("compile", "/p"), ("compile", "/c"), ("compile", "/x")]
    assert [tree for tree, _ in events[3:]] == ["/x", "/p", "/c", "/p", "/c", "/x",
                                                 "/c", "/x", "/p", "/x", "/p", "/c"]
    assert [p["code"] for p in pairs[:3]] == ["control", "parent", "change"]
    # without a control the order is unchanged: odd seeds run the parent first
    assert [bench_pairs.run_order(seed) for seed in (1, 2)] == [
        ("parent", "change"), ("change", "parent")]


def test_control_path_is_a_free_path_beside_the_parent_of_the_same_length(tmp_path):
    parent = tmp_path / "parent"
    parent.mkdir()
    path = bench_pairs.control_path(str(parent))
    assert path == str(tmp_path / "pare~0")
    (tmp_path / "pare~0").mkdir()
    assert bench_pairs.control_path(str(parent)) == str(tmp_path / "pare~1")
    (tmp_path / "p").mkdir()
    assert bench_pairs.control_path(str(tmp_path / "p")) == str(tmp_path / "~")


def controlled_verdicts(walls):
    """{label: verdict} from (parent, change, control) wall_s values per seed."""
    pairs = [{"code": code, "workload": "w", "trace": 0, "seed": seed, "seconds": 1,
              "result": result(wall)}
             for seed, walls_of in enumerate(walls, 1)
             for code, wall in zip(("parent", "change", "control"), walls_of)]
    summary = bench_pairs.summarize(pairs)
    assert summary["w"]["wall_s"]["control"]["p50"] == float(
        np.median([w[2] for w in walls]))
    lines = bench_pairs.verdicts(summary, bench_pairs.load_bounds())
    return {line.split(":")[0]: line.rsplit(": ", 1)[1] for line in lines}, lines


def test_a_null_control_leaves_the_change_verdict():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    words, lines = controlled_verdicts([(p, p - 0.1, p) for p in parent])
    assert words == {"w wall_s": "gain shown; within bound",
                     "w wall_s control": "unresolved; within bound",
                     "w rel_gap": "unresolved; within bound",
                     "w rel_gap control": "unresolved; within bound"}
    assert lines[1] == ("w wall_s control: median 1.045 -> 1.045 (+0.0%), parent IQR 0.045, "
                        "control lower in 0/10, equal in 10: unresolved; within bound")


def test_a_control_step_that_swallows_the_change_step_leaves_it_unresolved():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    # the change reads 0.07 lower, beyond the IQR; the control 0.03 lower, inside it,
    # and 0.07 <= 0.03 + 0.045
    words, _ = controlled_verdicts([(p, p - 0.07, p - 0.03) for p in parent])
    assert words["w wall_s"] == "unresolved; within bound"
    assert words["w wall_s control"] == "unresolved; within bound"
    # without the control the same change shows its gain
    assert verdict([(p, p - 0.07) for p in parent]).endswith(": gain shown; within bound")
    # a control step the wrong way counts by its size too
    words, _ = controlled_verdicts([(p, p - 0.07, p + 0.03) for p in parent])
    assert words["w wall_s"] == "unresolved; within bound"
    # a change step beyond both shows the gain
    words, _ = controlled_verdicts([(p, p - 0.1, p - 0.03) for p in parent])
    assert words["w wall_s"] == "gain shown; within bound"


def test_a_control_that_moves_leaves_every_change_verdict_of_its_workload_unresolved():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    for shift, word in ((-0.1, "gain shown"), (0.1, "worse")):
        words, _ = controlled_verdicts([(p, p - 0.2, p + shift) for p in parent])
        assert words == {"w wall_s": "unresolved (control not null); within bound",
                         "w wall_s control": f"{word}; control not null; within bound",
                         "w rel_gap": "unresolved (control not null); within bound",
                         "w rel_gap control": "unresolved; within bound"}


def test_main_with_a_control_copies_the_parent_and_removes_the_copy(tmp_path, monkeypatch,
                                                                      capsys):
    trees = [make_tree(tmp_path / code) for code in bench_pairs.CODES]
    copy = str(tmp_path / "pare~0")
    seen = []

    def run(argv, cwd, **kwargs):
        seen.append(("compileall" in argv, cwd, os.path.isdir(copy)))
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result(1.0)) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main([*trees, "--workload", "w", "--seeds", "1-2", "--seconds", "1",
                             "--control"]) == 0
    assert not os.path.exists(copy)
    assert seen[:3] == [(True, trees[0], True), (True, trees[1], True), (True, copy, True)]
    assert [cwd for _, cwd, _ in seen[3:]] == [copy, trees[0], trees[1],
                                               trees[0], trees[1], copy]
    out, err = capsys.readouterr()
    assert json.loads(out)["summary"]["w"]["correct"] == {
        "parent": True, "change": True, "control": True}
    assert "w wall_s control: median 1 -> 1 (+0.0%)" in err
