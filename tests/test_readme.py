"""The README's config example and library sketch, checked as written."""

import contextlib
import dataclasses
import io
import json
import pathlib
import re

from shellgamma.studies import load_config, validate_config

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_config_example_is_a_valid_config():
    (block,) = fenced_blocks("json")
    cfg = validate_config(json.loads(block))
    # the example is the plate-gamma builtin with every default written out
    assert cfg == dataclasses.replace(load_config("plate-gamma"), output="report.csv")


def test_readme_library_sketch_runs():
    (block,) = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2
