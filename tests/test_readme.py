"""The numbers the README shows are the numbers the package prints.

Both comparisons allow 1e-12: the last digits of a float vary with the
platform's BLAS and NumPy build.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from hhlsim import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(language: str) -> str:
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    return block


def _assert_close(got, want, where="record"):
    """Equal structure, numbers within 1e-12, everything else equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=0, abs=1e-12), where
    else:
        assert got == want, where


def test_python_example_prints_its_comment():
    code = _fenced("python")
    (comment,) = [line[1:].split() for line in code.splitlines() if line.startswith("#")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [float(x) for x in out.getvalue().split()]
    _assert_close(printed, [float(x) for x in comment], "example")


def test_estimators_block_is_what_solve_prints(capsys):
    shown = json.loads("{" + _fenced("json") + "}")
    assert cli.main(["solve", "--lambda", "0.3", "--n", "2"]) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    _assert_close({key: record[key] for key in shown}, shown)
