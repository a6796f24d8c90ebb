"""Package metadata, and the names the benchmark's tracer looks up."""

import importlib
import importlib.util
import re
from pathlib import Path

import hhlsim

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match is not None
    assert hhlsim.__version__ == match.group(1)


TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_exists():
    """Each function the benchmark's tracer wraps by name resolves in its
    module, so deleting one fails here, not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for name in tracer.FUNCTIONS:
        layer, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"hhlsim.{layer}"), fn, None)), name


def test_top_level_names_resolve():
    """Each name of ``hhlsim.__all__`` exists; names kept only for the
    tests and the tracer stay in their modules."""
    for name in hhlsim.__all__:
        assert hasattr(hhlsim, name), name
    assert not {"partial_trace", "postselect", "register_distribution_exact"} & set(hhlsim.__all__)
