"""The benchmark's tracer wraps program entry points by name; keep them there."""

import importlib.util
from pathlib import Path

import pytest

import hroa

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("path, attr", [(t[0], t[1]) for t in _targets()])
def test_traced_entry_point_exists(path, attr):
    owner = hroa
    for part in path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), f"hroa.{path}.{attr}"
