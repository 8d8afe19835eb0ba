"""The benchmark's tracer wraps package attributes by name; each must exist.

``perfbench/tracing.py`` replaces module attributes with timing wrappers
and reads each one through ``vars(owner)``, so deleting or renaming one of
them breaks ``perfbench/run.py --trace 1`` with a ``KeyError``.  Where a
wrapper records a mode, it reads it as the positional argument at a fixed
index, so moving that parameter would file spans under the wrong mode.
These tests fail first instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import tensorgda.cli  # noqa: F401  imports every module the tracer patches

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    sys.path.insert(0, str(PERFBENCH))  # tracing imports its sibling ``stats``
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", PERFBENCH / "tracing.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_patch_point_exists():
    points = _load_tracing()._patch_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if attr not in vars(owner)
    ]
    assert missing == []


def test_every_mode_index_names_a_mode_parameter():
    indexed = [p for p in _load_tracing()._patch_points() if p[3] is not None]
    assert indexed
    wrong = []
    for owner, attr, _, index in indexed:
        params = list(inspect.signature(vars(owner)[attr]).parameters)
        if params[index:index + 1] != ["mode"]:
            wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}{params} at {index}")
    assert wrong == []
