"""The benchmark's tracer wraps package attributes by name; each must exist.

``perfbench/tracing.py`` replaces module attributes with timing wrappers
and reads each one through ``vars(owner)``, so deleting or renaming one of
them breaks ``perfbench/run.py --trace 1`` with a ``KeyError``.  This test
fails first instead.
"""

import importlib.util
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
