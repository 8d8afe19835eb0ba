import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorgda import _malloc

glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="glibc >= 2.33 only",
)

# Frees one 24 MiB array, which under glibc's dynamic rule moves every later
# block below 24 MiB into the heap, then prints how many mapped blocks one
# array of twice the fixed threshold adds.
PROBE = """
import ctypes, sys
import numpy as np
if sys.argv[1] == "package":
    import tensorgda
class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
big = np.ones(3 * 2**20)
del big
before = libc.mallinfo2().hblks
a = np.ones(2 * %d // 8)
print(libc.mallinfo2().hblks - before)
""" % _malloc.MMAP_THRESHOLD


def mapped_blocks_added(*args) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(_malloc.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, check=True,
        capture_output=True, text=True,
    )
    return int(out.stdout)


@glibc
def test_a_freed_large_array_no_longer_moves_later_ones_into_the_heap():
    assert mapped_blocks_added("numpy only") == 0
    assert mapped_blocks_added("package") == 1


def test_thresholds_set_by_the_environment_are_kept(monkeypatch):
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert _malloc.fix_thresholds() == 0
