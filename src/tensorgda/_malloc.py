"""Fix glibc malloc's thresholds, so that the memory a process keeps
resident does not depend on its allocation history.

glibc serves each block of at least ``M_MMAP_THRESHOLD`` bytes (128 KiB at
start) with its own ``mmap`` and unmaps it on ``free``.  But each time it
unmaps such a block it raises the threshold to that block's size, up to
32 MiB.  Once the first multi-MiB sample stack is freed, arrays of that
size come from the heap instead, and the holes they leave there stay
resident.  How much stays resident then depends on the order of past
allocations, down to the length of a path string: the peak resident size
of one process repeating the same train-save-load-classify cycle moved
between 105 and 124 MiB with the name of the directory it ran in.

Setting a threshold turns its adjustment off (mallopt(3)).  Blocks of at
least ``MMAP_THRESHOLD`` are then always mapped, and given back when freed.
Below it, the unfoldings and mode products of training reuse heap memory
rather than fault in fresh pages on every call: at 4 MiB, training HOSVD
on 400 samples of 56x46 (7.9 MiB stacks) took 10-20% longer, and at 1 MiB
training on 200 of them took 55% longer.  ``TRIM_THRESHOLD`` keeps the
default 128 KiB trim from handing the top of the heap back and forth
between calls, which cost that training 25-30%.  A threshold set through
glibc's own ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_`` is
kept, and on other C libraries nothing is changed.
"""

from __future__ import annotations

import ctypes
import os
import sys

#: bytes from which a block is always mapped on its own
MMAP_THRESHOLD = 8 * 1024 * 1024
#: free bytes at the top of the heap before they are given back
TRIM_THRESHOLD = 32 * 1024 * 1024

# (environment variable, mallopt parameter from glibc's malloc.h, value)
_SETTINGS = (
    ("MALLOC_TRIM_THRESHOLD_", -1, TRIM_THRESHOLD),
    ("MALLOC_MMAP_THRESHOLD_", -3, MMAP_THRESHOLD),
)


def fix_thresholds() -> int:
    """Set each threshold the environment leaves open; returns how many
    were set (0 off glibc)."""
    if not sys.platform.startswith("linux"):
        return 0
    try:
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "gnu_get_libc_version"):
            return 0
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        return sum(
            libc.mallopt(param, value) == 1
            for name, param, value in _SETTINGS
            if name not in os.environ
        )
    except (OSError, AttributeError):
        return 0
