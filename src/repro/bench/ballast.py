"""Memory ballast: grow the parent so fork has something to copy.

The paper's Figure 1 varies the parent's address-space size.  On the real
OS we do that by allocating anonymous memory and **dirtying every page**
(an untouched allocation is just a VMA; fork copies page tables for
*present* pages).  numpy gives us a compact way to fault in gigabytes
without Python-object overhead; writing one byte per 4 KiB stride
dirties each page at minimal cost.

The pages must be 4 KiB ones: numpy ``madvise``s its large allocations
``MADV_HUGEPAGE``, and whenever the kernel had huge pages to give, a
384 MiB ballast became ~200 page-table entries and fork read *flat* in
the parent's size (the calibration test failed on exactly those runs).
So the ballast is an anonymous mapping of its own, advised
``MADV_NOHUGEPAGE``.
"""

from __future__ import annotations

import mmap
import os
from typing import List, Optional

import numpy

from ..errors import BenchError

PAGE = 4096


class Ballast:
    """Dirty anonymous memory held for the duration of a measurement.

    Usable as a context manager::

        with Ballast(256 * 2**20):
            ... measure fork ...
    """

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise BenchError("negative ballast size")
        self.nbytes = nbytes
        self._chunks: List[numpy.ndarray] = []

    @property
    def held(self) -> bool:
        return bool(self._chunks)

    def allocate(self) -> "Ballast":
        """Allocate and dirty the pages (idempotent)."""
        if self.held or self.nbytes == 0:
            return self
        remaining = self.nbytes
        # Chunked so a huge request does not demand one contiguous arena.
        chunk_limit = 1 << 30
        while remaining > 0:
            size = min(remaining, chunk_limit)
            # Private: fork skips the page tables of a shared mapping.
            region = mmap.mmap(-1, size,
                               flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            if hasattr(mmap, "MADV_NOHUGEPAGE"):
                region.madvise(mmap.MADV_NOHUGEPAGE)
            chunk = numpy.frombuffer(region, dtype=numpy.uint8)
            # Touch one byte per page: every page becomes dirty and
            # resident without writing the full gigabyte.
            chunk[::PAGE] = 1
            if size:
                chunk[size - 1] = 1
            self._chunks.append(chunk)
            remaining -= size
        return self

    def release(self) -> None:
        """Drop the memory (each array's mapping is unmapped with it)."""
        self._chunks = []

    def __enter__(self) -> "Ballast":
        return self.allocate()

    def __exit__(self, *exc) -> None:
        self.release()


def resident_bytes() -> Optional[int]:
    """This process's RSS in bytes, from /proc (None off-Linux)."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def default_sizes(max_bytes: Optional[int] = None) -> List[int]:
    """The Figure-1 sweep: doubling sizes from 1 MiB up to a cap.

    The cap comes from ``REPRO_BENCH_MAX_MB`` (default 256 MiB) so the
    sweep adapts to the machine; the paper measured to multi-GiB on a
    testbed, which the simulator extends to (F1b).
    """
    if max_bytes is None:
        max_mb = int(os.environ.get("REPRO_BENCH_MAX_MB", "256"))
        max_bytes = max_mb << 20
    sizes = []
    size = 1 << 20
    while size <= max_bytes:
        sizes.append(size)
        size *= 2
    return sizes or [1 << 20]
