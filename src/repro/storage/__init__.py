"""Storage substrate — the reproduction's analogue of WiSS.

Gamma's file services come from the Wisconsin Storage System (§2.2):
structured sequential files, B+ indices, a sort utility, and a scan
mechanism with one-page readahead.  None of the paper's four joins
uses an index, so this package models the rest:

* :class:`~repro.storage.disk.Disk` — a single disk arm as a contended
  resource with sequential/random page costs and I/O counters.
* :class:`~repro.storage.files.PagedFile` — a temp/heap file whose
  contents are real tuples and whose footprint is accounted in 8 KB
  pages.
* :mod:`~repro.storage.sort` — the external merge-sort utility with
  run/pass arithmetic (the source of the paper's sort-merge "steps").
"""

from repro.storage.disk import Disk
from repro.storage.files import PagedFile
from repro.storage.sort import SortPlan, plan_external_sort

__all__ = [
    "Disk",
    "PagedFile",
    "SortPlan",
    "plan_external_sort",
]
