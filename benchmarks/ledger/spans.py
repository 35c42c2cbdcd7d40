"""In-memory span log: ``perf_counter`` brackets around public calls.

The ledger records spans from its own files, around the calls into
each layer of ``repro`` (spans inside the program are a later change).
Every process keeps its spans in a list; the parent gathers them and
writes one Chrome-trace JSON document when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import typing


class SpanLog:
    """Spans of one process, timed from ``origin``."""

    def __init__(self, process: str, workload: str) -> None:
        self.process = process
        self.workload = workload
        #: ``perf_counter`` reading all span times are relative to.
        self.origin = time.perf_counter()
        #: Wall-clock at ``origin``: aligns processes in the trace.
        self.epoch = time.time()
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str) -> typing.Iterator[dict]:
        record = {
            "name": name,
            "process": self.process,
            "workload": self.workload,
            "parent": self._open[-1]["name"] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.origin

    def export(self) -> dict:
        return {"epoch": self.epoch, "spans": self.spans}


def duration(exported: dict, name: str) -> float:
    """Total seconds of the spans called ``name`` in one export."""
    return sum(span["end"] - span["start"]
               for span in exported["spans"] if span["name"] == name)


def write_chrome_trace(path: str, exports: typing.Sequence[dict]) -> None:
    """All processes' spans as Chrome-trace "complete" events."""
    if not exports:
        return
    base = min(export["epoch"] for export in exports)
    events = []
    for pid, export in enumerate(exports):
        offset = export["epoch"] - base
        for span in export["spans"]:
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                "ts": (offset + span["start"]) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"process": span["process"],
                         "workload": span["workload"],
                         "parent": span["parent"]},
            })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)
