"""The producing scan loop.

``scan_pages`` is the body of every producer operator in the
reproduction: selection scans over relation fragments, re-reads of
temporary bucket/overflow files, and sorted-file feeds.  It reads one
page at a time from the node's disk (sequential, riding the WiSS
readahead), charges per-tuple scan CPU plus whatever extra CPU the
routing callback reports (hashing, split-table lookup and copy, filter
tests), transmits any packets the callback filled, and finally closes
all routers (flush + end-of-stream).
"""

from __future__ import annotations

import itertools
import typing

from repro.engine.node import Node
from repro.engine.operators.routing import Router
from repro.storage.files import PagedFile

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.machine import GammaMachine

Row = typing.Tuple
#: Callback deciding what to do with a scanned tuple.  Receives the row
#: and returns the extra CPU seconds its work (hash + route + filter)
#: cost; it buffers into routers as a side effect.
RouteFn = typing.Callable[[Row], float]


class PageScan:
    """The pages of one or more stored row sequences, read back to back.

    Iterating yields each page's rows (a slice of its sequence);
    :meth:`sizes` yields only the pages' row counts, so a
    :class:`CountRoute` scan cuts no page at all.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: typing.Sequence[
            tuple["typing.Sequence[Row] | PagedFile", int]]) -> None:
        #: ``(rows or file, tuples per page)``, in scan order; a file's
        #: rows are read only when its pages are iterated.
        self._parts = parts

    def __iter__(self) -> typing.Iterator[typing.Sequence[Row]]:
        for source, per_page in self._parts:
            if isinstance(source, PagedFile):
                yield from source.pages()
                continue
            for start in range(0, len(source), per_page):
                yield source[start:start + per_page]

    def sizes(self) -> typing.Iterator[int]:
        """The row count of every page, in scan order."""
        for source, per_page in self._parts:
            full, rest = divmod(len(source), per_page)
            yield from itertools.repeat(per_page, full)
            if rest:
                yield rest


def fragment_pages(rows: typing.Sequence[Row], tuples_per_page: int
                   ) -> PageScan:
    """Page-sized chunks of a stored relation fragment."""
    return PageScan([(rows, tuples_per_page)])


def chain_file_pages(files: typing.Sequence[PagedFile]) -> PageScan:
    """Pages of several temp files, read back to back."""
    return PageScan([(file, file.tuples_per_page) for file in files])


#: Page-level callback: handles a whole page (scan CPU, predicate,
#: hashing, routing) and returns the page's total CPU seconds.  The
#: float accumulation order inside must match the per-tuple contract
#: (``cpu += tuple_scan`` then ``cpu += route(row)`` per row) so
#: simulated times stay bit-identical.
RoutePageFn = typing.Callable[[typing.Sequence[Row]], float]


class CountRoute(typing.NamedTuple):
    """A page route that needs only each page's row count (the
    vectorized routes: their route plans already hold the rows).
    :func:`scan_pages` hands it the counts of a :class:`PageScan` and
    cuts no page for it."""

    route: typing.Callable[[int], float]


def constant_page_cost(*adds: float) -> typing.Callable[[int], float]:
    """Prefix table of a constant per-row cost sequence.

    ``cpu_for(n)`` returns the float produced by ``n`` repetitions of
    ``cpu += adds[0]; cpu += adds[1]; ...`` starting from ``0.0`` — the
    exact addition sequence the per-row scan contract performs — so a
    route builder whose per-row cost is row-independent (no predicate,
    no filter, no cutoffs) can charge a whole page in O(1) float work
    without perturbing a single bit of the accumulated total.  The
    table grows lazily to the largest page seen.
    """
    cum = [0.0]

    def cpu_for(n: int) -> float:
        if n >= len(cum):
            c = cum[-1]
            for _ in range(len(cum), n + 1):
                for add in adds:
                    c += add
                cum.append(c)
        return cum[n]

    return cpu_for


def scan_pages(machine: "GammaMachine", node: Node,
               pages: typing.Iterable[typing.Sequence[Row]],
               routers: typing.Sequence[Router],
               route: RouteFn | None = None,
               read_from_disk: bool = True,
               predicate: typing.Callable[[Row], bool] | None = None,
               route_page: RoutePageFn | CountRoute | None = None,
               ) -> typing.Generator:
    """Scan ``pages`` on ``node``, routing each qualifying tuple.

    Parameters
    ----------
    pages:
        Page-sized row chunks (see :func:`fragment_pages` /
        :func:`chain_file_pages`).
    routers:
        Every router the callback may buffer into; each is flushed
        after every page and closed at end of scan.
    route:
        Per-tuple callback; returns extra CPU seconds.  Ignored when
        ``route_page`` is given.
    read_from_disk:
        False for already-in-memory feeds (e.g. probing directly from
        a received stream); True charges one sequential page read per
        page.
    predicate:
        Optional selection predicate evaluated at the scan site
        (Gamma runs selections only on processors with disks, §2.1);
        non-qualifying tuples cost their scan CPU but are not routed.
        Ignored when ``route_page`` is given (page callbacks evaluate
        the predicate themselves).
    route_page:
        Page-level callback (the fast lane used by the join drivers):
        one call covers the whole page's scan CPU, predicate, hashing
        and routing, returning the page's total CPU seconds.  A
        :class:`CountRoute` is called with each page's row count
        instead, and then ``pages`` must be a :class:`PageScan`.
    """
    costs = machine.costs
    items: typing.Iterable = pages
    handle: typing.Callable[[typing.Any], float]
    by_count = type(route_page) is CountRoute
    if by_count:
        assert isinstance(pages, PageScan), pages
        items = pages.sizes()
        handle = typing.cast(CountRoute, route_page).route
    elif route_page is not None:
        handle = typing.cast(RoutePageFn, route_page)
    else:
        if route is None:
            raise TypeError("scan_pages needs either route or route_page")
        tuple_scan = costs.tuple_scan

        def handle(page: typing.Sequence[Row]) -> float:
            cpu = 0.0
            for row in page:
                cpu += tuple_scan
                if predicate is not None and not predicate(row):
                    continue
                cpu += route(row)
            return cpu

    cpu_use = node.cpu_use
    disk = node.require_disk() if read_from_disk else None
    mon = machine.monitor
    if mon is not None:
        routed_before = sum(r.tuples_routed for r in routers)
        n_pages = 0
        n_tuples = 0
    for page in items:
        if disk is not None:
            yield from disk.read_pages(1, sequential=True)
        if mon is not None:
            n_pages += 1
            n_tuples += page if by_count else len(page)
        yield from cpu_use(handle(page))
        for router in routers:
            if router._ready:
                yield from router.flush_ready()
    for router in routers:
        yield from router.close()
    if mon is not None:
        routed = sum(r.tuples_routed for r in routers) - routed_before
        mon.note_scan(node.node_id, n_tuples, routed,
                      n_pages if disk is not None else 0)
