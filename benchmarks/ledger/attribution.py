"""Host self-time per layer, from one ``cProfile`` run.

The ledger starts the profiler itself, around a whole pass, so the
attribution needs nothing from the program.  Each profiled function's
own time (``tottime``) goes to the file that defines it when that file
is under the ``repro`` package.  Time in builtins, numpy and the
standard library has no layer of its own: it goes to the layers that
called it, in proportion to the per-caller ``tottime`` cProfile keeps,
following chains of foreign callers up to the first ``repro`` frame.
What reaches no ``repro`` frame (the ledger's own loop, the profiler's
edges) is ``other``.

What cProfile distorts: every Python-level call pays a fixed hook
cost, so call-heavy pure-Python code (the event kernel) inflates about
3x while one numpy call over a large array hardly inflates at all.
The shares are therefore shares of the *traced* run; read them next to
``trace.overhead_ratio``.
"""

from __future__ import annotations

import os
import typing

OTHER = "other"
#: Foreign-caller chains longer than this go to ``other``.
_MAX_CHAIN = 8


def self_time_by_file(stats: typing.Mapping, package_root: str) -> dict:
    """``{path relative to package_root: seconds}`` plus ``OTHER``.

    ``stats`` is ``pstats.Stats(profile).stats``: ``{func: (cc, nc,
    tottime, cumtime, {caller: (nc, cc, tottime, cumtime)})}`` with
    ``func = (filename, lineno, name)``.  The values sum to the total
    ``tottime`` of the profile.
    """
    # As imported, not resolved: cProfile records ``co_filename``.
    root = os.path.join(package_root, "")
    memo: dict = {}

    def owner(func: tuple) -> str | None:
        filename = func[0]
        if filename.startswith(root):
            return filename[len(root):].replace(os.sep, "/")
        return None

    def shares(func: tuple, trail: tuple) -> dict:
        own = owner(func)
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        if func in trail or len(trail) >= _MAX_CHAIN:
            return {OTHER: 1.0}
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if total <= 0.0:
            result = {OTHER: 1.0}
        else:
            result = {}
            for caller, entry in callers.items():
                weight = entry[2] / total
                if weight <= 0.0:
                    continue
                for key, share in shares(caller, trail + (func,)).items():
                    result[key] = result.get(key, 0.0) + share * weight
        memo[func] = result
        return result

    by_file: dict = {OTHER: 0.0}
    for func, entry in stats.items():
        tottime = entry[2]
        if tottime <= 0.0:
            continue
        for key, share in shares(func, ()).items():
            by_file[key] = by_file.get(key, 0.0) + tottime * share
    return by_file


def by_package(by_file: typing.Mapping, packages: typing.Sequence[str]
               ) -> dict:
    """Fold file times into the named packages; top-level modules and
    packages not named (``verify``, ``analysis``) join ``other``."""
    totals = {package: 0.0 for package in packages}
    for path, seconds in by_file.items():
        package = path.split("/", 1)[0] if "/" in path else OTHER
        if package not in totals:
            package = OTHER
        totals[package] += seconds
    return totals


def by_module(by_file: typing.Mapping, splits: typing.Mapping) -> dict:
    """Module-level splits: ``{stem: seconds}`` for ``{stem: prefix}``
    where ``prefix`` is a directory (ends in ``/``) or a file without
    its ``.py``."""
    totals = {stem: 0.0 for stem in splits}
    for stem, prefix in splits.items():
        for path, seconds in by_file.items():
            if (path.startswith(prefix) if prefix.endswith("/")
                    else path == prefix + ".py"):
                totals[stem] += seconds
    return totals
