"""Label-pattern algebra for event sites.

Tied events are labelled ``process:<name>``, ``done:<name>``,
``resource:<name>``, with digit runs normalised to ``#``
(``event_label`` and ``normalise`` in ``tests/sim/tie_order.py``).
This module derives the matching *pattern* for a site from the AST of
the expression that builds the name — typically an f-string — so that
statically discovered spawn and resource-construction sites can be
matched against the labels a run produces:

* constant parts keep their text, with digit runs collapsed to ``#``
  (mirroring the label normalisation);
* interpolated fields become ``*`` — except a field that is a
  *parameter* of the enclosing spawn-wrapper function, which becomes a
  template hole filled in per call site
  (:class:`NameTemplate.substitute`).

``Scheduler.execute_phase`` is the motivating wrapper: it spawns
``sim.process(gen, name=f"{name}[{index}]")``, so its template is
``<name>[*]`` and a call site passing ``f"{label}.build"`` yields the
site pattern ``*.build[*]`` — which matches the runtime labels
``process:grace.b#.build[#]``, ``process:hybrid.formR.build[#]`` and
so on.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing

_DIGITS = re.compile(r"\d+")
_STAR_RUN = re.compile(r"\*+")

#: Template hole marker; never appears in real labels (labels cannot
#: contain newlines).
_HOLE = "\0"


def _normalise_literal(text: str) -> str:
    """Literal name text → pattern text (digit runs to ``#``)."""
    return _DIGITS.sub("#", text)


def _collapse(pattern: str) -> str:
    """Collapse ``*`` runs (and ``*#``/``#*`` pairs) to a single ``*``."""
    pattern = _STAR_RUN.sub("*", pattern)
    while "*#" in pattern or "#*" in pattern:
        pattern = pattern.replace("*#", "*").replace("#*", "*")
    return pattern


@dataclasses.dataclass(frozen=True)
class NameTemplate:
    """A name pattern with at most one parameter-shaped hole.

    ``pattern`` uses ``*`` for dynamic fields; when ``param`` is not
    None, the single :data:`_HOLE` marker stands for the wrapper
    parameter of that name and is substituted per call site.
    """

    pattern: str
    param: str | None = None

    def substitute(self, argument_pattern: str) -> str:
        """Fill the hole with a call site's name-argument pattern."""
        if self.param is None:
            return _collapse(self.pattern)
        return _collapse(self.pattern.replace(_HOLE, argument_pattern))

    def concrete(self) -> str:
        """The pattern with any hole degraded to ``*`` (no call-site
        information available)."""
        return _collapse(self.pattern.replace(_HOLE, "*"))


def name_template(node: ast.expr | None,
                  params: typing.Collection[str] = ()) -> NameTemplate:
    """Derive the name pattern/template for a name expression.

    ``params`` names the enclosing function's parameters: an f-string
    field referencing one of them becomes the template hole (only the
    first such field — multiple holes degrade to ``*``, conservatively
    widening the pattern).
    """
    if node is None:
        return NameTemplate("*")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return NameTemplate(_normalise_literal(node.value))
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        hole: str | None = None
        for value in node.values:
            if (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                parts.append(_normalise_literal(value.value))
            elif (isinstance(value, ast.FormattedValue)
                    and isinstance(value.value, ast.Name)
                    and value.value.id in params and hole is None):
                hole = value.value.id
                parts.append(_HOLE)
            else:
                parts.append("*")
        return NameTemplate("".join(parts), param=hole)
    if isinstance(node, ast.Name) and node.id in params:
        return NameTemplate(_HOLE, param=node.id)
    return NameTemplate("*")


def pattern_of(node: ast.expr | None) -> str:
    """The concrete (hole-free) pattern of a name expression."""
    return name_template(node).concrete()


@dataclasses.dataclass
class SitePattern:
    """One statically attributed event-site label pattern.

    ``pattern`` is matched against *normalised* event labels
    (prefix included: ``process:*.build[*]``).  ``callables`` names the
    analyzed code whose effect summaries back the footprint;
    ``resolved`` is False when some spawned generator could not be
    traced (the footprint is then opaque, and batch eligibility rests
    on the whole-program kernel-safety invariant alone).
    """

    pattern: str
    origin: str
    callables: tuple[str, ...] = ()
    resolved: bool = True

    def key(self) -> str:
        return self.pattern
