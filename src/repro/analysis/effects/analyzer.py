"""Whole-program effect analysis over the sim-scoped packages.

The analyzer parses every module of the simulation packages (the same
``sim-packages`` set the purity linter scopes to), builds a module-level
call graph using the alias resolution of
:class:`repro.analysis.rules.ModuleContext`, and infers one
:class:`~repro.analysis.effects.model.EffectSummary` per callable by a
fixpoint over the graph.  On top of the summaries it attributes the
event-site labels of tied events to their *spawn sites* —
including through spawn wrappers like
``Scheduler.execute_phase`` — and to the ``Resource``/``Store``
construction sites whose names become ``resource:``/``store:`` labels.

Trust boundary
--------------
``repro.sim`` (the kernel) is the trusted computing base: its modules
are **not** analyzed; calls into its API are modelled intrinsically
(``Resource.use`` is queue traffic on the receiver's name pattern,
``Simulator.process`` is a spawn, ``Simulator.run``/``step`` from model
code is a kernel-safety violation).  Everything else in the sim scope —
``repro.core``, ``repro.engine``, ``repro.network``, ``repro.storage``
— is model code and must be *kernel-safe*: it may create events and
wait on them but never drive or introspect the scheduler.  That
whole-program invariant is what makes a statically attributed cohort
batchable even when its state footprint is opaque.

Conservatism
------------
Unresolvable dynamic dispatch joins the ``opaque`` lattice top; a
receiver whose class cannot be resolved widens to a ``*`` wildcard
footprint; generic container/str methods are modelled as local reads
(mutating ones as writes through the receiver chain).  The one known
imprecision — shared objects flowing through differently named
parameters are keyed by parameter name — errs toward missing a
*cross-site* conflict only; same-site conflicts key identically.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing

from repro.analysis.config import LintConfig, load_lint_config
from repro.analysis.rules import ModuleContext
from repro.analysis.effects.model import EffectSummary
from repro.analysis.effects.sites import (
    NameTemplate,
    SitePattern,
    name_template,
    pattern_of,
)

#: Builtins whose calls neither touch shared simulation state nor
#: dispatch dynamically.
PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "bytes", "callable", "chr", "dict",
    "divmod", "enumerate", "filter", "float", "format", "frozenset",
    "getattr", "hasattr", "hash", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object",
    "ord", "print", "range", "repr", "reversed", "round", "set",
    "slice", "sorted", "str", "sum", "tuple", "type", "vars", "zip",
})

#: Stdlib/numeric modules whose functions are pure with respect to
#: shared simulation state (they may build local containers).
PURE_MODULE_PREFIXES = (
    "math.", "bisect.", "itertools.", "operator.", "collections.",
    "dataclasses.", "typing.", "heapq.", "json.", "re.", "struct.",
    "functools.", "numpy.", "enum.", "abc.", "copy.", "string.",
    "textwrap.", "pathlib.", "array.",
)

#: RNG call prefixes / method names: both sides drawing from the
#: (shared, seeded) workload stream is order-sensitive.
RNG_PREFIXES = ("random.", "numpy.random.")
RNG_METHODS = frozenset({
    "random", "randint", "randrange", "uniform", "normal", "shuffle",
    "choice", "choices", "sample", "integers", "permutation",
})

#: Container/str methods modelled as reads through the receiver.
PURE_METHODS = frozenset({
    "copy", "count", "decode", "encode", "endswith", "format", "get",
    "index", "items", "join", "keys", "lower", "lstrip", "rsplit",
    "rstrip", "split", "startswith", "strip", "upper", "values",
    "most_common", "tolist", "astype", "sum", "mean", "reshape",
    "nonzero", "searchsorted", "item", "view", "snapshot",
})

#: Container methods modelled as writes through the receiver.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "fill", "insert", "pop", "popitem", "popleft", "remove",
    "reverse", "setdefault", "sort", "update",
})

#: Kernel API modelled intrinsically (see the trust boundary note).
SIM_FACTORIES = frozenset({"timeout", "event", "all_of", "any_of"})
EVENT_TRIGGERS = frozenset({"succeed", "fail"})
RESOURCE_METHODS = frozenset({"use", "request", "release"})
STORE_METHODS = frozenset({"put", "get"})

#: Simulator attributes/methods model code must never reach.
KERNEL_PRIVATE_ATTRS = frozenset({
    "_heap", "_urgent", "_sequence", "_crashed", "_event_serial",
    "_fire", "_schedule", "_resume", "_resume_cb", "_rekey",
    "_sole_callback", "_resource", "_release_hold", "_settle",
})
KERNEL_DRIVE_METHODS = frozenset({"run", "step"})

#: Generic method names too ambiguous for the unique-name fallback.
FALLBACK_EXCLUDED = frozenset({
    "run", "start", "stop", "close", "open", "send", "read", "write",
    "next", "throw",
})
_FALLBACK_LIMIT = 4


@dataclasses.dataclass
class CallableInfo:
    """One analyzed function or method."""

    qualname: str
    module: str
    path: pathlib.Path
    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: ModuleContext
    cls: str | None = None
    params: tuple[str, ...] = ()
    annotations: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Direct spawn records found in the body (see SpawnRecord).
    spawns: list["SpawnRecord"] = dataclasses.field(default_factory=list)

    @property
    def origin(self) -> str:
        return f"{self.path.as_posix()}:{self.node.lineno}"


@dataclasses.dataclass
class SpawnRecord:
    """One ``sim.process(...)`` site inside a callable."""

    template: NameTemplate
    origin: str
    #: Resolved generator-factory qualnames (direct spawns).
    gen_callables: tuple[str, ...] = ()
    #: True when the generator flows in through the enclosing
    #: function's parameters (wrapper shape) — call sites supply it.
    gen_from_params: bool = False
    #: False when the generator expression could not be traced.
    resolved: bool = True


@dataclasses.dataclass
class ClassInfo:
    name: str
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = dataclasses.field(default_factory=dict)
    #: attr -> class name, from ``self.x = Cls(...)`` / annotated params.
    attr_types: dict[str, str] = dataclasses.field(default_factory=dict)
    #: attr -> queue footprint (``resource:<pat>`` / ``store:<pat>``).
    attr_queues: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ProgramAnalysis:
    """Everything the certificate builder needs."""

    callables: dict[str, CallableInfo]
    summaries: dict[str, EffectSummary]
    classes: dict[str, ClassInfo]
    #: Attributed event-site patterns (``process:``/``done:`` +
    #: ``resource:``/``store:``), keyed by pattern.
    sites: dict[str, SitePattern]
    #: Per-site-pattern effect footprints.
    site_summaries: dict[str, EffectSummary]
    #: Kernel-unsafe callables (qualname -> reasons).
    unsafe: dict[str, tuple[str, ...]]
    #: Qualnames reachable from any event site.
    reachable: set[str]

    @property
    def sites_kernel_safe(self) -> bool:
        """The whole-program invariant: no event-site code drives or
        introspects the scheduler."""
        return not any(qn in self.unsafe for qn in self.reachable)

    def suspects(self) -> list[str]:
        """The inventory ``--check`` regresses against: kernel-unsafe
        callables, opaque site footprints, unresolved spawn sites."""
        out = [f"unsafe:{qn}" for qn in sorted(self.unsafe)]
        for pattern in sorted(self.sites):
            site = self.sites[pattern]
            summary = self.site_summaries[pattern]
            if not site.resolved:
                out.append(f"unresolved-site:{pattern}")
            elif summary.opaque:
                out.append(f"opaque-site:{pattern}")
        return out


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_class(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        return text.split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_queue_constructor(context: ModuleContext,
                          node: ast.Call) -> str | None:
    """``resource``/``store`` when the call constructs one."""
    resolved = context.resolve(node.func)
    name = resolved.split(".")[-1] if resolved else None
    if name == "Resource":
        return "resource"
    if name == "Store":
        return "store"
    return None


def _queue_pattern(kind: str, node: ast.Call) -> str:
    name_arg: ast.expr | None = None
    for keyword in node.keywords:
        if keyword.arg == "name":
            name_arg = keyword.value
    if name_arg is None:
        # Resource()/Store() default names.
        return f"{kind}:{kind}"
    return f"{kind}:{pattern_of(name_arg)}"


class Analyzer:
    """Builds a :class:`ProgramAnalysis` over a set of modules."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        self.callables: dict[str, CallableInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.summaries: dict[str, EffectSummary] = {}
        self.edges: dict[str, set[str]] = {}
        self.functions_by_name: dict[str, list[str]] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.queue_sites: dict[str, SitePattern] = {}
        #: (caller qualname, callee qualname, call node) — replayed
        #: after the fixpoint to expand wrapper spawn sites.
        self.call_records: list[tuple[str, str, ast.Call]] = []
        self._modules: list[tuple[pathlib.Path, ast.Module,
                                  ModuleContext]] = []

    # -- loading ---------------------------------------------------------

    def load_paths(self, paths: typing.Iterable[pathlib.Path]) -> None:
        for path in sorted(set(paths)):
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            context = ModuleContext(path, tree, self.config)
            self._modules.append((path, tree, context))
        self._collect_definitions()
        self._collect_attr_registries()

    def _collect_definitions(self) -> None:
        for path, tree, context in self._modules:
            module = _module_name(path)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._add_callable(path, context, module, node, None)
                elif isinstance(node, ast.ClassDef):
                    bases = tuple(
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else "?" for base in node.bases)
                    info = self.classes.setdefault(
                        node.name, ClassInfo(node.name))
                    info.bases = info.bases + tuple(
                        b for b in bases if b not in info.bases)
                    for child in node.body:
                        if isinstance(child, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)):
                            self._add_callable(path, context, module,
                                               child, node.name)

    def _add_callable(self, path: pathlib.Path, context: ModuleContext,
                      module: str,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      cls: str | None) -> None:
        qualname = (f"{module}.{cls}.{node.name}" if cls
                    else f"{module}.{node.name}")
        args = node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        annotations = {}
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = _annotation_class(arg.annotation)
            if ann is not None:
                annotations[arg.arg] = ann
        params = tuple(n for n in names if n != "self")
        info = CallableInfo(qualname, module, path, node, context,
                            cls=cls, params=params,
                            annotations=annotations)
        self.callables[qualname] = info
        self.summaries[qualname] = EffectSummary()
        self.edges[qualname] = set()
        if cls is None:
            self.functions_by_name.setdefault(
                node.name, []).append(qualname)
        else:
            self.classes[cls].methods[node.name] = qualname
            self.methods_by_name.setdefault(
                node.name, []).append(qualname)

    def _collect_attr_registries(self) -> None:
        """``self.x = Cls(...)`` / ``self.x = <annotated param>`` →
        attribute type and queue registries, plus queue site patterns."""
        for info in self.callables.values():
            if info.cls is None:
                continue
            cls = self.classes[info.cls]
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = node.value
                if isinstance(value, ast.Call):
                    kind = _is_queue_constructor(info.context, value)
                    if kind is not None:
                        pattern = _queue_pattern(kind, value)
                        cls.attr_queues[target.attr] = pattern
                        origin = (f"{info.path.as_posix()}:"
                                  f"{value.lineno}")
                        self.queue_sites.setdefault(
                            pattern, SitePattern(pattern, origin))
                        continue
                    ctor = None
                    if isinstance(value.func, ast.Name):
                        ctor = value.func.id
                    elif isinstance(value.func, ast.Attribute):
                        ctor = value.func.attr
                    if ctor in self.classes:
                        cls.attr_types[target.attr] = ctor
                elif (isinstance(value, ast.Name)
                        and value.id in info.annotations):
                    ann = info.annotations[value.id]
                    if ann in self.classes or ann == "Simulator":
                        cls.attr_types[target.attr] = ann

    # -- type/receiver resolution ----------------------------------------

    def _hierarchy(self, cls: str) -> list[str]:
        """``cls`` plus its known bases and subclasses (for method and
        attribute lookups under inheritance/override)."""
        related = [cls]
        info = self.classes.get(cls)
        if info is not None:
            related.extend(b for b in info.bases if b in self.classes)
        for name, other in self.classes.items():
            if cls in other.bases and name not in related:
                related.append(name)
        return related

    def _class_attr(self, cls: str, attr: str,
                    registry: str) -> str | None:
        for name in self._hierarchy(cls):
            info = self.classes.get(name)
            if info is None:
                continue
            value = getattr(info, registry).get(attr)
            if value is not None:
                return value
        return None

    def _class_of(self, node: ast.expr, info: CallableInfo,
                  local_types: dict[str, str]) -> str | None:
        if isinstance(node, ast.Name):
            if node.id == "self":
                return info.cls
            return (local_types.get(node.id)
                    or info.annotations.get(node.id))
        if isinstance(node, ast.Attribute):
            base = self._class_of(node.value, info, local_types)
            if base is not None:
                return self._class_attr(base, node.attr, "attr_types")
            return None
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "super" and info.cls):
                bases = self.classes[info.cls].bases
                return bases[0] if bases else None
            if (isinstance(node.func, ast.Name)
                    and node.func.id in self.classes):
                return node.func.id
        return None

    def _queue_of(self, node: ast.expr, info: CallableInfo,
                  local_types: dict[str, str],
                  local_queues: dict[str, str]) -> str | None:
        if isinstance(node, ast.Name):
            return local_queues.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._class_of(node.value, info, local_types)
            if base is not None:
                return self._class_attr(base, node.attr, "attr_queues")
        return None

    @staticmethod
    def _sim_ish(node: ast.expr, recv_cls: str | None) -> bool:
        if recv_cls == "Simulator":
            return True
        if isinstance(node, ast.Name):
            return node.id == "sim"
        if isinstance(node, ast.Attribute):
            return node.attr == "sim"
        return False

    # -- per-callable effect walk ----------------------------------------

    def analyse(self) -> None:
        for qualname in list(self.callables):
            self._analyse_callable(self.callables[qualname])
        self._fixpoint()

    def _local_bindings(self, info: CallableInfo
                        ) -> tuple[dict[str, str], dict[str, str]]:
        """Shallow ``x = Cls(...)`` / ``x = Store(...)`` bindings."""
        local_types: dict[str, str] = {}
        local_queues: dict[str, str] = {}
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            value = node.value
            local_types.pop(name, None)
            local_queues.pop(name, None)
            if isinstance(value, ast.Call):
                kind = _is_queue_constructor(info.context, value)
                if kind is not None:
                    pattern = _queue_pattern(kind, value)
                    local_queues[name] = pattern
                    origin = f"{info.path.as_posix()}:{value.lineno}"
                    self.queue_sites.setdefault(
                        pattern, SitePattern(pattern, origin))
                    continue
                if (isinstance(value.func, ast.Name)
                        and value.func.id in self.classes):
                    local_types[name] = value.func.id
            elif isinstance(value, (ast.Name, ast.Attribute)):
                cls = self._class_of(value, info, local_types)
                if cls is not None:
                    local_types[name] = cls
        return local_types, local_queues

    def _analyse_callable(self, info: CallableInfo) -> None:
        summary = self.summaries[info.qualname]
        context = info.context
        trusted = "repro/sim" in info.path.as_posix()
        local_types, local_queues = self._local_bindings(info)
        handled_funcs: set[int] = set()
        globals_declared: set[str] = set()

        def attr_footprint(node: ast.Attribute) -> str | None:
            root: ast.expr = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if (isinstance(root, ast.Name)
                    and root.id in context.aliases):
                return None  # module/global attribute, not sim state
            cls = self._class_of(node.value, info, local_types)
            return f"attr:{cls or '*'}.{node.attr}"

        def note_param_write(node: ast.expr) -> None:
            if (isinstance(node, ast.Name)
                    and node.id in info.params):
                summary.writes.add(f"attr:*.{node.id}")

        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
                for name in node.names:
                    summary.writes.add(f"attr:{info.module}.{name}")
            elif isinstance(node, ast.Attribute):
                if id(node) in handled_funcs:
                    continue
                footprint = attr_footprint(node)
                if footprint is None:
                    continue
                if (not trusted
                        and node.attr in KERNEL_PRIVATE_ATTRS):
                    summary.unsafe += (
                        f"touches scheduler internal .{node.attr} "
                        f"at {info.path.name}:{node.lineno}",)
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    summary.writes.add(footprint)
                else:
                    summary.reads.add(footprint)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        if isinstance(target.value, ast.Attribute):
                            footprint = attr_footprint(target.value)
                            if footprint is not None:
                                summary.writes.add(footprint)
                        else:
                            note_param_write(target.value)
            elif isinstance(node, ast.Call):
                self._handle_call(node, info, summary, local_types,
                                  local_queues, handled_funcs, trusted)
        # Nested defs were walked as part of the body (their effects
        # execute under this callable's sites); their parameters may
        # shadow, which only widens footprints.

    def _handle_call(self, node: ast.Call, info: CallableInfo,
                     summary: EffectSummary,
                     local_types: dict[str, str],
                     local_queues: dict[str, str],
                     handled_funcs: set[int],
                     trusted: bool) -> None:
        context = info.context
        func = node.func
        if isinstance(func, ast.Name):
            resolved = context.resolve(func)
            name = func.id
            if resolved and resolved.startswith(RNG_PREFIXES):
                summary.rng = True
                return
            if (name in PURE_BUILTINS
                    or (resolved or "").startswith(PURE_MODULE_PREFIXES)
                    or name.endswith(("Error", "Exception", "Crash",
                                      "Warning"))):
                return
            kind = _is_queue_constructor(context, node)
            if kind is not None:
                return  # construction handled by the registries
            if name in self.classes:
                ctor = self.classes[name].methods.get("__init__")
                if ctor is not None:
                    self._edge(info.qualname, ctor, node)
                return
            targets = self.functions_by_name.get(name, ())
            if targets:
                for target in targets:
                    self._edge(info.qualname, target, node)
                return
            if resolved and "." in resolved:
                # e.g. ``from repro.core.joins.common import scan_pages``
                tail = resolved.rsplit(".", 1)[1]
                targets = self.functions_by_name.get(tail, ())
                if targets:
                    for target in targets:
                        self._edge(info.qualname, target, node)
                    return
                if resolved.startswith(PURE_MODULE_PREFIXES):
                    return
            if name == "super":
                return
            summary.opaque = True
            return
        if not isinstance(func, ast.Attribute):
            summary.opaque = True  # e.g. calling a subscripted value
            return
        handled_funcs.add(id(func))
        attr = func.attr
        receiver = func.value
        resolved = context.resolve(func)
        if resolved is not None:
            if resolved.startswith(RNG_PREFIXES):
                summary.rng = True
                return
            if resolved.startswith(PURE_MODULE_PREFIXES):
                return
        recv_cls = self._class_of(receiver, info, local_types)
        # 1) resolved model method
        if recv_cls is not None:
            target = self._class_attr(recv_cls, attr, "methods")
            if target is not None:
                self._edge(info.qualname, target, node)
                return
        # 2) known queue object
        queue = self._queue_of(receiver, info, local_types,
                               local_queues)
        if queue is not None and attr in (RESOURCE_METHODS
                                          | STORE_METHODS):
            summary.queues.add(queue)
            summary.schedules = True
            return
        # 3) kernel intrinsics
        if self._sim_ish(receiver, recv_cls):
            if attr == "process":
                summary.schedules = True
                self._record_spawn(node, info)
                return
            if attr in SIM_FACTORIES:
                summary.schedules = True
                return
            if attr in KERNEL_DRIVE_METHODS and not trusted:
                summary.unsafe += (
                    f"drives the scheduler via sim.{attr}() at "
                    f"{info.path.name}:{node.lineno}",)
                return
        if attr in EVENT_TRIGGERS:
            summary.schedules = True
            return
        if attr in RESOURCE_METHODS:
            summary.queues.add("resource:*")
            summary.schedules = True
            return
        if attr == "put":
            summary.queues.add("store:*")
            summary.schedules = True
            return
        # 4) generic container/str methods through the receiver
        if attr in MUTATING_METHODS or attr in PURE_METHODS:
            if isinstance(receiver, ast.Attribute):
                root: ast.expr = receiver
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name)
                        and root.id in context.aliases):
                    cls = self._class_of(receiver.value, info,
                                         local_types)
                    footprint = f"attr:{cls or '*'}.{receiver.attr}"
                    if attr in MUTATING_METHODS:
                        summary.writes.add(footprint)
                    else:
                        summary.reads.add(footprint)
            elif (isinstance(receiver, ast.Name)
                    and receiver.id in info.params
                    and attr in MUTATING_METHODS):
                summary.writes.add(f"attr:*.{receiver.id}")
            return
        # 5) RNG methods
        if attr in RNG_METHODS:
            summary.rng = True
            return
        # 6) unique-name fallback across all collected methods
        if attr not in FALLBACK_EXCLUDED:
            targets = self.methods_by_name.get(attr, ())
            if targets and len(targets) <= _FALLBACK_LIMIT:
                for target in targets:
                    self._edge(info.qualname, target, node)
                return
        summary.opaque = True

    def _edge(self, caller: str, callee: str, node: ast.Call) -> None:
        self.edges[caller].add(callee)
        self.call_records.append((caller, callee, node))

    def _record_spawn(self, node: ast.Call, info: CallableInfo) -> None:
        template = NameTemplate("*")
        has_name = False
        for keyword in node.keywords:
            if keyword.arg == "name":
                has_name = True
                template = name_template(keyword.value, info.params)
        gen_callables: list[str] = []
        gen_from_params = False
        resolved = True
        if node.args:
            gen = node.args[0]
            if isinstance(gen, ast.Name) and gen.id in info.params:
                gen_from_params = True
            else:
                gen_callables = self._harvest(gen, info)
                if not gen_callables:
                    if isinstance(gen, ast.Name):
                        # A loop/unpacking local (e.g. execute_phase's
                        # ``for _, gen in ...``): the generators flow
                        # in through the caller's arguments.
                        gen_from_params = True
                    else:
                        resolved = False
                elif (not has_name and isinstance(gen, ast.Call)):
                    # Unnamed spawn: the runtime label falls back to
                    # the generator function's __name__.
                    fn = gen.func
                    fn_name = (fn.id if isinstance(fn, ast.Name)
                               else fn.attr
                               if isinstance(fn, ast.Attribute)
                               else None)
                    if fn_name:
                        template = name_template(
                            ast.Constant(value=fn_name))
        else:
            resolved = False
        info.spawns.append(SpawnRecord(
            template=template,
            origin=f"{info.path.as_posix()}:{node.lineno}",
            gen_callables=tuple(gen_callables),
            gen_from_params=gen_from_params,
            resolved=resolved))

    def _harvest(self, node: ast.expr,
                 info: CallableInfo) -> list[str]:
        """Resolved model callables reachable from an expression —
        the generator factories feeding a spawn or wrapper call."""
        local_types, _ = self._local_bindings(info)
        found: list[str] = []
        names: list[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Name):
                targets = self.functions_by_name.get(func.id, ())
                found.extend(targets)
                if func.id in self.classes:
                    ctor = self.classes[func.id].methods.get("__init__")
                    if ctor:
                        found.append(ctor)
            elif isinstance(func, ast.Attribute):
                recv_cls = self._class_of(func.value, info, local_types)
                target = None
                if recv_cls is not None:
                    target = self._class_attr(recv_cls, func.attr,
                                              "methods")
                if target is None:
                    candidates = self.methods_by_name.get(func.attr, ())
                    if 0 < len(candidates) <= _FALLBACK_LIMIT:
                        found.extend(candidates)
                    continue
                found.append(target)
        # Name operands: harvest the statements that built them
        # (``consumers.append((site, gen(...)))`` etc.).
        for name in names:
            for stmt in ast.walk(info.node):
                if isinstance(stmt, ast.Call):
                    func = stmt.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in ("append", "extend")
                            and isinstance(func.value, ast.Name)
                            and func.value.id == name):
                        for arg in stmt.args:
                            if arg is not node:
                                found.extend(self._harvest(arg, info)
                                             if not isinstance(
                                                 arg, ast.Name)
                                             else [])
                elif (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == name
                        and stmt.value is not node
                        and not isinstance(stmt.value, ast.Name)):
                    found.extend(self._harvest(stmt.value, info))
        seen: list[str] = []
        for qualname in found:
            if qualname not in seen:
                seen.append(qualname)
        return seen

    # -- fixpoint and site derivation ------------------------------------

    def _fixpoint(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for caller, callees in self.edges.items():
                mine = self.summaries[caller]
                for callee in callees:
                    other = self.summaries.get(callee)
                    if other is not None and mine.join(other):
                        changed = True

    def _closure(self, roots: typing.Iterable[str]) -> set[str]:
        seen: set[str] = set()
        stack = [qn for qn in roots if qn in self.edges]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def _site_footprint(self, callables: typing.Sequence[str],
                        resolved: bool) -> EffectSummary:
        footprint = EffectSummary()
        if not resolved or not callables:
            footprint.opaque = True
        for qualname in callables:
            other = self.summaries.get(qualname)
            if other is None:
                footprint.opaque = True
            else:
                footprint.join(other)
        return footprint

    def derive_sites(self) -> ProgramAnalysis:
        """Expand spawn records into attributed site patterns."""
        sites: dict[str, SitePattern] = {}
        site_summaries: dict[str, EffectSummary] = {}

        def add_site(pattern: str, origin: str,
                     callables: tuple[str, ...], resolved: bool,
                     footprint: EffectSummary) -> None:
            existing = sites.get(pattern)
            if existing is None:
                sites[pattern] = SitePattern(pattern, origin,
                                             callables, resolved)
                site_summaries[pattern] = footprint
            else:
                merged = tuple(dict.fromkeys(
                    existing.callables + callables))
                sites[pattern] = SitePattern(
                    existing.pattern, existing.origin, merged,
                    existing.resolved and resolved)
                site_summaries[pattern].join(footprint)

        def add_process_site(pattern: str, origin: str,
                             callables: tuple[str, ...],
                             resolved: bool) -> None:
            footprint = self._site_footprint(callables, resolved)
            add_site(f"process:{pattern}", origin, callables, resolved,
                     footprint)
            # The completion event of the same process: firing resumes
            # whatever waits on it (the spawning phase, an AllOf) —
            # statically opaque state, kernel-safe plumbing.
            done = EffectSummary(opaque=True, unsafe=footprint.unsafe)
            done.schedules = True
            add_site(f"done:{pattern}", origin, callables, resolved,
                     done)

        # Direct spawns (template has no wrapper hole).
        for info in self.callables.values():
            for record in info.spawns:
                if record.gen_from_params or record.template.param:
                    continue
                add_process_site(record.template.concrete(),
                                 record.origin, record.gen_callables,
                                 record.resolved)
        # Wrapper spawns: substitute each call site's name argument
        # and harvest its generator factories.
        for caller, callee, node in self.call_records:
            callee_info = self.callables.get(callee)
            if callee_info is None or not callee_info.spawns:
                continue
            wrapper_records = [r for r in callee_info.spawns
                               if r.gen_from_params
                               or r.template.param]
            if not wrapper_records:
                continue
            caller_info = self.callables[caller]
            harvest: list[str] = []
            resolved = True
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                harvest.extend(self._harvest(arg, caller_info))
            if not harvest:
                resolved = False
            harvest.extend([callee])  # the wrapper's own effects
            for record in wrapper_records:
                pattern = record.template.concrete()
                if record.template.param is not None:
                    arg = self._argument_for(callee_info,
                                             record.template.param,
                                             node)
                    arg_pattern = pattern_of(arg)
                    pattern = record.template.substitute(arg_pattern)
                add_process_site(
                    pattern,
                    f"{caller_info.path.as_posix()}:{node.lineno}",
                    tuple(dict.fromkeys(harvest)),
                    resolved and record.resolved)
        # Resource/Store construction sites: the hold-expiry labels.
        for pattern, site in self.queue_sites.items():
            footprint = EffectSummary(queues={pattern}, schedules=True,
                                      opaque=True)
            add_site(pattern, site.origin, (), True, footprint)

        unsafe = {qn: summary.unsafe
                  for qn, summary in self.summaries.items()
                  if summary.unsafe}
        roots = [qn for site in sites.values() for qn in site.callables]
        reachable = self._closure(roots)
        return ProgramAnalysis(
            callables=self.callables, summaries=self.summaries,
            classes=self.classes, sites=sites,
            site_summaries=site_summaries, unsafe=unsafe,
            reachable=reachable)

    @staticmethod
    def _argument_for(callee: CallableInfo, param: str,
                      node: ast.Call) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == param:
                return keyword.value
        try:
            index = callee.params.index(param)
        except ValueError:
            return None
        if index < len(node.args):
            return node.args[index]
        return None


def sim_package_files(root: pathlib.Path,
                      config: LintConfig) -> list[pathlib.Path]:
    """Model-code files of the sim packages under ``root`` (the
    trusted ``repro/sim`` kernel excluded)."""
    src = root / "src" / "repro"
    if not src.is_dir():
        src = root
    files = []
    for path in sorted(src.rglob("*.py")):
        posix = path.as_posix()
        if "repro/sim/" in posix or posix.endswith("repro/sim.py"):
            continue
        if config.in_sim_package(path):
            files.append(path)
    return files


def analyse_paths(paths: typing.Sequence[pathlib.Path],
                  config: LintConfig | None = None) -> ProgramAnalysis:
    """Analyze an explicit set of model-code files."""
    analyzer = Analyzer(config)
    analyzer.load_paths(paths)
    analyzer.analyse()
    return analyzer.derive_sites()


def analyse_tree(root: pathlib.Path | None = None) -> ProgramAnalysis:
    """Analyze the repository's sim-scoped packages."""
    root = root or pathlib.Path.cwd()
    config = load_lint_config(root)
    return analyse_paths(sim_package_files(root, config), config)
