"""Module-level call graph over a file set.

Name resolution is *receiver-typed where possible, conservative
otherwise*.  The extractor records the receiver text of every call site
plus three cheap sources of type evidence — ``x = ClassName(...)`` local
bindings, parameter annotations, and class attribute types (from
``self.attr = ClassName(...)`` in any method and class-level annotations)
— so ``service.start()`` resolves to ``SolveService.start`` instead of
every ``start`` in the repo.  When no evidence exists, an attribute call
resolves to every *method* of that name and a bare call to every free
function of that name: for the checkers built on top (RPL102/RPL103) a
spurious edge costs a reviewable false positive while a missing edge
hides a real bug, so over-linking within the right category is the
right trade.

Besides plain call edges, the extractor records everything the
concurrency checkers need in one pass per function:

- **sinks** — blocking operations (``time.sleep``, ``os.fsync``, sync
  file I/O, non-awaited blocking ``queue.get``, ``np.linalg``
  factorizations);
- **thread refs** — callables handed to another thread or process
  (``asyncio.to_thread(fn)``, ``loop.run_in_executor(_, fn)``,
  ``Thread(target=fn)`` / ``Process(target=fn)``, ``pool.submit(fn)``);
  these seed RPL103's worker-thread context, and call edges *through*
  them are marked ``sanitized`` so RPL102 stops at the handoff;
- **attr writes** — mutations of ``self.<attr>`` (assignment, augmented
  assignment, subscript stores, mutator-method calls) with the lexically
  enclosing ``with``-lock, for RPL103's lock-discipline check;
- **lock context per call site** — so a helper whose *every* caller holds
  the same lock can inherit that guard (the ``_do_locked`` idiom).

A build over the whole package takes about 0.3 s on a 2-vCPU host, so
every run rebuilds it rather than caching it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "AttrWrite",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "Sink",
    "build_call_graph",
]

#: Attribute methods that mutate their receiver in place.
_MUTATORS = {
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: ``np.linalg`` members that do real factorization work (seconds on big
#: operands — never acceptable inline on the event loop).
_LINALG_SINKS = {"cholesky", "qr", "svd", "eig", "eigh", "solve", "inv", "lstsq", "pinv"}

#: Path methods that hit the filesystem synchronously.
_FILE_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: Receiver-name fragments that mark a ``.get(...)`` as a blocking queue
#: read rather than a dict lookup.
_QUEUEISH = ("queue", "inbox", "outbox")

_CLASSNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

#: Generic/typing wrappers to skip when digging a class name out of an
#: annotation — ``Optional[JobJournal]`` names JobJournal, not Optional.
_TYPING_WRAPPERS = {
    "Annotated",
    "Any",
    "Awaitable",
    "Callable",
    "ClassVar",
    "Deque",
    "Dict",
    "Final",
    "FrozenSet",
    "Iterable",
    "Iterator",
    "List",
    "Mapping",
    "MutableMapping",
    "Optional",
    "Sequence",
    "Set",
    "Tuple",
    "Type",
    "Union",
}


def _is_classlike(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped[:1].isupper() and name not in _TYPING_WRAPPERS


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str  # bare name: last attribute segment or the Name itself
    line: int
    recv: str | None = None  # receiver chain text ("self._journal"), None for bare calls
    awaited: bool = False
    sanitized: bool = False  # behind to_thread / run_in_executor
    lock: str | None = None  # enclosing with-lock receiver, e.g. "self._lock"


@dataclass
class Sink:
    """A known-blocking operation site."""

    kind: str  # "sleep" | "fsync" | "file-io" | "linalg" | "queue-get"
    label: str  # human-readable call text, e.g. "time.sleep"
    line: int


@dataclass
class AttrWrite:
    """A mutation of ``self.<attr>`` inside a method."""

    attr: str
    line: int
    lock: str | None = None  # enclosing with-lock receiver, if any


@dataclass
class FunctionInfo:
    """Everything the flow checkers need to know about one function."""

    qualname: str  # "pkg/mod.py::Class.method"
    path: str  # posix path as given to build_call_graph
    name: str  # bare function name
    owner: str | None  # enclosing class name, if a method
    is_async: bool
    line: int
    calls: list[CallSite] = field(default_factory=list)
    sinks: list[Sink] = field(default_factory=list)
    thread_refs: list[str] = field(default_factory=list)
    attr_writes: list[AttrWrite] = field(default_factory=list)
    param_types: dict[str, str] = field(default_factory=dict)  # arg name -> class
    local_types: dict[str, str] = field(default_factory=dict)  # local name -> class
    attr_types: dict[str, str] = field(default_factory=dict)  # self.attr -> class
    iter_sources: dict[str, str] = field(default_factory=dict)  # for-target -> container


@dataclass
class CallGraph:
    """Functions indexed by bare name, plus receiver-type evidence."""

    functions: list[FunctionInfo]
    classes: dict[str, dict[str, str]] = field(default_factory=dict)  # class -> attr -> type
    bases: dict[str, list[str]] = field(default_factory=dict)  # class -> base classes

    def __post_init__(self) -> None:
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
            # ``ClassName(...)`` constructs an instance: route the call
            # edge to the class's __init__.
            if fn.name == "__init__" and fn.owner:
                self.by_name.setdefault(fn.owner, []).append(fn)
            # Method-body ``self.attr = ClassName(...)`` evidence.
            if fn.owner and fn.attr_types:
                slot = self.classes.setdefault(fn.owner, {})
                for attr, cls in fn.attr_types.items():
                    slot.setdefault(attr, cls)
        self._children: dict[str, list[str]] = {}
        for cls, parents in self.bases.items():
            for parent in parents:
                self._children.setdefault(parent, []).append(cls)

    def resolve(self, callee: str) -> list[FunctionInfo]:
        """Every function with this bare name (untyped lookup)."""
        return self.by_name.get(callee, [])

    def _receiver_class(
        self, recv: str, caller: FunctionInfo, _depth: int = 0
    ) -> str | None:
        parts = recv.split(".")
        if parts[0] == "self":
            if caller.owner is None:
                return None
            if len(parts) == 1:
                return caller.owner
            if len(parts) == 2:
                return self.classes.get(caller.owner, {}).get(parts[1])
            return None
        base = caller.local_types.get(parts[0]) or caller.param_types.get(parts[0])
        if base is None and _depth < 3:
            # ``for handle in self._handles:`` — type the loop target from
            # its container (element types are conflated into the
            # container's recorded class, see _class_from_annotation).
            container = caller.iter_sources.get(parts[0])
            if container is not None and container != recv:
                base = self._receiver_class(container, caller, _depth + 1)
        if base is None:
            return None
        if len(parts) == 1:
            return base
        if len(parts) == 2:
            return self.classes.get(base, {}).get(parts[1])
        return None

    def _hierarchy(self, cls: str) -> set[str]:
        """*cls* plus transitive ancestors and descendants — the classes a
        receiver statically typed as *cls* could dynamically dispatch to."""
        out = {cls}
        work = [cls]
        while work:  # ancestors
            for parent in self.bases.get(work.pop(), []):
                if parent not in out:
                    out.add(parent)
                    work.append(parent)
        work = [cls]
        while work:  # descendants
            for child in self._children.get(work.pop(), []):
                if child not in out:
                    out.add(child)
                    work.append(child)
        return out

    def resolve_call(self, call: CallSite, caller: FunctionInfo) -> list[FunctionInfo]:
        """Candidates for a call site, narrowed by receiver evidence.

        - Bare ``foo()`` → free functions named ``foo`` plus ``Foo()``
          constructors (never someone's *method* ``foo``).
        - Receiver typed as one of *our* classes → methods of that class's
          hierarchy (ancestors for inherited helpers, descendants for
          virtual dispatch through a base-typed handle).
        - Receiver typed as a class we never scanned (``asyncio.Semaphore``,
          ``threading.Lock``) → no edges: its methods cannot be in this
          graph, and same-named methods of unrelated classes are noise.
        - Untyped attribute receiver → every method of that name.
        """
        cands = self.by_name.get(call.callee, [])
        if not cands:
            return []
        if call.recv is None:
            return [f for f in cands if f.owner is None or f.name == "__init__"]
        cls = self._receiver_class(call.recv, caller)
        if cls is not None:
            hier = self._hierarchy(cls)
            owned = [f for f in cands if f.owner in hier]
            # No hierarchy match: either the method lives outside the file
            # set (external class) or the type evidence was wrong; in both
            # cases same-named methods of unrelated classes are noise.
            return owned
        return [f for f in cands if f.owner is not None]


def _attr_chain(node: ast.expr) -> str | None:
    """Dotted text of a Name/Attribute chain, or None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _bare_callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _class_from_annotation(annotation: ast.expr | None) -> str | None:
    """``JobJournal | None`` / ``"Machine"`` / ``list[_WorkerHandle]`` →
    the first class-like bare name in the annotation.  Container element
    types are deliberately conflated with the container — good enough for
    ``for handle in self._handles`` receiver typing."""
    if annotation is None:
        return None
    try:
        text = ast.unparse(annotation)
    except ValueError:  # pragma: no cover - malformed constant in annotation
        return None
    text = text.strip().strip("'\"")
    saw_any = False
    for match in _CLASSNAME_RE.finditer(text):
        name = match.group(0).rsplit(".", 1)[-1]
        if name == "Any":
            saw_any = True
        if _is_classlike(name):
            return name
    # ``dict[str, Any]`` — the author declared the values untypeable;
    # treating them as an (unknown, external) class keeps method calls on
    # them from fanning out to every same-named method in the graph.
    return "_ExternalAny" if saw_any else None


def _class_from_ctor(value: ast.expr) -> str | None:
    """``ClassName(...)`` (possibly awaited) → "ClassName"."""
    if isinstance(value, ast.Await):
        value = value.value
    if not isinstance(value, ast.Call):
        return None
    name = _bare_callee(value.func)
    if name == "open":
        # File objects are external: typing them (as a class no scanned
        # file defines) stops ``fh.close()`` / ``fh.write()`` from fanning
        # out to every same-named method in the graph.
        return "_ExternalFileObject"
    if name and _is_classlike(name):
        return name
    return None


def _is_lock_guard(item: ast.withitem) -> str | None:
    """The with-item's receiver text if it looks like a lock, else None."""
    expr = item.context_expr
    # ``with self._lock:`` and ``with lock.acquire_timeout(...):`` both
    # count; what matters is the *receiver* the guard serializes on.
    if isinstance(expr, ast.Call):
        expr = expr.func
        if isinstance(expr, ast.Attribute):
            expr = expr.value
    chain = _attr_chain(expr)
    if chain is None:
        return None
    last = chain.rsplit(".", 1)[-1].lower()
    if "lock" in last or "mutex" in last:
        return chain
    return None


class _FunctionScanner(ast.NodeVisitor):
    """One pass over a single function body (not descending into nested
    function definitions — those are scanned as their own functions)."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self._lock_stack: list[str] = []
        self._await_depth = 0
        self._sanitize_depth = 0

    @property
    def _lock(self) -> str | None:
        return self._lock_stack[-1] if self._lock_stack else None

    # Nested defs get their own FunctionInfo; don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        guards = [g for item in node.items if (g := _is_lock_guard(item))]
        for item in node.items:
            self.visit(item.context_expr)
        self._lock_stack.extend(guards)
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            if guards:
                del self._lock_stack[-len(guards) :]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Await(self, node: ast.Await) -> None:
        self._await_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._await_depth -= 1

    # ── writes & type evidence ──────────────────────────────────────────

    def _record_write(self, target: ast.expr) -> None:
        # self.attr = ...  /  self.attr[k] = ...
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.info.attr_writes.append(
                AttrWrite(attr=target.attr, line=target.lineno, lock=self._lock)
            )

    def _record_types(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is None:
            return
        cls = _class_from_ctor(value)
        if cls is None:
            # ``shm = self.segments.get(key)`` / ``h = self.handles[k]`` —
            # the local shares the container's (element-conflated) type;
            # resolved lazily through iter_sources like a loop target.
            if isinstance(target, ast.Name):
                source = value
                if (
                    isinstance(source, ast.Call)
                    and isinstance(source.func, ast.Attribute)
                    and source.func.attr in ("get", "pop", "popleft")
                ):
                    source = source.func.value
                elif isinstance(source, ast.Subscript):
                    source = source.value
                else:
                    return
                chain = _attr_chain(source)
                if chain is not None:
                    self.info.iter_sources.setdefault(target.id, chain)
            return
        if isinstance(target, ast.Name):
            self.info.local_types.setdefault(target.id, cls)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.info.attr_types.setdefault(target.attr, cls)

    def _record_iter(self, node: ast.For | ast.AsyncFor) -> None:
        if isinstance(node.target, ast.Name):
            source = node.iter
            # ``for shm in self.segments.values():`` — the values share
            # the container's (element-conflated) type.
            if (
                isinstance(source, ast.Call)
                and isinstance(source.func, ast.Attribute)
                and source.func.attr == "values"
                and not source.args
            ):
                source = source.func.value
            elif isinstance(source, (ast.Tuple, ast.List)) and source.elts:
                # ``for q in (self.inbox, self.outbox):`` — literal tuples
                # are near-always homogeneous; type from the first element.
                source = source.elts[0]
            chain = _attr_chain(source)
            if chain is not None:
                self.info.iter_sources.setdefault(node.target.id, chain)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_iter(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._record_iter(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target)
            self._record_types(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target)
            self._record_types(node.target, node.value)
        cls = _class_from_annotation(node.annotation)
        if cls is not None:
            if isinstance(node.target, ast.Name):
                self.info.local_types.setdefault(node.target.id, cls)
            elif (
                isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
            ):
                # ``self._handles: list[_WorkerHandle] = []`` — the
                # annotation beats the ctor-shape heuristic.
                self.info.attr_types[node.target.attr] = cls
        self.generic_visit(node)

    # ── calls ───────────────────────────────────────────────────────────

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        callee = _bare_callee(node.func)
        awaited = self._await_depth > 0

        self._record_sinks(node, chain, callee, awaited)

        handoff_refs = self._thread_handoff_refs(node, callee)
        if handoff_refs:
            self.info.thread_refs.extend(handoff_refs)

        # Mutator-method calls on self attributes are writes too:
        # ``self._idle.append(h)``, ``self._observations.clear()``.
        if (
            callee in _MUTATORS
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
        ):
            self.info.attr_writes.append(
                AttrWrite(attr=node.func.value.attr, line=node.lineno, lock=self._lock)
            )

        if callee is not None:
            recv = (
                _attr_chain(node.func.value) if isinstance(node.func, ast.Attribute) else None
            )
            self.info.calls.append(
                CallSite(
                    callee=callee,
                    line=node.lineno,
                    recv=recv,
                    awaited=awaited,
                    sanitized=self._sanitize_depth > 0,
                    lock=self._lock,
                )
            )

        # Calls nested in a thread handoff's arguments run off-loop.
        if handoff_refs:
            self._sanitize_depth += 1
            try:
                self.generic_visit(node)
            finally:
                self._sanitize_depth -= 1
        else:
            self.generic_visit(node)

    def _record_sinks(
        self, node: ast.Call, chain: str | None, callee: str | None, awaited: bool
    ) -> None:
        line = node.lineno
        if chain == "time.sleep":
            self.info.sinks.append(Sink("sleep", chain, line))
        elif chain == "os.fsync":
            self.info.sinks.append(Sink("fsync", chain, line))
        elif chain == "open" or (callee == "open" and isinstance(node.func, ast.Attribute)):
            self.info.sinks.append(Sink("file-io", chain or "open", line))
        elif callee in _FILE_IO_METHODS:
            self.info.sinks.append(Sink("file-io", chain or callee, line))
        elif chain is not None and ".linalg." in f".{chain}" and callee in _LINALG_SINKS:
            self.info.sinks.append(Sink("linalg", chain, line))
        elif callee == "get" and not awaited and isinstance(node.func, ast.Attribute):
            recv = _attr_chain(node.func.value)
            if recv is not None and any(q in recv.lower() for q in _QUEUEISH):
                self.info.sinks.append(Sink("queue-get", f"{recv}.get", line))

    def _thread_handoff_refs(self, node: ast.Call, callee: str | None) -> list[str]:
        """Bare names of callables this call hands to another thread."""
        refs: list[str] = []

        def ref_of(expr: ast.expr) -> str | None:
            return _bare_callee(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None

        if callee == "to_thread" and node.args:
            ref = ref_of(node.args[0])
            if ref:
                refs.append(ref)
        elif callee == "run_in_executor" and len(node.args) >= 2:
            ref = ref_of(node.args[1])
            if ref:
                refs.append(ref)
        elif callee in ("Thread", "Process", "Timer"):
            for kw in node.keywords:
                if kw.arg == "target":
                    ref = ref_of(kw.value)
                    if ref:
                        refs.append(ref)
        elif callee in ("submit", "apply_async", "map_async") and node.args:
            # Only pool-shaped receivers: ``service.submit(job)`` submits
            # a job *object*, it does not hand ``job`` to a thread.
            recv = (
                _attr_chain(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            last = recv.rsplit(".", 1)[-1].lower() if recv else ""
            if "pool" in last or "executor" in last:
                ref = ref_of(node.args[0])
                if ref:
                    refs.append(ref)
        return refs


def _scan_params(fn: ast.FunctionDef | ast.AsyncFunctionDef, info: FunctionInfo) -> None:
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        cls = _class_from_annotation(arg.annotation)
        if cls is not None:
            info.param_types[arg.arg] = cls


def _scan_source(
    path: str, tree: ast.Module
) -> tuple[list[FunctionInfo], dict[str, dict[str, str]], dict[str, list[str]]]:
    functions: list[FunctionInfo] = []
    class_types: dict[str, dict[str, str]] = {}
    class_bases: dict[str, list[str]] = {}

    def walk(node: ast.AST, owner: str | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                info = FunctionInfo(
                    qualname=f"{path}::{qual}",
                    path=path,
                    name=child.name,
                    owner=owner,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    line=child.lineno,
                )
                _scan_params(child, info)
                scanner = _FunctionScanner(info)
                for stmt in child.body:
                    scanner.visit(stmt)
                functions.append(info)
                walk(child, owner, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                base_names = [
                    b for base in child.bases if (b := _bare_callee(base)) is not None
                ]
                if base_names:
                    class_bases.setdefault(child.name, base_names)
                # Class-level annotations (dataclass fields) are receiver
                # type evidence: ``journal: JobJournal | None = None``.
                slots = class_types.setdefault(child.name, {})
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        cls = _class_from_annotation(stmt.annotation)
                        if cls is not None:
                            slots.setdefault(stmt.target.id, cls)
                walk(child, child.name, f"{prefix}{child.name}.")
            else:
                walk(child, owner, prefix)

    walk(tree, None, "")
    return functions, class_types, class_bases


def build_call_graph(sources: list[tuple[str, str]]) -> CallGraph:
    """Build the call graph for *sources*.

    *sources* are ``(path, text)`` pairs; paths are used verbatim in
    qualnames and findings, so pass them repo-relative.
    """
    functions: list[FunctionInfo] = []
    classes: dict[str, dict[str, str]] = {}
    bases: dict[str, list[str]] = {}
    for path, text in sorted(sources):
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue  # unparseable files simply contribute no functions
        fns, class_types, class_bases = _scan_source(path, tree)
        functions.extend(fns)
        for cls, attrs in class_types.items():
            slot = classes.setdefault(cls, {})
            for attr, typ in attrs.items():
                slot.setdefault(attr, typ)
        for cls, parents in class_bases.items():
            bases.setdefault(cls, parents)
    return CallGraph(functions=functions, classes=classes, bases=bases)
