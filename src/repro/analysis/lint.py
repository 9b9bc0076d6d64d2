"""``ast``-based lint pass enforcing repo invariants (rules RPL001–RPL009).

The rules guard properties the test suite cannot see directly:

- **RPL001** — no bare ``np.random.*`` *calls* outside ``util/rng.py``.
  Reproducibility: all randomness must flow through
  :func:`repro.util.rng.resolve_rng` so every experiment is seedable.
  (Type annotations naming ``np.random.Generator`` are fine — only calls
  are flagged.)
- **RPL002** — no silent dtype narrowing in ``core/``, ``magma/``,
  ``blas/``: ``.astype(np.float32)``-style conversions or
  ``dtype=float32/float16`` keywords.  The two-checksum code's detection
  thresholds are calibrated for float64 round-off; narrowing a tile or
  checksum silently turns round-off into "faults".
- **RPL003** — exceptions must come from :mod:`repro.util.exceptions`:
  raising builtin exception classes (``ValueError``, ``RuntimeError``, ...)
  bypasses the :class:`~repro.util.exceptions.ReproError` hierarchy callers
  catch.  ``SystemExit`` (CLI argument errors) and ``NotImplementedError``
  (abstract methods) are conventional and allowed.
- **RPL004** — every task launch in ``magma/ops.py`` with a ``fn=``
  numerics callback mutates device tiles in place, so it must declare
  ``tile_writes=`` (the event the checksum-update pairing and the protocol
  analyzer key on) — an undeclared mutation is invisible to
  :mod:`repro.analysis.protocol`.
- **RPL005** — every ``async def`` handler in :mod:`repro.service` (a
  coroutine named ``handle*`` or ``*_handler``) must enforce a timeout via
  ``asyncio.wait_for`` / ``asyncio.timeout`` / ``asyncio.timeout_at``.
  The service wraps blocking factorizations in worker threads; a handler
  awaiting one without a deadline can wedge a pool slot forever, which no
  test observes until the loadgen hangs.
- **RPL006** — no per-tile Python loops on the verification hot path:
  inside the designated hot modules (``core/correct.py``,
  ``core/checksum.py``, ``core/update.py``, ``core/batchverify.py``), a
  ``for``/``while`` loop body must not call the per-tile accessors
  ``tile_view`` / ``strip`` / ``block``.  The checksum detector
  (:mod:`repro.core.batchverify`) exists so these paths issue stacked
  operations over gathered batches and fused panels; a new per-tile loop
  silently reintroduces the swarm of small kernels Optimization 1
  removed.  Cold paths (host reference implementations, the flagged
  tiles only) and measured exceptions opt out with ``# noqa: RPL006``
  on the loop line.
- **RPL007** — no ndarray passed positionally into a cross-process submit
  call (``put`` / ``put_nowait`` / ``submit`` / ``apply_async`` / ``send``)
  inside ``exec/`` and ``service/``.  The process backend's zero-copy
  contract says matrices cross the worker boundary as
  :class:`~repro.hetero.memory.ShmDescriptor` records over shared memory;
  a pickled ndarray in a queue payload silently reintroduces the copy
  (and the multi-MB IPC) the transport exists to avoid.  The check is a
  conservative heuristic: it flags direct ``np.*`` / known-producer calls
  (``job_matrix``, ``random_spd``, ``.copy()``), names assigned from
  them, and parameters annotated ``np.ndarray``.

- **RPL008** — no swallowed cancellation or silenced broad excepts in the
  concurrency layers (``exec/``, ``service/``, ``resilience/``).  Two
  shapes are flagged: (a) an ``except`` naming ``asyncio.CancelledError``
  whose body never re-raises — cancellation is control flow, and eating
  it detaches a task from ``stop()``/``abort()`` and deadlocks drains;
  (b) an ``except Exception`` / ``except BaseException`` / bare ``except``
  whose body does nothing but ``pass``/``continue`` — a silently dropped
  infrastructure failure is exactly the signal the circuit breaker and
  the retry ladder need to see.  Genuinely-intentional sinks opt out with
  ``# noqa: RPL008`` on the ``except`` line.
- **RPL009** — runtime task kernels must declare their tile footprints.
  In :mod:`repro.runtime` the scheduler derives every dependency edge
  from the ``reads=`` / ``writes=`` cell sets declared at ``graph.add``
  time, so (a) any call carrying an ``fn=`` task body must also carry
  both ``reads=`` and ``writes=``, and (b) raw tile/strip accessors
  (``tile`` / ``strip`` / ``tile_view`` / ``block`` / ``strip_panel`` /
  ``block_row``) may be called only inside a task body — a ``_body*``
  function, a function handed to some ``fn=``, or an accessor method
  delegating to another accessor.  An undeclared access races every
  schedule the DAG permits and no single test run will catch it.

The flow tier (RPL101–RPL103, :mod:`repro.analysis.flow`) registers here
too so ``--select``, noqa accounting and the generated docs table see one
registry; its checkers are whole-program and run through
:func:`run_lint` with ``tiers=("flow",)`` rather than per-file.

Suppression: ``# noqa`` on a line suppresses every rule there;
``# noqa: RPL001,RPL003`` suppresses just those.  A *comment-only* line
``# noqa: RPL007`` applies file-wide (coded directives only — a bare
file-level ``# noqa`` would silence everything and is ignored).  Explicit
codes belonging to rules that ran but suppressed nothing are themselves
reported (rule ``noqa-unused``) so suppressions cannot rot silently.
Rules live in a registry keyed by id — register new ones with
:func:`rule`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.report import Finding
from repro.util.exceptions import ValidationError

_NARROW_DTYPES = {"float32", "float16", "half", "single"}
_BUILTIN_EXCEPTIONS = {
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "Exception",
    "IndexError",
    "KeyError",
    "LookupError",
    "MemoryError",
    "OSError",
    "OverflowError",
    "RuntimeError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
}
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class LintTarget:
    """One parsed file, as handed to every rule."""

    path: Path
    tree: ast.AST
    lines: list[str]

    @property
    def posix(self) -> str:
        return self.path.as_posix()


Checker = Callable[[LintTarget], list[tuple[int, str]]]

TIERS = ("classic", "flow")


@dataclass(frozen=True)
class Rule:
    id: str
    description: str
    check: Checker | None  # None for flow-tier rules (whole-program checkers)
    tier: str = "classic"
    scope: str = "repo-wide"
    noqa: str = "line-level"


RULES: dict[str, Rule] = {}


def rule(
    rule_id: str,
    description: str,
    *,
    tier: str = "classic",
    scope: str = "repo-wide",
    noqa: str = "line-level",
) -> Callable[[Checker], Checker]:
    """Register a lint rule under *rule_id* (pluggable registry)."""

    def register(check: Checker) -> Checker:
        RULES[rule_id] = Rule(rule_id, description, check, tier=tier, scope=scope, noqa=noqa)
        return check

    return register


def rules_table() -> str:
    """The markdown rule table embedded in ``docs/static_analysis.md``.

    Generated so the docs cannot drift from the registry — a doc-sync
    test regenerates this and diffs it against the committed file.
    """
    header = "| id | tier | scope | noqa policy | description |"
    sep = "| --- | --- | --- | --- | --- |"
    rows = [header, sep]
    for rid in sorted(RULES):
        r = RULES[rid]
        rows.append(f"| {r.id} | {r.tier} | {r.scope} | {r.noqa} | {r.description} |")
    return "\n".join(rows)


# AST helpers ------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _names_narrow_dtype(node: ast.expr) -> bool:
    chain = _attr_chain(node)
    if chain and chain[0] in ("np", "numpy") and chain[-1] in _NARROW_DTYPES:
        return True
    return isinstance(node, ast.Constant) and node.value in _NARROW_DTYPES


# Rules ------------------------------------------------------------------------


@rule(
    "RPL001",
    "no bare np.random.* calls outside util/rng.py",
    scope="repo-wide (except util/rng.py)",
    noqa="line-level",
)
def _check_bare_random(target: LintTarget) -> list[tuple[int, str]]:
    if target.posix.endswith("util/rng.py"):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            out.append(
                (
                    node.lineno,
                    f"bare {'.'.join(chain)}() call; route randomness through "
                    "repro.util.rng.resolve_rng",
                )
            )
    return out


@rule(
    "RPL002",
    "no silent dtype narrowing in core//magma//blas/",
    scope="core/, magma/, blas/",
    noqa="line-level",
)
def _check_dtype_narrowing(target: LintTarget) -> list[tuple[int, str]]:
    if not any(part in ("core", "magma", "blas") for part in target.path.parts):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and any(_names_narrow_dtype(arg) for arg in node.args)
        ):
            out.append((node.lineno, "astype() to a narrower float dtype"))
        for kw in node.keywords:
            if kw.arg == "dtype" and kw.value is not None and _names_narrow_dtype(kw.value):
                out.append((node.lineno, "dtype= keyword narrows to sub-f64 precision"))
    return out


@rule(
    "RPL003",
    "raise only exceptions from util/exceptions.py",
    scope="repo-wide (except util/exceptions.py)",
    noqa="line-level",
)
def _check_exception_origin(target: LintTarget) -> list[tuple[int, str]]:
    if target.posix.endswith("util/exceptions.py"):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            out.append(
                (
                    node.lineno,
                    f"raise of builtin {name}; use the repro.util.exceptions "
                    "hierarchy (e.g. ValidationError)",
                )
            )
    return out


@rule(
    "RPL004",
    "launches in magma/ops.py must declare their tile writes",
    scope="magma/ops.py",
    noqa="line-level",
)
def _check_declared_mutation(target: LintTarget) -> list[tuple[int, str]]:
    if not target.posix.endswith("magma/ops.py"):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain or not chain[-1].startswith("launch_"):
            continue
        kwargs = {kw.arg for kw in node.keywords if kw.arg}
        if "fn" in kwargs and "tile_writes" not in kwargs:
            out.append(
                (
                    node.lineno,
                    "in-place numerics launch without tile_writes=; the "
                    "checksum-update pairing cannot be verified",
                )
            )
    return out


_TIMEOUT_CALLS = {"wait_for", "timeout", "timeout_at"}


def _is_handler_name(name: str) -> bool:
    return name.startswith("handle") or name.endswith("_handler")


def _enforces_timeout(fn: ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) >= 2 and chain[0] == "asyncio" and chain[-1] in _TIMEOUT_CALLS:
            return True
    return False


@rule(
    "RPL005",
    "service/resilience async handlers must enforce a timeout",
    scope="service/, resilience/",
    noqa="line-level (on the async def line)",
)
def _check_handler_timeout(target: LintTarget) -> list[tuple[int, str]]:
    if not any(part in ("service", "resilience") for part in target.path.parts):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.AsyncFunctionDef) or not _is_handler_name(node.name):
            continue
        if not _enforces_timeout(node):
            out.append(
                (
                    node.lineno,
                    f"async handler {node.name}() awaits without a timeout; wrap the "
                    "await in asyncio.wait_for / asyncio.timeout",
                )
            )
    return out


#: Modules whose real-mode numerics are required to stay batched.
_HOT_MODULES = (
    "core/correct.py",
    "core/checksum.py",
    "core/update.py",
    "core/batchverify.py",
)

#: Per-tile accessors whose presence in a loop body marks a per-tile loop.
#: The fused panel accessors (``strip_row``, ``strip_panel``,
#: ``block_row``) and the gathered ``tiles4[ii, :, jj, :]`` batch are
#: exactly what the rule pushes code toward.
_PER_TILE_ACCESSORS = {"tile_view", "strip", "block"}


@rule(
    "RPL006",
    "no per-tile accessor loops in the verification hot modules",
    scope="core/ hot modules",
    noqa="line-level (cold paths opt out on the loop line)",
)
def _check_per_tile_loops(target: LintTarget) -> list[tuple[int, str]]:
    if not any(target.posix.endswith(mod) for mod in _HOT_MODULES):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in ast.walk(node):
            if inner is node or not isinstance(inner, ast.Call):
                continue
            if (
                isinstance(inner.func, ast.Attribute)
                and inner.func.attr in _PER_TILE_ACCESSORS
            ):
                out.append(
                    (
                        node.lineno,
                        f"per-tile {inner.func.attr}() loop on the hot path; "
                        "stack the batch through repro.core.batchverify "
                        "or a fused panel instead (or # noqa: RPL006 a "
                        "cold path)",
                    )
                )
                break
    return out


#: Queue/pool methods that move a payload toward another process.
_SUBMIT_CALLS = {"put", "put_nowait", "submit", "apply_async", "send", "send_bytes"}

#: Call roots/names that produce ndarrays (the transport must never carry).
_ARRAY_PRODUCERS = {"job_matrix", "random_spd", "empty_like", "zeros_like", "ones_like"}


def _looks_like_array(node: ast.expr, arrayish: set[str]) -> bool:
    """Conservatively: does this expression evaluate to an ndarray?"""
    if isinstance(node, ast.Name):
        return node.id in arrayish
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[0] in ("np", "numpy"):
            return True
        if chain and chain[-1] in _ARRAY_PRODUCERS:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "copy":
            return True
    return False


def _is_ndarray_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return "ndarray" in text


@rule(
    "RPL007",
    "no ndarray positionally into cross-process submit calls",
    scope="exec/, service/",
    noqa="line-level",
)
def _check_ndarray_transport(target: LintTarget) -> list[tuple[int, str]]:
    if not any(part in ("exec", "service") for part in target.path.parts):
        return []
    out = []
    for scope in ast.walk(target.tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arrayish: set[str] = set()
        all_args = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
        for arg in all_args:
            if _is_ndarray_annotation(arg.annotation):
                arrayish.add(arg.arg)
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                if _looks_like_array(node.value, arrayish):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            arrayish.add(tgt.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_ndarray_annotation(node.annotation) or (
                    node.value is not None and _looks_like_array(node.value, arrayish)
                ):
                    arrayish.add(node.target.id)
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _SUBMIT_CALLS:
                continue
            for arg in node.args:
                candidates = arg.elts if isinstance(arg, (ast.Tuple, ast.List)) else [arg]
                for el in candidates:
                    if _looks_like_array(el, arrayish):
                        out.append(
                            (
                                node.lineno,
                                f"ndarray passed positionally into .{node.func.attr}(); "
                                "cross-process payloads must carry a ShmDescriptor "
                                "(repro.hetero.memory), never a pickled matrix",
                            )
                        )
    return out


#: Catch-alls whose silent bodies hide the failures resilience reacts to.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Dotted names this handler catches (last segment each), "" for bare."""
    if handler.type is None:
        return [""]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = []
    for node in nodes:
        chain = _attr_chain(node)
        names.append(chain[-1] if chain else "?")
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _body_is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the body only passes/continues (or evaluates a constant)."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@rule(
    "RPL008",
    "no swallowed CancelledError / silenced broad excepts in exec//service//resilience/",
    scope="exec/, service/, resilience/",
    noqa="line-level (on the except line)",
)
def _check_swallowed_failures(target: LintTarget) -> list[tuple[int, str]]:
    if not any(part in ("exec", "service", "resilience") for part in target.path.parts):
        return []
    out = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _handler_names(node)
        if "CancelledError" in names and not _reraises(node):
            out.append(
                (
                    node.lineno,
                    "except CancelledError without re-raise; cancellation is "
                    "control flow — handle-and-raise, or let it propagate",
                )
            )
        elif (set(names) & _BROAD_EXCEPTIONS or "" in names) and _body_is_silent(node):
            caught = " | ".join(n or "<bare>" for n in names)
            out.append(
                (
                    node.lineno,
                    f"except {caught} with a silent body; a dropped failure "
                    "never reaches the retry ladder or circuit breaker "
                    "(# noqa: RPL008 for an intentional sink)",
                )
            )
    return out


#: Raw tile/strip accessors the runtime may only touch from a task body.
_RUNTIME_ACCESSORS = {"tile", "strip", "tile_view", "block", "strip_panel", "block_row"}


def _fn_kwarg_names(tree: ast.AST) -> set[str]:
    """Function names handed to some ``fn=`` kwarg (directly or as the
    factory being called: ``fn=_potf2_body(...)`` marks ``_potf2_body``)."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg != "fn":
                continue
            value = kw.value
            if isinstance(value, ast.Call):
                value = value.func
            chain = _attr_chain(value)
            if chain:
                refs.add(chain[-1])
    return refs


@rule(
    "RPL009",
    "runtime task kernels must declare their tile reads/writes",
    scope="runtime/",
    noqa="line-level",
)
def _check_runtime_footprints(target: LintTarget) -> list[tuple[int, str]]:
    if "runtime" not in target.path.parts:
        return []
    out: list[tuple[int, str]] = []
    for node in ast.walk(target.tree):
        if not isinstance(node, ast.Call):
            continue
        kwargs = {kw.arg for kw in node.keywords if kw.arg}
        if "fn" in kwargs and not {"reads", "writes"} <= kwargs:
            out.append(
                (
                    node.lineno,
                    "task launch with fn= but without reads=/writes=; the DAG "
                    "derives every dependency edge from the declared footprint",
                )
            )
    fn_refs = _fn_kwarg_names(target.tree)

    def _is_task_body(owner: str | None) -> bool:
        return owner is not None and (
            owner.startswith("_body") or owner in fn_refs or owner in _RUNTIME_ACCESSORS
        )

    def _visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _RUNTIME_ACCESSORS
                and not _is_task_body(owner)
            ):
                out.append(
                    (
                        child.lineno,
                        f"raw {child.func.attr}() access outside a task body; "
                        "runtime kernels touch tiles only from fn= bodies whose "
                        "reads=/writes= the graph has seen",
                    )
                )
            _visit(child, owner)

    _visit(target.tree, None)
    return sorted(out)


# Flow-tier registrations ------------------------------------------------------
# Whole-program rules (check=None): dispatched by run_lint, not per-file.

rule(
    "RPL101",
    "resources acquired in the concurrency layers must be released on all "
    "paths, including exception edges (leak-on-raise, double-release)",
    tier="flow",
    scope="exec/, service/, resilience/",
    noqa="line-level at the acquire site (comment the ownership transfer)",
)(None)
rule(
    "RPL102",
    "no blocking sinks (time.sleep, sync file I/O, queue.get, np.linalg) "
    "reachable from async def without to_thread / run_in_executor",
    tier="flow",
    scope="repo-wide (roots: every async def)",
    noqa="line-level at the first call edge in the async root, or at the sink",
)(None)
rule(
    "RPL103",
    "attributes written from both event-loop and worker-thread call paths "
    "must be guarded by one consistent lock",
    tier="flow",
    scope="exec/, service/, resilience/ classes",
    noqa="line-level at the flagged write site",
)(None)


# Driver -----------------------------------------------------------------------


@dataclass
class _NoqaDirective:
    """One real ``# noqa`` comment (found by tokenizing, so noqa text in
    strings and docstrings never counts)."""

    line: int
    codes: frozenset[str] | None  # None = bare "# noqa"
    file_level: bool  # comment-only line with explicit codes
    used: bool = False


def _scan_noqa(source: str) -> list[_NoqaDirective]:
    import io
    import tokenize

    directives: list[_NoqaDirective] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return directives
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(tok.string)
        if not match:
            continue
        codes_text = match.group("codes")
        codes = (
            None
            if codes_text is None
            else frozenset(c.strip().upper() for c in codes_text.split(",") if c.strip())
        )
        comment_only = tok.line.strip() == tok.string.strip()
        directives.append(
            _NoqaDirective(
                line=tok.start[0],
                codes=codes,
                file_level=comment_only and codes is not None,
            )
        )
    return directives


class _Suppressions:
    """Per-file noqa directives with usage accounting."""

    def __init__(self) -> None:
        self._by_file: dict[str, list[_NoqaDirective]] = {}

    def add_file(self, path: str, source: str) -> None:
        self._by_file[path] = _scan_noqa(source)

    def known_file(self, path: str) -> bool:
        return path in self._by_file

    def suppresses(self, path: str, line: int, rule_id: str) -> bool:
        """True if a directive covers (path, line, rule); marks it used."""
        hit = False
        for d in self._by_file.get(path, []):
            if d.file_level:
                if d.codes is not None and rule_id in d.codes:
                    d.used = True
                    hit = True
            elif d.line == line:
                if d.codes is None or rule_id in d.codes:
                    d.used = True
                    hit = True
        return hit

    def unused_findings(self, ran_rule_ids: set[str]) -> list[Finding]:
        """``noqa-unused`` findings for explicit codes of rules that ran
        but suppressed nothing.  Bare ``# noqa`` and codes of rules that
        did not run this invocation (e.g. flow codes during a
        classic-only run) are never reported."""
        out: list[Finding] = []
        for path in sorted(self._by_file):
            for d in self._by_file[path]:
                if d.used or d.codes is None:
                    continue
                stale = sorted(d.codes & ran_rule_ids)
                if not stale:
                    continue
                out.append(
                    Finding(
                        rule="noqa-unused",
                        severity="error",
                        message=(
                            f"# noqa: {', '.join(stale)} suppresses nothing; "
                            "remove the stale directive"
                        ),
                        where=f"{path}:{d.line}",
                        detail={"file": path, "line": d.line, "codes": stale},
                    )
                )
        return out


def _iter_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def _select_rules(select: Iterable[str] | None, tiers: tuple[str, ...]) -> list[Rule]:
    if select:
        unknown = [r for r in select if r not in RULES]
        if unknown:
            raise ValidationError(
                f"unknown lint rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES))}"
            )
        # An explicit selection overrides the tier filter: asking for
        # RPL102 by id means "run it", --flow or not.
        return [RULES[r] for r in select]
    return [r for r in RULES.values() if r.tier in tiers]


def run_lint(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    tiers: tuple[str, ...] = ("classic",),
    report_unused_noqa: bool = True,
) -> list[Finding]:
    """Run the registered rules over *paths* (files or directories).

    *tiers* picks which rule tiers execute: ``("classic",)`` is the
    per-file AST pass, ``("flow",)`` the whole-program dataflow pass
    (``--flow`` adds it in the CLI).  *select* further restricts to the
    given rule ids.  Files that fail to parse are reported as
    ``parse-error`` findings rather than raising.

    Suppression accounting runs last: any explicit noqa code belonging to
    a rule that executed but suppressed nothing becomes a ``noqa-unused``
    error (disable with *report_unused_noqa* for partial runs).
    """
    active = _select_rules(select, tiers)
    suppressions = _Suppressions()
    findings: list[Finding] = []

    parsed: list[tuple[str, ast.Module]] = []
    sources: list[tuple[str, str]] = []
    targets: list[LintTarget] = []
    for path in _iter_files(paths):
        source = path.read_text()
        key = str(path)
        suppressions.add_file(key, source)
        sources.append((key, source))
        try:
            tree = ast.parse(source, filename=key)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    severity="error",
                    message=str(exc),
                    where=f"{path}:{exc.lineno or 0}",
                )
            )
            continue
        parsed.append((key, tree))
        targets.append(LintTarget(path=path, tree=tree, lines=source.splitlines()))

    # Classic tier: per-file checkers.
    for target in targets:
        for rl in active:
            if rl.check is None:
                continue
            for lineno, message in rl.check(target):
                if suppressions.suppresses(str(target.path), lineno, rl.id):
                    continue
                findings.append(
                    Finding(
                        rule=rl.id,
                        severity="error",
                        message=message,
                        where=f"{target.path}:{lineno}",
                        detail={"line": lineno, "file": str(target.path)},
                    )
                )

    # Flow tier: whole-program checkers over everything parsed.
    active_ids = {r.id for r in active}
    if any(r.tier == "flow" for r in active):
        from repro.analysis.flow.blocking import check_blocking
        from repro.analysis.flow.callgraph import build_call_graph
        from repro.analysis.flow.lifecycle import check_lifecycle
        from repro.analysis.flow.locks import check_locks

        raw: list[Finding] = []
        if "RPL101" in active_ids:
            raw.extend(check_lifecycle(parsed))
        if "RPL102" in active_ids or "RPL103" in active_ids:
            graph = build_call_graph(sources)
            if "RPL102" in active_ids:
                raw.extend(check_blocking(graph))
            if "RPL103" in active_ids:
                raw.extend(check_locks(graph))
        for f in raw:
            anchors = [(f.detail.get("file", ""), f.detail.get("line", 0))]
            for extra in f.detail.get("also_suppress", []):
                epath, _, eline = extra.rpartition(":")
                if eline.isdigit():
                    anchors.append((epath, int(eline)))
            if any(suppressions.suppresses(p, ln, f.rule) for p, ln in anchors):
                continue
            findings.append(f)

    if report_unused_noqa:
        findings.extend(suppressions.unused_findings(active_ids))
    return findings


def lint_paths(
    paths: Iterable[str | Path], select: Iterable[str] | None = None
) -> list[Finding]:
    """Classic-tier lint over *paths* (the historical entry point)."""
    return run_lint(paths, select=select, tiers=("classic",))
