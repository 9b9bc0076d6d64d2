"""Per-layer spans for the traced benchmark run, recorded from outside the library.

The tracer replaces a layer's public functions with timing wrappers at every
name a caller looks them up by (module globals and module-level tables that
hold the same function object, or the class attribute for methods), and puts
the originals back on ``uninstall``.  :meth:`Tracer.strays` lists any other
live reference to an original, a caller the wrappers would miss.  Nothing
under ``src/`` knows about it; the untraced run never installs it, and
:func:`assert_unpatched` proves that.

Each span records name, group (``layer.part``), start, end, parent, op id and
thread.  Parents come from a thread-local stack; a span opened on a thread
with an empty stack (a DAG worker thread, an ``asyncio.to_thread`` helper)
hangs under the innermost open span of its op's root stack, so spans nest
across threads.  Self time is computed per op by :func:`self_times` when the
caller settles finished ops, outside the timed region; only the spans of the
ops in ``keep`` are retained after that, for the JSON and Chrome-trace dump.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_MARK = "__bench_wrapped__"


def _blas_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Flops of one ``repro.blas.dense`` call, from its operand shapes."""
    if name == "gemm_update":  # c -= a @ b.T, c m×n, a m×k
        (m, n), k = args[0].shape, args[1].shape[1]
        return 2.0 * m * n * k
    if name == "syrk_update":  # full-square c -= a @ a.T, a n×k
        n, k = args[1].shape
        return 2.0 * n * n * k
    if name == "potf2":
        n = args[0].shape[0]
        return n**3 / 3.0
    if name == "trsm_right_lt":  # b m×n against n×n ell
        m, n = args[0].shape
        return float(m * n * n)
    if name == "gemv":  # v @ a, a m×n
        m, n = args[1].shape
        return 2.0 * m * n
    return 0.0


def _job_of_key(args: tuple, kwargs: dict) -> int:
    """Op id of ``JobJournal.record(self, event, key, ...)`` (key = "seed:job")."""
    key = args[2] if len(args) > 2 else kwargs["key"]
    return int(str(key).rsplit(":", 1)[1])


def _job_of_first_arg(args: tuple, kwargs: dict) -> int:
    return int(args[0].job_id)


def _first_request(args: tuple, kwargs: dict) -> int:
    return int(args[1][0].job.job_id)


def _banked(args: tuple, kwargs: dict) -> float:
    """Share of the factorization's flops a resumed salvage already holds."""
    from repro.recovery.decision import completed_fraction

    job, salvage = args[0], args[2]
    return completed_fraction(salvage.resume_iteration, salvage.nb, job.block_size)


#: (home module, qualified name, group, op-id extractor, extra-value extractor,
#: bindings).  ``bindings=None`` patches every loaded ``repro`` module global
#: bound to the same function object; a tuple restricts it to those modules.
TARGETS: tuple = (
    *(
        ("repro.blas.dense", fn, "blas", None, functools.partial(_blas_flops, fn), None)
        for fn in ("syrk_update", "gemm_update", "potf2", "trsm_right_lt", "gemv")
    ),
    *(
        ("repro.magma.ops", fn, "magma", None, None, None)
        for fn in ("syrk_op", "gemm_op", "potf2_op", "trsm_op")
    ),
    ("repro.core.checksum", "issue_encoding", "core.encode", None, None, None),
    ("repro.runtime.cholesky", "encode_strips", "core.encode", None, None, None),
    *(
        ("repro.core.update", f"ChecksumUpdater.{fn}", "core.update", None, None, None)
        for fn in (
            "begin_iteration",
            "update_syrk",
            "update_gemm",
            "update_potf2",
            "update_trsm",
        )
    ),
    ("repro.core.correct", "Verifier.verify_batch", "core.verify", None, None, None),
    ("repro.core.correct", "Verifier.check_real", "core.verify", None, None, None),
    ("repro.core.correct", "check_tile_strip", "core.verify", None, None, None),
    *(
        ("repro.hetero.context", f"ExecutionContext.{fn}", "hetero.launch", None, None, None)
        for fn in ("launch_gpu", "launch_cpu", "transfer_d2h", "transfer_h2d")
    ),
    ("repro.hetero.context", "ExecutionContext.simulate", "desim.simulate", None, None, None),
    # The scheme drivers' own code: input copies, task wiring, the restart loop.
    ("repro.core.base", "run_with_recovery", "core.driver", None, None, None),
    ("repro.runtime.scheme", "dag_potrf", "runtime.driver", None, None, None),
    ("repro.runtime.cholesky", "build_cholesky_graph", "runtime.graph_build", None, None, None),
    ("repro.runtime.executor", "DagExecutor.run", "runtime.execute", None, None, None),
    (
        "repro.exec.process",
        "ProcessExecutor.run_batch_sync",
        "exec.roundtrip",
        _first_request,
        None,
        None,
    ),
    # Only the dispatch path's binding: the resume path regenerates the
    # input too, and that belongs to recovery, not to the executor.
    ("repro.service.policy", "job_matrix", "exec.parent_input", _job_of_first_arg, None, ("repro.exec.process",)),
    ("repro.recovery.snapshot", "read_snapshot", "recovery.salvage", None, None, None),
    ("repro.recovery.salvage", "repair_salvage", "recovery.repair", None, None, None),
    ("repro.recovery.decision", "choose_recovery", "recovery.decide", _job_of_first_arg, None, None),
    ("repro.recovery.resume", "execute_resume", "recovery.resume", _job_of_first_arg, _banked, None),
    ("repro.resilience.journal", "JobJournal.record", "resilience.journal", _job_of_key, None, None),
)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _slots(mod):
    """``(owner, key, value)`` of each module global and each entry of a
    module-level dict (a dispatch table such as a scheme registry)."""
    for key, value in list(vars(mod).items()):
        yield mod, key, value
        if isinstance(value, dict):
            for item, entry in list(value.items()):
                yield value, item, entry


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _repro_modules() -> list[str]:
    return [m for m in list(sys.modules) if m.split(".")[0] == "repro"]


def _bindings(module: str, qualname: str, original, only: tuple | None):
    """Every (owner, key) a caller resolves *original* through."""
    owner, attr, _ = _resolve(module, qualname)
    if "." in qualname:
        return [(owner, attr)]
    found = []
    for name in only if only is not None else _repro_modules():
        mod = sys.modules.get(name) or importlib.import_module(name)
        found += [(holder, key) for holder, key, value in _slots(mod) if value is original]
    return found


def assert_unpatched() -> None:
    """Raise unless every traced binding is the library's own function."""
    wrapped = [f"{m}.{q}" for m, q, *_ in TARGETS if hasattr(_resolve(m, q)[2], _MARK)]
    wrapped += [
        f"{name}: {key}"
        for name in _repro_modules()
        for _, key, value in _slots(sys.modules[name])
        if hasattr(value, _MARK)
    ]
    if wrapped:
        raise AssertionError(f"still wrapped: {', '.join(wrapped)}")


class Span:
    __slots__ = ("name", "group", "op", "start", "end", "parent", "thread")

    def __init__(self, name: str, group: str, op: int | None, parent: "Span | None") -> None:
        self.name = name
        self.group = group
        self.op = op
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's share of the op's wall clock.

    At every instant the open spans that have no open child are the ones
    doing the work, and the instant is split evenly among them.  On one
    thread that is the classic duration-minus-children self time; when a
    DAG's worker threads are inside spans at once, splitting keeps the
    layers' self times summing to the op's wall time instead of to its
    thread time.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent)) for s in spans]
    events = sorted(
        [(s.start, 1, i) for i, s in enumerate(spans)] + [(s.end, 0, i) for i, s in enumerate(spans)]
    )
    open_kids = [0] * len(spans)
    active = [False] * len(spans)
    leaves: set[int] = set()
    got = [0.0] * len(spans)
    last = events[0][0] if events else 0.0
    for t, opening, i in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for j in leaves:
                got[j] += share
        last = t
        p = parent[i]
        if opening:
            active[i] = True
            if not open_kids[i]:
                leaves.add(i)
            if p is not None:
                open_kids[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p is not None:
                open_kids[p] -= 1
                if not open_kids[p] and active[p]:
                    leaves.add(p)
    return got


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, keep: range = range(0)) -> None:
        self.keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()  # DAG worker threads add spans concurrently
        self._roots: dict[int, list[Span]] = {}
        self._spans: dict[int, list[Span]] = {}
        self._done: list[int] = []
        self.current_op: int | None = None
        #: group -> [spans, total duration, total self time, extra value sum]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.kept: list[dict] = []
        self.orphans = 0
        self.root_s = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self._t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, group: str, op: int | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = parent.op
        else:
            op = self.current_op if op is None else op
            anchor = self._roots.get(op)
            parent = anchor[-1] if anchor else None
        span = Span(name, group, op, parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self._record(span)

    def _record(self, span: Span) -> None:
        spans = self._spans.get(span.op)
        if spans is None:
            with self._lock:
                self.orphans += 1
        else:
            spans.append(span)  # list.append is atomic; no lock on the hot path

    def _begin(self, op: int, roots: list[Span]) -> None:
        self._roots[op] = roots
        self._spans[op] = []

    def _end(self, root: Span) -> None:
        del self._roots[root.op]
        self._record(root)
        self.root_s += root.end - root.start
        self._done.append(root.op)

    @contextmanager
    def op(self, op: int, group: str = "op"):
        """Root span of one in-process op (the calling thread owns it)."""
        self.current_op = op
        self._begin(op, self._stack())
        span = self.open(f"op[{op}]", group, op)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack().pop()
            self._end(span)
            self.current_op = None

    def open_root(self, op: int, group: str = "op") -> Span:
        """Root span of one asynchronous op (submit → terminal result)."""
        span = Span(f"job[{op}]", group, op, None)
        self._begin(op, [span])
        return span

    def close_root(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._end(span)

    def settle(self) -> None:
        """Fold finished ops into the per-group totals (call off the clock)."""
        while self._done:
            op = self._done.pop()
            spans = self._spans.pop(op)
            for span, self_s in zip(spans, self_times(spans)):
                total = self.totals[span.group]
                total[0] += 1
                total[1] += span.end - span.start
                total[2] += self_s
                if op in self.keep:
                    self.kept.append(
                        {
                            "name": span.name,
                            "group": span.group,
                            "op": op,
                            "start_s": span.start - self._t0,
                            "end_s": span.end - self._t0,
                            "self_s": self_s,
                            "thread": span.thread,
                            "parent": None if span.parent is None else span.parent.name,
                        }
                    )

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, group: str, op_of, extra_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None and not tracer._stack() else None
            span = tracer.open(name, group, op)
            if extra_of is not None:
                value = extra_of(args, kwargs)
                with tracer._lock:
                    tracer.totals[group][3] += value
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        for module, qualname, group, op_of, extra_of, only in TARGETS:
            _, _, original = _resolve(module, qualname)
            wrapper = self._wrap(original, qualname, group, op_of, extra_of)
            self._wrappers.append(wrapper)
            for owner, key in _bindings(module, qualname, original, only):
                self._patched.append((owner, key, original))
                _set(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            _set(*self._patched.pop())
        self._wrappers.clear()

    # -- views -------------------------------------------------------------

    def count(self, group: str) -> int:
        return int(self.totals[group][0]) if group in self.totals else 0

    def duration(self, group: str) -> float:
        return self.totals[group][1] if group in self.totals else 0.0

    def self_time(self, *groups: str) -> float:
        return sum(self.totals[g][2] for g in groups if g in self.totals)

    def extra(self, group: str) -> float:
        return self.totals[group][3] if group in self.totals else 0.0

    def coverage(self) -> float:
        """Summed self time of the library's layers over summed op wall.

        The op root's own self time (``op.self_s_per_op``) is left out: it
        is the time no wrapped layer accounts for, such as the event loop
        and queue between a job's submit and its dispatch.
        """
        attributed = sum(t[2] for group, t in self.totals.items() if group != "op")
        return attributed / self.root_s if self.root_s else 0.0

    def strays(self) -> list[str]:
        """Live references to a wrapped library function that bypass its wrapper.

        Call while installed.  A caller holding the original elsewhere (a
        dispatch table, a bound method, a name imported into a module
        outside ``repro``) calls it unwrapped, and its time would land in
        the caller's layer unseen.  Targets restricted to named bindings
        are partial on purpose and are not checked.
        """
        restricted = {_resolve(m, q)[2] for m, q, *_, only in TARGETS if only is not None}
        ours = {id(entry) for entry in self._patched} | {id(vars(w)) for w in self._wrappers}
        ours |= {id(cell) for w in self._wrappers for cell in w.__closure__ or ()}
        modules = {id(vars(mod)): name for name, mod in list(sys.modules.items()) if mod is not None}
        checked = {original for _, _, original in self._patched} - restricted
        ours.add(id(checked))
        found: set[str] = set()
        for original in checked:
            for ref in gc.get_referrers(original):
                if id(ref) in ours or isinstance(ref, types.FrameType):
                    continue
                holder = f"module {modules[id(ref)]}" if id(ref) in modules else f"a {type(ref).__name__}"
                found.add(f"{original.__module__}.{original.__qualname__} held by {holder}")
        return sorted(found)

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON and as a Chrome trace beside it."""
        threads = {tid: i for i, tid in enumerate(sorted({s["thread"] for s in self.kept}))}
        path.write_text(
            json.dumps(
                {
                    "spans": self.kept,
                    "totals": {g: dict(zip(("spans", "dur_s", "self_s", "extra"), t)) for g, t in self.totals.items()},
                    "orphans": self.orphans,
                },
                indent=1,
            )
        )
        events = [
            {
                "name": s["name"],
                "cat": s["group"],
                "ph": "X",
                "ts": s["start_s"] * 1e6,
                "dur": (s["end_s"] - s["start_s"]) * 1e6,
                "pid": 1,
                "tid": threads[s["thread"]],
                "args": {"op": s["op"], "self_us": s["self_s"] * 1e6},
            }
            for s in self.kept
        ]
        path.with_suffix(".chrometrace.json").write_text(json.dumps({"traceEvents": events}))
