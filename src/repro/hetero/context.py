"""The execution context: what drivers program against.

An :class:`ExecutionContext` plays the role of the CUDA runtime plus host
thread for one factorization run.  It

- allocates device buffers (with capacity accounting against the GPU spec),
- creates streams and events,
- records every kernel / transfer / host call as a task in a
  :class:`repro.desim.TaskGraph`, pricing it through the machine's
  :class:`~repro.hetero.costmodel.CostModel`,
- eagerly executes the real NumPy numerics in real mode (shadow mode skips
  the math — tasks and taint only), and
- finally replays the graph through the discrete-event engine to produce
  the simulated wall-clock timeline.

The time plane is per context: one made with ``timeline=False`` records
nothing and replays nothing.  Its launches, events and barriers all hand
back one shared task that takes no edges, so the drivers run unchanged and
only this module knows whether a graph exists.

Numerics run eagerly in program order on the single Python thread, so the
computed values are independent of the simulated schedule — legitimate
because the recorded dependencies are exactly the ones that make the real
asynchronous execution produce those same values.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.blas.blocked import BlockedMatrix
from repro.desim.engine import Engine, SimulationResult
from repro.desim.resource import Resource
from repro.desim.task import Task, TaskGraph
from repro.desim.trace import META_STREAM
from repro.hetero.costmodel import CostModel, KernelCost
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.hetero.spec import MachineSpec
from repro.hetero.stream import GpuEvent, Stream
from repro.util.exceptions import DeviceMemoryError
from repro.util.validation import require

_DOUBLE = 8


class _Edgeless(Task):
    """A task that takes no edges."""

    __slots__ = ()

    def after(self, *tasks: Task | None) -> Task:
        return self


class _NoGraph(TaskGraph):
    """An untimed context's graph: every task asked of it (``new`` and
    ``barrier`` come through :meth:`record`) is one shared :class:`_Edgeless`
    task, which never changes, so one instance serves every context and thread."""

    task = _Edgeless("untimed", kind="event")

    def record(self, *args: Any) -> Task:
        return self.task


_NO_GRAPH = _NoGraph()


class ExecutionContext:
    """One factorization run's worth of simulated-machine state.

    *timeline* chooses, once, between recording the run as a task graph
    (:attr:`graph`) and recording nothing (``graph`` is ``None`` and
    :meth:`simulate` returns ``None``).  Numerics, taint and memory
    accounting are the same either way.
    """

    def __init__(self, spec: MachineSpec, numerics: str = "real", timeline: bool = True) -> None:
        require(numerics in ("real", "shadow"), f"bad numerics mode {numerics!r}")
        self.spec = spec
        self.real = numerics == "real"
        self.cost = CostModel(spec.gpu, spec.cpu, spec.link)
        self.graph: TaskGraph | None = TaskGraph() if timeline else None
        self._tasks = self.graph if self.graph is not None else _NO_GRAPH  # where launches record
        gpu = spec.gpu
        self.gpu_res = Resource(
            name="gpu",
            capacity=gpu.concurrency_ceiling,
            max_concurrent=gpu.max_concurrent_kernels,
        )
        self.cpu_res = Resource(name="cpu", capacity=1.0)
        self.h2d_res = Resource(name="h2d", capacity=1.0)
        self.d2h_res = Resource(name="d2h", capacity=1.0)
        self._streams: dict[str, Stream] = {}
        self._host = Stream(name="host")
        self._mem_used = 0
        self._mem_capacity = int(gpu.memory_gb * 1e9)

    # ------------------------------------------------------------------ streams

    def stream(self, name: str) -> Stream:
        """Get-or-create the named GPU stream."""
        if name not in self._streams:
            self._streams[name] = Stream(name=name)
        return self._streams[name]

    @property
    def host(self) -> Stream:
        """The host 'stream': CPU calls issued by the driver thread."""
        return self._host

    def record_event(self, stream: Stream) -> GpuEvent:
        """cudaEventRecord: a marker completing with the stream's tail."""
        marker = self._tasks.new(f"event@{stream.name}", kind="event")
        if stream.last is not None:
            marker.after(stream.last)
        return GpuEvent(marker=marker)

    def wait_event(self, stream: Stream, event: GpuEvent) -> None:
        """cudaStreamWaitEvent: later work in *stream* waits for *event*."""
        self.stream_wait(stream, event.marker, f"wait@{stream.name}")

    def stream_wait(self, stream: Stream, task: Task, name: str) -> None:
        """Later work in *stream* waits for *task* too (an event node *name*)."""
        wait = self._tasks.new(name, kind="event")
        wait.after(stream.last, task)
        stream.last = wait

    def barrier(self, name: str, deps: list[Task], **meta: Any) -> Task:
        """A zero-cost node that completes when all *deps* have."""
        return self._tasks.barrier(name, deps, **meta)

    def sync_streams(self, *streams: Stream, name: str = "deviceSync") -> Task:
        """cudaDeviceSynchronize over *streams* (all by default).

        Returns the barrier task; subsequent host work should depend on it,
        which :meth:`launch_cpu` does automatically via the host stream.
        """
        targets = list(streams) if streams else list(self._streams.values())
        deps = [s.last for s in targets if s.last is not None]
        if self._host.last is not None:
            deps.append(self._host.last)
        barrier = self._tasks.barrier(name, deps)
        for s in targets:
            s.last = barrier
        self._host.last = barrier
        return barrier

    # ------------------------------------------------------------------ memory

    def _claim(self, nbytes: int, what: str) -> None:
        if self._mem_used + nbytes > self._mem_capacity:
            raise DeviceMemoryError(
                f"allocating {what} ({nbytes / 1e9:.2f} GB) exceeds "
                f"{self.spec.gpu.name} capacity "
                f"({self._mem_capacity / 1e9:.2f} GB, "
                f"{self._mem_used / 1e9:.2f} GB in use)"
            )
        self._mem_used += nbytes

    @property
    def device_bytes_used(self) -> int:
        return self._mem_used

    def alloc_matrix(
        self,
        n: int,
        block_size: int,
        data: np.ndarray | None = None,
        name: str = "A",
    ) -> DeviceMatrix:
        """Allocate the n×n input matrix on the device.

        In real mode *data* is required and is wrapped without copying
        (the factorization overwrites it, as MAGMA's in-place dpotrf does).
        """
        if self.real:
            require(data is not None, "real mode needs the actual matrix data")
            blocked = BlockedMatrix(data, block_size)
        else:
            require(data is None, "shadow mode takes no matrix data")
            blocked = None
        matrix = DeviceMatrix(name, n, block_size, blocked)
        self._claim(matrix.nbytes, f"matrix {name!r}")
        return matrix

    def alloc_checksums(
        self,
        n: int,
        block_size: int,
        name: str = "chk",
        rows_per_tile: int = 2,
    ) -> DeviceChecksums:
        """Allocate the (r·nb)×n checksum matrix on the device."""
        chk = DeviceChecksums.zeros(
            name, n, block_size, real=self.real, rows_per_tile=rows_per_tile
        )
        self._claim(chk.nbytes, f"checksums {name!r}")
        return chk

    # ------------------------------------------------------------------ launches

    def launch_gpu(
        self,
        name: str,
        kind: str,
        cost: KernelCost,
        stream: Stream,
        fn: Callable[[], None] | None = None,
        deps: list[Task] | None = None,
        **meta: Any,
    ) -> Task:
        """Issue one GPU kernel into *stream*; run its numerics if real."""
        meta.setdefault(META_STREAM, stream.name)
        task = self._tasks.record(
            name, self.gpu_res, cost.duration, cost.util, kind, deps, meta
        )
        stream.chain(task)
        if self.real and fn is not None:
            fn()
        return task

    def launch_cpu(
        self,
        name: str,
        kind: str,
        cost: KernelCost,
        fn: Callable[[], None] | None = None,
        deps: list[Task] | None = None,
        **meta: Any,
    ) -> Task:
        """Issue one host call (ordered after earlier host work)."""
        meta.setdefault(META_STREAM, self._host.name)
        task = self._tasks.record(
            name, self.cpu_res, cost.duration, cost.util, kind, deps, meta
        )
        self._host.chain(task)
        if self.real and fn is not None:
            fn()
        return task

    def transfer_d2h(
        self,
        nbytes: int,
        name: str = "d2h",
        deps: list[Task] | None = None,
        stream: Stream | None = None,
        **meta: Any,
    ) -> Task:
        """Device→host copy; chained into *stream* if given (async copy)."""
        cost = self.cost.transfer(nbytes)
        meta = {"bytes": nbytes, **meta}
        if stream is not None:
            meta.setdefault(META_STREAM, stream.name)
        task = self._tasks.record(
            name, self.d2h_res, cost.duration, cost.util, "d2h", deps, meta
        )
        if stream is not None:
            stream.chain(task)
        return task

    def transfer_h2d(
        self,
        nbytes: int,
        name: str = "h2d",
        deps: list[Task] | None = None,
        stream: Stream | None = None,
        **meta: Any,
    ) -> Task:
        """Host→device copy; chained into *stream* if given."""
        cost = self.cost.transfer(nbytes)
        meta = {"bytes": nbytes, **meta}
        if stream is not None:
            meta.setdefault(META_STREAM, stream.name)
        task = self._tasks.record(
            name, self.h2d_res, cost.duration, cost.util, "h2d", deps, meta
        )
        if stream is not None:
            stream.chain(task)
        return task

    # ------------------------------------------------------------------ replay

    def simulate(self) -> SimulationResult | None:
        """Run the recorded task graph through the discrete-event engine.

        ``None`` for a context made with ``timeline=False``: it recorded
        nothing to replay.
        """
        if self.graph is None:
            return None
        return Engine().run(self.graph)

    def tile_bytes(self, block_size: int) -> int:
        """Bytes of one B×B float64 tile (transfer sizing helper)."""
        return block_size * block_size * _DOUBLE
