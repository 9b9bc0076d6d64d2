"""CUDA-like streams and events.

A :class:`Stream` is an in-order queue: each task launched into it depends
on the previous one.  A :class:`GpuEvent` is a zero-cost marker recorded
into a stream; other streams (or the host) wait on it to build cross-stream
dependencies — exactly the CUDA ``cudaEventRecord`` /
``cudaStreamWaitEvent`` pattern the paper's implementation uses for its
concurrent checksum kernels and the CPU/GPU handoff around POTF2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.desim.task import Task


@dataclass
class Stream:
    """An in-order launch queue (GPU stream or the host 'stream')."""

    name: str
    last: Task | None = field(default=None, repr=False)

    def chain(self, task: Task) -> Task:
        """Make *task* the stream's new tail (ordered after the old tail)."""
        task.after(self.last)
        self.last = task
        return task


@dataclass(frozen=True)
class GpuEvent:
    """A recorded point in a stream that others can wait on."""

    marker: Task
