"""Pluggable execution backends for the solve service.

``inline`` (debug/baseline), ``thread`` (GIL-bound ``asyncio.to_thread``
pool — the historical behaviour) and ``process`` (persistent multicore
worker pool with batched dispatch and zero-copy shared-memory matrix
transport).  See :mod:`repro.exec.base` for the protocol and its
determinism contract.
"""

from repro.exec.base import BACKENDS, AttemptRequest, Executor, make_executor
from repro.exec.inline import InlineExecutor
from repro.exec.process import ProcessExecutor
from repro.exec.thread import ThreadExecutor

__all__ = [
    "BACKENDS",
    "AttemptRequest",
    "Executor",
    "InlineExecutor",
    "ProcessExecutor",
    "ThreadExecutor",
    "make_executor",
]
