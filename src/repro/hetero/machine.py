"""The Machine facade: a named heterogeneous node that spawns run contexts."""

from __future__ import annotations

from repro.hetero.context import ExecutionContext
from repro.hetero.spec import PRESETS, MachineSpec
from repro.util.validation import require


class Machine:
    """One heterogeneous node (CPU sockets + GPU + PCIe link).

    A machine is stateless between runs; every factorization gets a fresh
    :class:`ExecutionContext` via :meth:`context`, so restarted runs (the
    ABFT recovery path) naturally pay the full cost again.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec

    @classmethod
    def preset(cls, name: str) -> "Machine":
        """Construct one of the paper's testbeds: ``tardis``/``bulldozer64``."""
        require(name in PRESETS, f"unknown machine preset {name!r}; have {sorted(PRESETS)}")
        return cls(PRESETS[name])

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def default_block_size(self) -> int:
        """MAGMA's block size choice for this GPU generation."""
        return self.spec.default_block_size

    def context(self, numerics: str = "real", timeline: bool = True) -> ExecutionContext:
        """A fresh execution context for one factorization run.

        ``timeline=False`` records and replays nothing (see
        :class:`ExecutionContext`).
        """
        return ExecutionContext(self.spec, numerics=numerics, timeline=timeline)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.spec.name!r}: {self.spec.gpu.name} + {self.spec.cpu.name})"
