"""Roofline-style kernel cost model.

Every operation the drivers issue is priced as a ``KernelCost`` holding:

``duration``
    seconds the kernel takes when it runs alone on its engine, and
``util``
    the fraction of that engine's capacity it occupies while running
    (its GPS demand).  ``duration · util`` is the resource-seconds of real
    work, which is conserved under any co-scheduling — so concurrency can
    hide *under-utilization*, never erase work.  That single invariant is
    what makes Optimizations 1 and 2 behave like the paper's measurements.

Pricing rules:

- BLAS-3 GPU kernels (GEMM/SYRK/TRSM): compute-bound.  Solo rate is
  ``eff(kind) · peak`` and utilization equals ``eff(kind)`` — a kernel that
  reaches 58% of peak is, equivalently, using 58% of the device.
- Checksum-updating kernels (2×m strips): same shape of rule but with the
  much lower "thin kernel" efficiencies, which is why running them in the
  main stream (pre-Opt-2) is expensive and overlapping them nearly free.
- BLAS-2 checksum recalculation (GEMV): bandwidth-bound.  Solo it reaches
  ``gemv_bandwidth_fraction`` of memory bandwidth; utilization is that same
  fraction, leaving most of the device idle — headroom that Optimization 1
  reclaims by co-scheduling many of them.
- Host kernels (POTF2, optional checksum updating): compute-bound against
  the aggregate CPU peak.
- Transfers: latency + bytes/bandwidth on the link resource.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blas import flops as fl
from repro.hetero.spec import CpuSpec, GpuSpec, LinkSpec
from repro.util.exceptions import ValidationError
from repro.util.validation import check_positive

_DOUBLE = 8  # bytes per float64


@dataclass(frozen=True)
class KernelCost:
    """Solo duration and GPS utilization of one kernel occurrence."""

    duration: float
    util: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValidationError("negative duration")
        if not 0.0 < self.util <= 1.0:
            raise ValidationError(f"util {self.util} outside (0, 1]")


class CostModel:
    """Prices kernels, host calls and transfers for one machine."""

    def __init__(self, gpu: GpuSpec, cpu: CpuSpec, link: LinkSpec) -> None:
        self.gpu = gpu
        self.cpu = cpu
        self.link = link

    # -- GPU compute kernels -------------------------------------------------

    def gpu_blas3(
        self, kind: str, flop_count: int, inner_k: int | None = None
    ) -> KernelCost:
        """A compute-bound BLAS-3 kernel of *flop_count* flops.

        *inner_k* is the contraction dimension; efficiency ramps with it as
        ``eff · k/(k + k_half)`` — skinny updates (small k) run far below a
        square GEMM's rate, the classical GPU BLAS-3 ramp.
        """
        check_positive("flop_count", flop_count)
        eff = self.gpu.eff(kind)
        if inner_k is not None:
            check_positive("inner_k", inner_k)
            eff = eff * inner_k / (inner_k + self.gpu.gemm_k_half)
        duration = (
            self.gpu.kernel_launch_overhead_s
            + flop_count / (eff * self.gpu.peak_gflops * 1e9)
        )
        return KernelCost(duration=duration, util=eff)

    def gemm(self, m: int, n: int, k: int, kind: str = "gemm") -> KernelCost:
        return self.gpu_blas3(kind, fl.gemm_flops(m, n, k), inner_k=k)

    def syrk(self, n: int, k: int, kind: str = "syrk") -> KernelCost:
        return self.gpu_blas3(kind, fl.syrk_flops(n, k), inner_k=k)

    def trsm(self, m: int, n: int, kind: str = "trsm") -> KernelCost:
        # the triangular solve's contraction is the tile order n, already
        # reflected in the kind's calibrated efficiency
        return self.gpu_blas3(kind, fl.trsm_flops(m, n))

    def gemv_recalc(self, rows: int, cols: int, n_vectors: int = 2) -> KernelCost:
        """Checksum recalculation of one block: *n_vectors* fused GEMVs.

        Bandwidth-bound: the block is streamed from device memory once per
        fused kernel.  Solo it reaches only ``gemv_bandwidth_fraction`` of
        the bus, so its utilization is that fraction — the headroom that
        CUDA concurrent kernel execution (Optimization 1) exploits.
        """
        check_positive("rows", rows)
        check_positive("cols", cols)
        nbytes = rows * cols * _DOUBLE  # one streaming pass, vectors fused
        frac = self.gpu.gemv_bandwidth_fraction
        duration = (
            self.gpu.kernel_launch_overhead_s
            + nbytes / (frac * self.gpu.mem_bandwidth_gbs * 1e9)
        )
        return KernelCost(duration=duration, util=self.gpu.thin_kernel_util)

    #: Arithmetic intensity of the 2-row checksum-update GEMMs (flops/byte):
    #: a (2×k)·(k×B) product streams ≈ 8·k·B bytes for 4·k·B flops.
    _CHK_UPDATE_AI = 0.5
    #: Fraction of memory bandwidth those thin kernels reach running alone.
    _CHK_UPDATE_BW_FRACTION = 0.6

    def chk_update_gpu(self, flop_count: int, kind: str = "chk_update_gemm") -> KernelCost:
        """A checksum-updating kernel on the GPU.

        These are 2-row GEMM/TRSM strips — memory-bound, not compute-bound
        (arithmetic intensity ≈ 0.5 flop/byte), which is why leaving them in
        the main stream (the pre-Optimization-2 baseline) costs far more
        than their flop count suggests, and why a separate stream or the
        idle CPU hides them almost completely.
        """
        check_positive("flop_count", flop_count)
        nbytes = flop_count / self._CHK_UPDATE_AI
        rate = self._CHK_UPDATE_BW_FRACTION * self.gpu.mem_bandwidth_gbs * 1e9
        duration = self.gpu.kernel_launch_overhead_s + nbytes / rate
        return KernelCost(duration=duration, util=self.gpu.thin_kernel_util)

    # -- CPU (host) work -------------------------------------------------------

    def cpu_potf2(self, b: int) -> KernelCost:
        """Unblocked Cholesky of a B×B tile on the host (LAPACK dpotf2)."""
        rate = self.cpu.eff("potf2") * self.cpu.peak_gflops * 1e9
        return KernelCost(duration=fl.potf2_flops(b) / rate, util=1.0)

    def cpu_chk_update(self, flop_count: int) -> KernelCost:
        """Checksum updating executed on the (otherwise idle) host."""
        check_positive("flop_count", flop_count)
        rate = self.cpu.eff("chk_update") * self.cpu.peak_gflops * 1e9
        return KernelCost(duration=flop_count / rate, util=1.0)

    # -- transfers --------------------------------------------------------------

    def transfer(self, nbytes: int) -> KernelCost:
        """One CPU↔GPU copy of *nbytes* over the PCIe link."""
        if nbytes < 0:
            raise ValidationError("negative byte count")
        return KernelCost(duration=self.link.transfer_time(nbytes), util=1.0)

    # -- whole-run estimates (used by the Opt-2 placement model) -----------------

    def gpu_sustained_gflops(self, kind: str = "gemm") -> float:
        """Sustained GFLOPS for *kind* kernels running solo."""
        return self.gpu.eff(kind) * self.gpu.peak_gflops

    #: Coarse fault-tolerance overhead multipliers per scheme, used only for
    #: admission/packing estimates (the paper's Figures 14/15 ballpark).
    _SCHEME_OVERHEAD = {
        "none": 1.0,
        "offline": 1.10,
        "online": 1.20,
        "enhanced": 1.12,
        # the tile-DAG runtime fuses checksum updates like Enhanced; its
        # speedup comes from worker threads, which the scheduler accounts
        # for separately via per-job intra_workers capacity charging
        "dag": 1.12,
    }

    def potrf_seconds(self, n: int, block_size: int, scheme: str = "enhanced") -> float:
        """Predicted wall seconds for one protected factorization of order *n*.

        A scheduling estimate, not a simulation: useful flops at the GEMM
        sustained rate, a per-iteration launch/POTF2 round trip, and a flat
        per-scheme FT multiplier.  The service scheduler ranks workers with
        it; accuracy only matters in the relative ordering.
        """
        check_positive("n", n)
        check_positive("block_size", block_size)
        if scheme not in self._SCHEME_OVERHEAD:
            raise ValidationError(
                f"unknown scheme {scheme!r}; have {sorted(self._SCHEME_OVERHEAD)}"
            )
        compute = fl.potrf_flops(n) / (self.gpu_sustained_gflops("gemm") * 1e9)
        nb = max(1, -(-n // block_size))
        per_iter = self.cpu_potf2(min(block_size, n)).duration + 2 * self.link.transfer_time(
            min(block_size, n) ** 2 * _DOUBLE
        )
        return self._SCHEME_OVERHEAD[scheme] * (compute + nb * per_iter)

    def cpu_sustained_gflops(self, kind: str = "chk_update") -> float:
        return self.cpu.eff(kind) * self.cpu.peak_gflops
