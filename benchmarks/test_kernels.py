"""Real-numerics micro-benchmarks of the kernel substrate.

These time the actual NumPy kernels (not the simulated clock) so the
relative costs the cost model encodes — BLAS-3 fast per flop, the 2-row
checksum ops cheap in absolute terms, POTF2 small — can be sanity-checked
on the host running the reproduction.
"""

import numpy as np
import pytest

from repro.blas import dense
from repro.blas.spd import random_spd
from repro.core.checksum import encode_strip
from repro.core.multierror import vandermonde_weights

B = 128


@pytest.fixture(scope="module")
def tile():
    return random_spd(B, rng=0)


@pytest.fixture(scope="module")
def panels():
    rng = np.random.default_rng(1)
    return rng.standard_normal((4 * B, B)), rng.standard_normal((4 * B, 4 * B))


def test_bench_gemm_update(benchmark, panels):
    panel, big = panels
    c = big[:, :B].copy()
    benchmark(dense.gemm_update, c, big, panel.T.copy())


def test_bench_syrk_update(benchmark, tile):
    c = tile.copy()
    a = np.random.default_rng(2).standard_normal((B, 4 * B))
    benchmark(dense.syrk_update, c, a)


def test_bench_potf2(benchmark, tile):
    benchmark.pedantic(
        lambda: dense.potf2(tile.copy()), rounds=10, iterations=1
    )


def test_bench_trsm(benchmark, tile):
    ell = np.linalg.cholesky(tile)
    b = np.random.default_rng(3).standard_normal((4 * B, B))
    benchmark(lambda: dense.trsm_right_lt(b.copy(), ell))


def test_bench_checksum_encode(benchmark, tile):
    strip = benchmark(encode_strip, tile)
    assert strip.shape == (2, B)


def test_bench_checksum_verify_clean(benchmark, tile):
    """Detection on a clean tile: one fused GEMV + compare."""
    strip = encode_strip(tile)
    w = vandermonde_weights(B, 2)

    def verify():
        fresh = w @ tile
        return np.abs(fresh - strip).max()

    assert benchmark(verify) < 1e-9


def test_bench_full_factorization_256(benchmark):
    from repro.magma.host import host_blocked_potrf

    a = random_spd(256, rng=4)
    benchmark.pedantic(
        lambda: host_blocked_potrf(a.copy(), 64), rounds=5, iterations=1
    )
