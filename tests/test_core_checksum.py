"""Unit tests for weights and checksum encoding."""

import numpy as np
import pytest

from repro.blas.blocked import BlockedMatrix
from repro.blas.spd import random_spd
from repro.core.checksum import encode_blocked_host, encode_strip, issue_encoding
from repro.core.multierror import vandermonde_weights


class TestWeights:
    def test_shape_and_values(self):
        w = vandermonde_weights(4, 2)
        np.testing.assert_array_equal(w[0], [1, 1, 1, 1])
        np.testing.assert_array_equal(w[1], [1, 2, 3, 4])

    def test_read_only(self):
        w = vandermonde_weights(8, 2)
        with pytest.raises(ValueError):
            w[0, 0] = 2.0

    def test_cached(self):
        assert vandermonde_weights(16, 2) is vandermonde_weights(16, 2)

    def test_locator(self):
        np.testing.assert_array_equal(vandermonde_weights(3, 2)[1], [1, 2, 3])


class TestEncodeStrip:
    def test_column_sums(self):
        tile = np.arange(16, dtype=np.float64).reshape(4, 4)
        strip = encode_strip(tile)
        np.testing.assert_allclose(strip[0], tile.sum(axis=0))

    def test_weighted_sums(self):
        tile = np.eye(3)
        strip = encode_strip(tile)
        np.testing.assert_allclose(strip[1], [1.0, 2.0, 3.0])

    def test_shape(self):
        assert encode_strip(np.zeros((8, 8))).shape == (2, 8)


class TestEncodeBlockedHost:
    def test_strips_match_per_tile_encoding(self):
        a = random_spd(32, rng=0)
        m = BlockedMatrix(a, 8)
        chk = encode_blocked_host(m)
        for i in range(4):
            for j in range(i + 1):
                np.testing.assert_allclose(
                    chk[2 * i : 2 * i + 2, 8 * j : 8 * j + 8],
                    encode_strip(m.block(i, j)),
                )

    def test_lower_only_leaves_upper_zero(self):
        a = random_spd(16, rng=1)
        chk = encode_blocked_host(BlockedMatrix(a, 4), lower_only=True)
        assert not chk[0:2, 4:].any()  # block row 0, columns 1..3

    def test_full_encoding(self):
        a = random_spd(16, rng=2)
        chk = encode_blocked_host(BlockedMatrix(a, 4), lower_only=False)
        assert chk[0:2, 12:16].any()


class TestIssueEncoding:
    def test_real_mode_writes_strips(self, tardis):
        ctx = tardis.context(numerics="real")
        a = random_spd(32, rng=3)
        matrix = ctx.alloc_matrix(32, 8, data=a)
        chk = ctx.alloc_checksums(32, 8)
        streams = [ctx.stream(f"s{i}") for i in range(4)]
        done = issue_encoding(ctx, matrix, chk, streams)
        expected = encode_blocked_host(BlockedMatrix(a, 8))
        np.testing.assert_allclose(chk.array, expected)
        assert done.kind == "barrier"

    def test_tasks_distributed_across_streams(self, tardis):
        ctx = tardis.context(numerics="shadow")
        matrix = ctx.alloc_matrix(2048, 256)
        chk = ctx.alloc_checksums(2048, 256)
        streams = [ctx.stream(f"s{i}") for i in range(4)]
        issue_encoding(ctx, matrix, chk, streams)
        encode_tasks = [t for t in ctx.graph if t.kind == "encode"]
        assert len(encode_tasks) == 4  # one coalesced task per stream
        assert sum(t.meta["tiles"] for t in encode_tasks) == 8 * 9 // 2

    def test_flop_cost_matches_paper(self, tardis):
        """Encoding ≈ 2n² flops → duration ≈ bytes-bound equivalent; here we
        check the tile count times per-tile cost is what's priced."""
        ctx = tardis.context(numerics="shadow")
        n, b = 1024, 256
        matrix = ctx.alloc_matrix(n, b)
        chk = ctx.alloc_checksums(n, b)
        issue_encoding(ctx, matrix, chk, [ctx.stream("s0")])
        (task,) = [t for t in ctx.graph if t.kind == "encode"]
        per_tile = ctx.cost.gemv_recalc(b, b).duration
        assert task.duration == pytest.approx(per_tile * 10)
