"""Property-based tests (hypothesis) for the core invariants.

Covered properties:

- checksum algebra: encoding commutes with every update rule;
- detection/correction: any single significant error at any coordinate is
  located exactly and repaired;
- bit flips are involutive and single-site;
- taint correctability matches a brute-force per-column count;
- the DES engine never violates dependencies, never exceeds capacity in
  aggregate, and is work-conserving for saturating workloads.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import dense
from repro.blas.spd import random_spd
from repro.core.checksum import encode_strip
from repro.core.multierror import vandermonde_weights
from repro.desim.engine import Engine
from repro.desim.resource import Resource
from repro.desim.task import TaskGraph
from repro.faults.bitflip import flip_bit
from repro.faults.taint import TaintState

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

block_sizes = st.sampled_from([2, 3, 4, 8, 16])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def tile_for(b: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((b, b))


# ---------------------------------------------------------------------------
# checksum algebra
# ---------------------------------------------------------------------------


class TestChecksumAlgebra:
    @given(b=block_sizes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_encode_linear(self, b, seed):
        """encode(αX + Y) == α·encode(X) + encode(Y)."""
        x, y = tile_for(b, seed), tile_for(b, seed + 1)
        lhs = encode_strip(2.5 * x + y)
        rhs = 2.5 * encode_strip(x) + encode_strip(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    @given(b=block_sizes, k_blocks=st.integers(1, 3), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_gemm_update_rule(self, b, k_blocks, seed):
        """chk(C − A·Bᵀ) == chk(C) − chk(A)·Bᵀ — the SYRK/GEMM rule."""
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((b, b))
        a = rng.standard_normal((b, k_blocks * b))
        bb = rng.standard_normal((b, k_blocks * b))
        updated = encode_strip(c) - encode_strip_any(a) @ bb.T
        dense.gemm_update(c, a, bb)
        np.testing.assert_allclose(encode_strip(c), updated, rtol=1e-9, atol=1e-9)

    @given(b=block_sizes, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_potf2_update_rule(self, b, seed):
        """chk(A')·L^{-T} == chk(L) for A' = L·Lᵀ — Algorithm 2."""
        a = random_spd(b, rng=seed)
        strip = encode_strip(a)
        dense.potf2(a)  # a now holds L
        dense.trsm_right_lt(strip, a)
        np.testing.assert_allclose(strip, encode_strip(a), rtol=1e-8, atol=1e-8)

    @given(b=block_sizes, rows=st.integers(1, 3), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_trsm_update_rule(self, b, rows, seed):
        """chk(B·L^{-T}) == chk(B)·L^{-T}."""
        rng = np.random.default_rng(seed)
        ell = np.linalg.cholesky(random_spd(b, rng=seed + 1))
        panel = rng.standard_normal((rows * b, b))
        strip = vandermonde_weights(rows * b, 2) @ panel  # use a tall encode
        dense.trsm_right_lt(panel, ell)
        dense.trsm_right_lt(strip, ell)
        np.testing.assert_allclose(
            strip, vandermonde_weights(rows * b, 2) @ panel, rtol=1e-8, atol=1e-8
        )


def encode_strip_any(a: np.ndarray) -> np.ndarray:
    """Encode a non-square panel (weights sized to its row count)."""
    return vandermonde_weights(a.shape[0], 2) @ a


# ---------------------------------------------------------------------------
# detection & correction
# ---------------------------------------------------------------------------


class TestDetectionProperties:
    @given(
        b=st.sampled_from([4, 8, 16]),
        row=st.integers(0, 15),
        col=st.integers(0, 15),
        delta=st.floats(0.5, 1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_single_error_always_located(self, b, row, col, delta, sign, seed):
        """For any coordinate and any significant magnitude, δ₂/δ₁ names the
        row exactly and subtracting δ₁ restores the element."""
        row, col = row % b, col % b
        tile = tile_for(b, seed)
        strip = encode_strip(tile)
        pristine = tile.copy()
        tile[row, col] += sign * delta

        fresh = encode_strip(tile)
        d1 = fresh[0] - strip[0]
        d2 = fresh[1] - strip[1]
        # column col flagged, all others clean (to tolerance)
        tol = 1e-6 * max(1.0, float(np.abs(tile).max())) * b
        assert abs(d1[col]) > 0
        located = round(d2[col] / d1[col])
        assert located == row + 1
        tile[row, col] -= d1[col]
        np.testing.assert_allclose(tile, pristine, rtol=1e-6, atol=tol)


class TestBitflipProperties:
    @given(
        bit=st.integers(0, 63),
        value=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_involution(self, bit, value):
        a = np.array([value])
        flip_bit(a, (0,), bit)
        flip_bit(a, (0,), bit)
        assert a[0] == value or (np.isnan(a[0]) and np.isnan(value))

    @given(bit=st.integers(0, 63), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_site_changes(self, bit, seed):
        a = tile_for(4, seed)
        before = a.copy()
        flip_bit(a, (1, 2), bit)
        diff = a != before
        assert diff.sum() == 1 and diff[1, 2]


# ---------------------------------------------------------------------------
# taint correctability == brute force
# ---------------------------------------------------------------------------


class TestTaintProperties:
    @given(
        points=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8
        ),
        rows=st.lists(st.integers(0, 5), max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_correctable_matches_bruteforce(self, points, rows):
        t = TaintState(points=set(points), rows=set(rows))
        # brute force: materialize the corrupted coordinate set on a 6×6 grid
        grid = np.zeros((6, 6), dtype=bool)
        for r, c in points:
            grid[r, c] = True
        for r in rows:
            grid[r, :] = True
        brute = bool((grid.sum(axis=0) <= 1).all())
        assert t.correctable() == brute

    @given(
        points=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_monotone(self, points):
        """Merging taint never turns an uncorrectable state correctable."""
        t = TaintState()
        prev_correctable = True
        for r, c in points:
            t.add_point(r, c)
            now = t.correctable()
            assert prev_correctable or not now
            prev_correctable = now


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------


@st.composite
def random_task_graphs(draw):
    """Random DAGs over two resources with mixed utils and random deps."""
    g = TaskGraph()
    r1 = Resource("r1", capacity=1.0, max_concurrent=draw(st.sampled_from([None, 2, 4])))
    r2 = Resource("r2", capacity=draw(st.sampled_from([0.5, 1.0])))
    n = draw(st.integers(2, 12))
    tasks = []
    for i in range(n):
        res = r1 if draw(st.booleans()) else r2
        t = g.new(
            f"t{i}",
            resource=res,
            duration=draw(st.floats(0.01, 2.0)),
            util=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        )
        # edges only to earlier tasks: acyclic by construction
        for j in draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []:
            t.after(tasks[j])
        tasks.append(t)
    return g, tasks


class TestEngineProperties:
    @given(random_task_graphs())
    @settings(max_examples=50, deadline=None)
    def test_dependencies_respected(self, graph_tasks):
        g, tasks = graph_tasks
        Engine().run(g)
        for t in tasks:
            for d in t.deps:
                assert t.start_time >= d.finish_time - 1e-9

    @given(random_task_graphs())
    @settings(max_examples=50, deadline=None)
    def test_makespan_bounds(self, graph_tasks):
        """critical path ≤ makespan ≤ serial sum (+slack for GPS stretch)."""
        g, tasks = graph_tasks
        res = Engine().run(g)
        serial = sum(t.duration / min(1.0, t.resource.capacity / t.util) for t in tasks)
        assert res.makespan <= serial + 1e-6

        def path(t):
            return t.duration + max((path(d) for d in t.deps), default=0.0)

        longest = max(path(t) for t in tasks)
        assert res.makespan >= longest - 1e-9

    @given(random_task_graphs())
    @settings(max_examples=50, deadline=None)
    def test_all_tasks_complete(self, graph_tasks):
        g, tasks = graph_tasks
        Engine().run(g)
        assert all(t.finish_time >= 0 for t in tasks)

    @given(random_task_graphs())
    @settings(max_examples=30, deadline=None)
    def test_busy_time_not_exceeding_capacity(self, graph_tasks):
        """Aggregate consumed resource-seconds ≤ capacity × makespan."""
        g, tasks = graph_tasks
        res = Engine().run(g)
        for r in {t.resource for t in tasks}:
            assert r.busy_time <= r.capacity * res.makespan + 1e-6


# ---------------------------------------------------------------------------
# potf2 robustness
# ---------------------------------------------------------------------------


class TestPotf2Properties:
    @given(b=st.sampled_from([2, 4, 8, 16]), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_reconstructs_input(self, b, seed):
        a = random_spd(b, rng=seed)
        pristine = a.copy()
        dense.potf2(a)
        np.testing.assert_allclose(a @ a.T, pristine, rtol=1e-9, atol=1e-9)

    @given(b=st.sampled_from([2, 4, 8]), seed=seeds, scale=st.floats(1e-6, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, b, seed, scale):
        """potf2(s·A) == √s · potf2(A)."""
        a = random_spd(b, rng=seed)
        a_scaled = scale * a
        dense.potf2(a)
        dense.potf2(a_scaled)
        np.testing.assert_allclose(
            a_scaled, np.sqrt(scale) * a, rtol=1e-9, atol=1e-12
        )
