"""Property tests: both verify engines are bit-identical to the per-tile loop.

:meth:`~repro.core.correct.Verifier.verify_batch` (the core schemes) and
the tile-DAG runtime's verify task body both run the batched detector
(:func:`repro.core.batchverify.detect`) and decode only the flagged
tiles.  The contract is not "approximately the same" — it is *bit*
parity with :func:`repro.experiments.hotpath.check_per_tile`, the
per-tile reference: for any matrix, block size, checksum count and
fault pattern, each path must leave the same bytes in the data and
checksum buffers, record the same verifier statistics and corrected
sites, and raise the same :class:`~repro.util.exceptions.UnrecoverableError`
(same arguments, same first-failure ordering).  Hypothesis drives the
fault patterns; the deterministic tests pin the known raise shapes and
the detector's in-place branch (B > 128).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.blocked import BlockedMatrix
from repro.blas.spd import random_spd
from repro.core.checksum import encode_blocked_host, issue_encoding
from repro.core.correct import Verifier
from repro.experiments.hotpath import check_per_tile
from repro.hetero.machine import Machine
from repro.runtime.cholesky import _verify_body
from repro.util.exceptions import UnrecoverableError

# Fault = (tile key, row, col, delta) applied after encoding.
Fault = tuple[tuple[int, int], int, int, float]

PATHS = ("verifier", "dag", "reference")


def _run_path(
    machine: Machine,
    a: np.ndarray,
    block_size: int,
    n_checksums: int,
    faults: list[Fault],
    path: str,
):
    """One full encode→corrupt→verify pass through *path*.

    Returns ``(matrix bytes, checksum bytes, stats, raised args)`` so the
    caller can compare the paths field by field.
    """
    ctx = machine.context(numerics="real")
    matrix = ctx.alloc_matrix(a.shape[0], block_size, data=a.copy())
    chk = ctx.alloc_checksums(a.shape[0], block_size, rows_per_tile=n_checksums)
    v = Verifier(ctx, matrix, chk)
    issue_encoding(ctx, matrix, chk, v.streams)
    for key, row, col, delta in faults:
        matrix.tile_view(key)[row, col] += delta
    keys = v.lower_keys()
    raised = None
    try:
        if path == "verifier":
            v.verify_batch(keys, "prop")
        elif path == "dag":
            _verify_body(matrix, chk, keys, v.codec, v.stats)()
        else:
            v.stats.batches += 1
            v.stats.tiles_verified += len(keys)
            check_per_tile(matrix, chk, keys, v.codec, stats=v.stats)
    except UnrecoverableError as exc:
        raised = (type(exc).__name__, exc.args)
    return matrix.array.copy(), chk.array.copy(), v.stats, raised


def _assert_paths_identical(a, block_size, n_checksums, faults):
    machine = Machine.preset("tardis")
    runs = {p: _run_path(machine, a, block_size, n_checksums, faults, p) for p in PATHS}
    r_mat, r_chk, r_stats, r_raised = runs["reference"]
    for path in ("verifier", "dag"):
        mat, chk, stats, raised = runs[path]
        assert raised == r_raised, path
        np.testing.assert_array_equal(mat, r_mat)  # bit-exact, not allclose
        np.testing.assert_array_equal(chk, r_chk)
        assert stats == r_stats, path  # includes corrected_sites ordering
    return r_stats, r_raised


@st.composite
def _cases(draw):
    """A (matrix, block size, checksum count, fault list) scenario."""
    block_size = draw(st.sampled_from([4, 8]))
    nb = draw(st.integers(min_value=2, max_value=4))
    n_checksums = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    a = random_spd(block_size * nb, rng=seed)

    lower = [(i, j) for j in range(nb) for i in range(j, nb)]
    magnitudes = st.one_of(
        st.floats(min_value=0.5, max_value=1e4),
        st.floats(min_value=-1e4, max_value=-0.5),
    )
    kind = draw(st.sampled_from(["clean", "single_column", "multi_error"]))
    faults: list[Fault] = []
    if kind == "single_column":
        # Up to three tiles, each with one fault — the correctable regime.
        hit = draw(
            st.lists(st.sampled_from(lower), min_size=1, max_size=3, unique=True)
        )
        for key in hit:
            row = draw(st.integers(0, block_size - 1))
            col = draw(st.integers(0, block_size - 1))
            faults.append((key, row, col, draw(magnitudes)))
    elif kind == "multi_error":
        # Several faults in one column of one tile: beyond the code's
        # correction capability.  Whether the decoder raises or (for
        # aliasing magnitudes) mis-corrects, every path must agree bit
        # for bit — parity is the property, not the verdict.
        key = draw(st.sampled_from(lower))
        col = draw(st.integers(0, block_size - 1))
        rows = draw(
            st.lists(
                st.integers(0, block_size - 1),
                min_size=n_checksums,
                max_size=n_checksums + 1,
                unique=True,
            )
        )
        for row in rows:
            faults.append((key, row, col, draw(magnitudes)))
    return a, block_size, n_checksums, kind, faults


@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_batched_matches_per_tile_bit_for_bit(case):
    a, block_size, n_checksums, kind, faults = case
    stats, raised = _assert_paths_identical(a, block_size, n_checksums, faults)
    if kind == "clean":
        assert raised is None
        assert stats.data_corrections == 0
        assert stats.columns_flagged == 0


@pytest.mark.parametrize("n_checksums", [2, 3])
def test_in_place_branch_matches_per_tile(n_checksums):
    """B = 192 tiles are checked in place, one at a time, not gathered."""
    b = 192
    a = random_spd(3 * b, rng=5)
    faults = [((1, 0), 17, 40, 3.5), ((2, 2), 150, 191, -250.0)]
    stats, raised = _assert_paths_identical(a, b, n_checksums, faults)
    assert raised is None
    assert stats.data_corrections == 2
    assert [site[0] for site in stats.corrected_sites] == [(1, 0), (2, 2)]


@settings(max_examples=10, deadline=None)
@given(
    block_size=st.sampled_from([4, 8, 192]),
    nb=st.integers(min_value=2, max_value=4),
    n_checksums=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_encode_matches_host_reference(block_size, nb, n_checksums, seed):
    """``issue_encoding`` stores the same bits as the per-tile host loop."""
    a = random_spd(block_size * nb, rng=seed)
    ctx = Machine.preset("tardis").context(numerics="real")
    matrix = ctx.alloc_matrix(a.shape[0], block_size, data=a.copy())
    chk = ctx.alloc_checksums(a.shape[0], block_size, rows_per_tile=n_checksums)
    issue_encoding(ctx, matrix, chk, [ctx.stream("encode")])
    reference = encode_blocked_host(
        BlockedMatrix(a.copy(), block_size), n_checksums=n_checksums
    )
    np.testing.assert_array_equal(chk.array, reference)


class TestUnrecoverableParity:
    """Fault shapes known to defeat the code must raise on every path."""

    def _raise_case(self, n_checksums, corrupt):
        machine = Machine.preset("tardis")
        out = []
        for path in PATHS:
            ctx = machine.context(numerics="real")
            a = random_spd(32, rng=3)
            matrix = ctx.alloc_matrix(32, 8, data=a)
            chk = ctx.alloc_checksums(32, 8, rows_per_tile=n_checksums)
            v = Verifier(ctx, matrix, chk)
            issue_encoding(ctx, matrix, chk, v.streams)
            corrupt(matrix)
            keys = v.lower_keys()
            with pytest.raises(UnrecoverableError) as err:
                if path == "verifier":
                    v.verify_batch(keys, "t")
                elif path == "dag":
                    _verify_body(matrix, chk, keys, v.codec, v.stats)()
                else:
                    check_per_tile(matrix, chk, keys, v.codec, stats=v.stats)
            out.append(err.value.args)
        assert out[0] == out[1] == out[2]

    def test_same_column_pair_raises_identically(self):
        def corrupt(matrix):
            tile = matrix.tile_view((1, 0))
            tile[2, 3] += 10.0
            tile[5, 3] += 7.3  # non-integer locator -> unrecoverable

        self._raise_case(2, corrupt)

    def test_full_column_corruption_raises_identically(self):
        def corrupt(matrix):
            matrix.tile_view((2, 1))[:, 4] += np.pi

        self._raise_case(2, corrupt)

    def test_first_failure_ordering_is_preserved(self):
        """Two unrecoverable tiles: every path must report the *first* in
        batch order, even though the detector flags them together."""

        def corrupt(matrix):
            for key in ((1, 0), (3, 2)):
                tile = matrix.tile_view(key)
                tile[2, 3] += 10.0
                tile[5, 3] += 7.3

        self._raise_case(2, corrupt)
