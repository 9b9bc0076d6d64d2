"""Static verifier for the paper's ABFT ordering invariants.

:func:`check_protocol` walks a recorded schedule (the spans of a scheme
run's :class:`~repro.desim.trace.Timeline`) and checks, purely from the
dependency graph, the properties Section III and Table I state about each
scheme:

**Verified-read.**  Every tile read by a factorization operation (SYRK,
GEMM, POTF2, TRSM) must be dominated by a verification of that tile issued
after the tile's last write, *in the same iteration* as the read.  Enhanced
is defined by this property; Online verifies after updates, so its reads
are covered only by a verification from an earlier iteration — the
*vulnerability window* between that verification and the read; Offline
leaves every read unverified until the final sweep.  The tile-DAG engine
(``dag``) verifies each diagonal and panel right before it is factored
and solved, but not the trailing tiles its SYRK and GEMM read, so it is
held to Offline's expectations.  The checker reports
each unguarded read with the tile and the (write, read) span pair bounding
its window.  For Enhanced, an unguarded read is an *error* unless it is a
legal Optimization-3 deferral: the reading operation is in
:data:`~repro.core.policy.DEFERRABLE_INPUT_KINDS` and the tile lies in the
strict lower triangle, where a deferred error stays one-per-column
correctable (reported as *info* instead).

**Checksum staleness.**  A verification recalculates checksums and compares
them with the maintained copies — meaningless if the maintained checksum of
a verified tile was last updated *before* some write the verification can
see.  For every verification V of tile T: if some write W of T ordered
before V has every checksum update of T (ordered before V) itself ordered
before W, the comparison runs against a stale checksum.  Checksum updates
unordered with W are counted as covering it: with Optimization 2 the
updating kernel runs on its own stream/the CPU concurrently with
verification issue order, and only the data-flow (both derive from the same
operation output) matters.

**Final coverage.**  Every tile's final value — each write not superseded
by a later ordered write — must be followed by some verification of that
tile, else an error in the finished factor escapes detection entirely.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.model import AccessGraph, Tile
from repro.analysis.report import Finding
from repro.core.policy import DEFERRABLE_INPUT_KINDS
from repro.desim.trace import Span
from repro.util.exceptions import ValidationError

SCHEMES = ("enhanced", "online", "offline", "dag")

#: Span kinds whose data-tile reads the verified-read rule covers.  The FT
#: machinery's own reads (checksum recalculation/updating, transfers) are
#: exempt: Table I's verification sets protect the *factorization*
#: operations' inputs, and the machinery reads tiles precisely in order to
#: protect them.
COMPUTE_KINDS = frozenset({"syrk", "gemm", "potf2", "trsm"})


def _verified_read(graph: AccessGraph, scheme: str) -> list[Finding]:
    findings: list[Finding] = []
    for span in graph.spans:
        if span.kind not in COMPUTE_KINDS:
            continue
        read_iter = graph.iteration_of(span)
        for tile in sorted(set(_data_reads(graph, span))):
            last_writes = graph.last_writes_before(tile, span.tid)
            if not last_writes:
                continue  # first touch: the read sees encoded/original data
            covering = [
                v
                for v in graph.verifies.get(tile, [])
                if graph.reaches(v, span.tid)
                and all(graph.reaches(w, v) for w in last_writes)
            ]
            if any(graph.iteration_of(graph.span(v)) == read_iter for v in covering):
                continue  # guarded: verified after the last write, this iteration
            flavor = "stale-verify" if covering else "unverified"
            write = graph.span(max(last_writes))
            findings.append(
                _classify_unguarded(scheme, span, write, tile, flavor)
            )
    return findings


def _classify_unguarded(
    scheme: str, read: Span, write: Span, tile: Tile, flavor: str
) -> Finding:
    window = (
        f"tile {tile}: window between write {write.name!r} (tid {write.tid}) "
        f"and read {read.name!r} (tid {read.tid})"
    )
    detail = {
        "tile": list(tile),
        "write": {"tid": write.tid, "name": write.name},
        "read": {"tid": read.tid, "name": read.name},
        "flavor": flavor,
    }
    if scheme == "enhanced":
        deferrable = read.kind in DEFERRABLE_INPUT_KINDS and tile[0] > tile[1]
        if deferrable:
            return Finding(
                rule="opt3-deferral",
                severity="info",
                message=f"deferred verification (Opt 3, correctable): {window}",
                where=read.name,
                detail=detail,
            )
        return Finding(
            rule="verified-read",
            severity="error",
            message=f"{flavor} read of a non-deferrable input: {window}",
            where=read.name,
            detail=detail,
        )
    if scheme == "online" and flavor == "unverified":
        return Finding(
            rule="verified-read",
            severity="error",
            message=f"read never post-update verified: {window}",
            where=read.name,
            detail=detail,
        )
    return Finding(
        rule="vuln-window",
        severity="info",
        message=f"vulnerability window ({flavor}): {window}",
        where=read.name,
        detail=detail,
    )


def _data_reads(graph: AccessGraph, span: Span) -> list[Tile]:
    return [t for t, tids in graph.reads["data"].items() if span.tid in tids]


def _checksum_staleness(graph: AccessGraph) -> list[Finding]:
    findings: list[Finding] = []
    for tile, verify_tids in sorted(graph.verifies.items()):
        writes = graph.writes["data"].get(tile, [])
        chk_writes = graph.writes["chk"].get(tile, [])
        for v in verify_tids:
            seen_updates = [u for u in chk_writes if graph.reaches(u, v)]
            for w in writes:
                if not graph.reaches(w, v):
                    continue
                # Covered unless every visible checksum update precedes W.
                if seen_updates and not all(
                    graph.reaches(u, w) for u in seen_updates
                ):
                    continue
                vs, ws = graph.span(v), graph.span(w)
                findings.append(
                    Finding(
                        rule="chk-stale",
                        severity="error",
                        message=(
                            f"tile {tile}: verification {vs.name!r} (tid {v}) sees "
                            f"write {ws.name!r} (tid {w}) but no checksum update "
                            "after it — comparison against a stale checksum"
                        ),
                        where=vs.name,
                        detail={
                            "tile": list(tile),
                            "verify": {"tid": v, "name": vs.name},
                            "write": {"tid": w, "name": ws.name},
                        },
                    )
                )
                break  # one stale write per (tile, verify) is enough
    return findings


def _final_coverage(graph: AccessGraph) -> list[Finding]:
    findings: list[Finding] = []
    for tile, writes in sorted(graph.writes["data"].items()):
        finals = [
            w
            for w in writes
            if not any(o != w and graph.reaches(w, o) for o in writes)
        ]
        for w in finals:
            if any(graph.reaches(w, v) for v in graph.verifies.get(tile, [])):
                continue
            ws = graph.span(w)
            findings.append(
                Finding(
                    rule="final-cover",
                    severity="error",
                    message=(
                        f"tile {tile}: final write {ws.name!r} (tid {w}) is never "
                        "followed by a verification — errors in the finished "
                        "factor escape detection"
                    ),
                    where=ws.name,
                    detail={"tile": list(tile), "write": {"tid": w, "name": ws.name}},
                )
            )
    return findings


def check_protocol(spans: Iterable[Span], scheme: str) -> list[Finding]:
    """Check a scheme run's schedule against the paper's ordering invariants.

    *spans* is a :class:`~repro.desim.trace.Timeline` or any iterable of
    spans carrying the event-protocol meta keys; *scheme* selects the
    expectations (``enhanced`` | ``online`` | ``offline`` | ``dag``) as
    described in the module docstring.  Returns findings; ``error``
    severity means the schedule violates its own scheme's contract,
    ``info`` documents the scheme's expected exposure (vulnerability
    windows, Opt-3 deferrals).
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    graph = AccessGraph(spans)
    findings = _verified_read(graph, scheme)
    findings += _checksum_staleness(graph)
    findings += _final_coverage(graph)
    return findings
