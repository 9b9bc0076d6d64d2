"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``info``
    List the machine presets and their calibrated specs.
``factor``
    Run one fault-tolerant factorization (real or shadow mode), optionally
    with an injected fault, and print the run report.
``capability``
    Regenerate a Table VII/VIII-style capability table for a machine/size.
``overhead``
    Sweep relative overhead of a scheme across the paper's sizes.
``analyze-trace``
    Statically check a schedule (a dumped trace or a fresh shadow run)
    against the ABFT protocol invariants and scan it for RAW/WAW hazards.
``lint``
    Run the repo lint rules over source trees: the classic AST tier
    (RPL001–RPL009) and, with ``--flow``, the flow-sensitive tier
    (RPL101–RPL103: CFG + dataflow + call graph).  ``--format sarif``
    emits SARIF 2.1.0 for CI annotation consumers.
``bench``
    Benchmark the verification hot path (the batched detector vs the
    per-tile loop) plus the tile-DAG runtime (serial vs threaded with lookahead)
    and write ``BENCH_hotpath.json``.
``serve``
    Run the async fault-tolerant solve service against a synthetic or
    stdin (JSONL) job stream; print metrics when the stream drains.
``loadgen``
    Drive the service with a Poisson open-loop or closed-loop workload
    and print a latency/throughput report.
``chaos``
    Run the chaos campaign: system-level fault scenarios (worker kill,
    wedge, shm corruption, queue flood, kill-and-restart recovery …)
    against the service with per-scenario invariants; writes
    ``BENCH_chaos.json`` and exits nonzero on any violation.
(``python examples/paper_figures.py`` prints every paper figure; the
committed ``results/`` tables are regenerated by ``pytest benchmarks``.)
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.blas.spd import random_spd
from repro.core import SCHEMES, AbftConfig
from repro.experiments import capability
from repro.experiments.common import overhead_sweep, sweep_for
from repro.faults.injector import no_faults, single_computing_fault, single_storage_fault
from repro.hetero.machine import Machine
from repro.hetero.spec import PRESETS
from repro.magma.host import factorization_residual
from repro.util.exceptions import ValidationError
from repro.util.formatting import render_series, render_table


def _parse_injection(text: str | None):
    """Parse ``storage:i,j@it`` / ``computing:i,j@it`` fault specs."""
    if text is None:
        return no_faults()
    try:
        kind, rest = text.split(":", 1)
        coords, iteration = rest.split("@", 1)
        i, j = (int(v) for v in coords.split(","))
        it = int(iteration)
    except ValueError as exc:
        raise SystemExit(
            f"bad --inject spec {text!r}; expected kind:i,j@iteration"
        ) from exc
    if kind == "storage":
        return single_storage_fault(block=(i, j), iteration=it)
    if kind == "computing":
        return single_computing_fault(block=(i, j), iteration=it)
    raise SystemExit(f"unknown fault kind {kind!r} (storage|computing)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine", default="tardis", choices=sorted(PRESETS), help="testbed preset"
    )
    parser.add_argument("--block-size", type=int, default=None)


def cmd_info(_args: argparse.Namespace) -> int:
    rows = []
    for spec in PRESETS.values():
        rows.append(
            (
                spec.name,
                spec.gpu.name,
                f"{spec.gpu.peak_gflops:.0f}",
                spec.gpu.max_concurrent_kernels,
                spec.cpu.name,
                f"{spec.link.bandwidth_gbs:.0f} GB/s",
                spec.default_block_size,
            )
        )
    print(
        render_table(
            ["machine", "gpu", "peak GF", "queues", "cpu", "pcie", "B"],
            rows,
            title="machine presets (calibrated to the paper's testbeds)",
        )
    )
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    machine = Machine.preset(args.machine)
    potrf = SCHEMES[args.scheme]
    config = AbftConfig(
        verify_interval=args.k,
        recalc_streams=args.streams,
        updating_placement=args.placement,
    )
    injector = _parse_injection(args.inject)
    if args.shadow:
        res = potrf(
            machine,
            n=args.n,
            block_size=args.block_size,
            config=config,
            injector=injector,
            numerics="shadow",
        )
        residual = None
    else:
        a = random_spd(args.n, rng=args.seed)
        pristine = a.copy()
        res = potrf(
            machine,
            a=a,
            block_size=args.block_size,
            config=config,
            injector=injector,
        )
        residual = factorization_residual(pristine, res.factor)

    print(f"scheme={res.scheme} machine={res.machine} n={res.n} B={res.block_size}")
    print(f"simulated time : {res.makespan:.6f} s  ({res.gflops:.1f} GFLOPS)")
    print(f"restarts       : {res.restarts}")
    print(f"placement      : {res.placement}")
    print(
        f"verification   : {res.stats.tiles_verified} tiles, "
        f"{res.stats.data_corrections} data corrections, "
        f"{res.stats.checksum_corrections} checksum repairs"
    )
    if residual is not None:
        print(f"residual       : {residual:.3e}")
    return 0


def cmd_capability(args: argparse.Namespace) -> int:
    res = capability.run(args.machine, args.n, block_size=args.block_size)
    print(res.render(f"capability — {args.machine}, n={args.n}"))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    config = AbftConfig(verify_interval=args.k)
    sizes = tuple(args.sizes) if args.sizes else sweep_for(args.machine)
    series = {}
    for scheme in args.schemes:
        _, ys = overhead_sweep(args.machine, scheme, config, sizes)
        series[scheme] = ys
    print(
        render_series(
            "n",
            list(sizes),
            series,
            title=f"relative overhead — {args.machine}, K={args.k}",
        )
    )
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    from repro.experiments import latency

    res = latency.run(args.machine, args.n, block_size=args.block_size)
    print(res.render(f"detection latency — {args.machine}, n={args.n}"))
    return 0


def cmd_kpolicy(args: argparse.Namespace) -> int:
    from repro.experiments import kpolicy

    res = kpolicy.run(args.machine, args.n, rates=tuple(args.rates))
    print(res.render(f"optimal K vs fault rate — {args.machine}, n={args.n}"))
    for rate in args.rates:
        print(f"rate {rate:g} faults/GB/s -> K = {res.optimal_k(rate)}")
    return 0


def cmd_analyze_trace(args: argparse.Namespace) -> int:
    from repro.analysis import check_protocol, find_hazards, render_json, render_text
    from repro.analysis.trace_io import dump_trace, load_trace

    if args.trace is not None:
        timeline, scheme = load_trace(args.trace)
        scheme = args.scheme or scheme
        title = f"analyze-trace {args.trace} [{scheme}]"
    else:
        scheme = args.scheme or "enhanced"
        machine = Machine.preset(args.machine)
        res = SCHEMES[scheme](
            machine,
            n=args.n,
            block_size=args.block_size,
            config=AbftConfig(verify_interval=args.k),
            numerics="shadow",
        )
        timeline = res.timeline
        title = f"analyze-trace {scheme} n={args.n} ({args.machine})"
        if args.dump:
            dump_trace(timeline, scheme, args.dump)

    findings = check_protocol(timeline, scheme)
    findings += find_hazards(timeline)
    render = render_json if args.json else render_text
    print(render(findings, title=title))
    return 1 if any(f.severity == "error" for f in findings) else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import render_json, render_text
    from repro.analysis.lint import RULES, run_lint

    paths = args.paths or [Path(__file__).parent]
    tiers = ("classic", "flow") if args.flow else ("classic",)
    findings = run_lint(paths, select=args.select, tiers=tiers)
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "sarif":
        from repro.analysis.sarif import render_sarif

        ran = {
            rule.id: rule.description
            for rule in RULES.values()
            if (args.select and rule.id in args.select)
            or (not args.select and rule.tier in tiers)
        }
        print(render_sarif(findings, ran))
    else:
        render = render_json if fmt == "json" else render_text
        print(render(findings, title="lint"))
    return 1 if findings else 0


def _service_from_args(args: argparse.Namespace):
    from repro.service import RetryPolicy, ServiceConfig, SolveService

    config = ServiceConfig(
        workers=tuple(args.workers),
        max_queue_depth=args.max_depth,
        job_timeout_s=args.job_timeout,
        retry=RetryPolicy(max_retries=args.max_retries),
        trace_dir=args.trace_dir,
        executor=args.executor,
        exec_workers=args.exec_workers,
        batch_max=args.batch_max,
        batch_linger_s=args.batch_linger,
    )
    return SolveService(config)


def _write_service_outputs(service, args: argparse.Namespace) -> None:
    if args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.metrics_out).write_text(service.metrics.to_json() + "\n")
        print(f"metrics JSON written to {args.metrics_out}")
    if args.prometheus_out:
        from pathlib import Path

        Path(args.prometheus_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.prometheus_out).write_text(service.metrics.to_prometheus())
        print(f"Prometheus metrics written to {args.prometheus_out}")


def _jobs_from_stdin(args: argparse.Namespace) -> list:
    """Parse one job per JSONL line: {"n": 96, "scheme": ..., "priority": ...}."""
    import json

    from repro.service import Job

    jobs = []
    for index, line in enumerate(sys.stdin):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"stdin line {index + 1}: not valid JSON ({exc})") from exc
        injector = None
        if raw.get("inject"):
            injector = _parse_injection(str(raw["inject"]))
        jobs.append(
            Job(
                job_id=int(raw.get("id", len(jobs))),
                n=int(raw.get("n", 96)),
                scheme=str(raw.get("scheme", args.scheme)),
                priority=raw.get("priority", "batch"),
                block_size=int(raw["block_size"]) if raw.get("block_size") else args.block_size,
                numerics=str(raw.get("numerics", "real")),
                seed=int(raw.get("seed", args.seed)),
                injector=injector,
            )
        )
    return jobs


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import LoadGenConfig, LoadReport, make_jobs
    from repro.service.job import JobStatus

    service = _service_from_args(args)
    if args.synthetic is not None:
        cfg = LoadGenConfig(
            jobs=args.synthetic,
            sizes=tuple(args.sizes),
            block_size=args.block_size,
            scheme=args.scheme,
            fault_prob=args.fault_prob,
            seed=args.seed,
        )
        jobs = make_jobs(cfg)
    else:
        jobs = _jobs_from_stdin(args)
    if not jobs:
        print("no jobs to serve", file=sys.stderr)
        return 2

    async def drive() -> None:
        import time

        await service.start_executor()  # pool spawn is not billed to job 0
        service.start()
        t0 = time.monotonic()
        for job in jobs:
            decision = service.submit(job)
            while not decision.accepted and not service.queue.closed:
                await asyncio.sleep(decision.retry_after_s or 0.01)
                decision = service.submit(job)
        await service.stop()
        print(LoadReport.from_service(service, time.monotonic() - t0).render("serve report"))

    asyncio.run(drive())
    _write_service_outputs(service, args)
    failed = [r for r in service.results.values() if r.status is JobStatus.FAILED]
    return 1 if failed else 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import LoadGenConfig, run_load
    from repro.service.job import JobStatus

    service = _service_from_args(args)
    cfg = LoadGenConfig(
        jobs=args.jobs,
        sizes=tuple(args.sizes),
        block_size=args.block_size,
        scheme=args.scheme,
        fault_prob=args.fault_prob,
        fault_kind=args.fault_kind,
        seed=args.seed,
        rate=args.rate,
        concurrency=args.closed,
    )
    report, results = asyncio.run(run_load(service, cfg))
    if args.json:
        import dataclasses
        import json

        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    else:
        mode = f"open rate={args.rate}/s" if args.rate else f"closed x{args.closed}"
        print(report.render(f"loadgen — {cfg.jobs} jobs, {mode}, fault_prob={cfg.fault_prob}"))
    _write_service_outputs(service, args)
    failed = [r for r in results if r.status is JobStatus.FAILED]
    if failed:
        for r in failed:
            print(f"job {r.job_id} failed: {r.error}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.experiments import hotpath

    if args.service:
        return _cmd_bench_service(args)
    dag_sizes = hotpath._DAG_SIZES if args.dag_grid is None else tuple(args.dag_grid)
    doc = hotpath.run(
        n=args.n,
        block_size=args.block_size or 32,
        machine=args.machine,
        scheme=args.scheme,
        repeats=args.repeats,
        seed=args.seed,
        dag_workers=args.dag_workers,
        dag_sizes=dag_sizes,
    )
    print(hotpath.render(doc))
    if args.out:
        path = hotpath.write(doc, args.out)
        print(f"bench JSON written to {path}")
    if args.history:
        from repro.experiments.stamp import append_history

        print(f"run appended to {append_history(doc, bench='hotpath', path=args.history)}")
    if not all(doc["bit_identical"].values()):
        print("repro: bench: detector sweep diverges from per-tile", file=sys.stderr)
        return 1
    grid = doc["dag"]["grid"]
    for point in grid:
        if not all(point["bit_identical"].values()):
            print(
                f"repro: bench: DAG runtime diverges from serial at n={point['n']}",
                file=sys.stderr,
            )
            return 1
    if args.fail_below is not None and doc["speedup"]["sweep_check"] < args.fail_below:
        print(
            f"repro: bench: verify sweep speedup {doc['speedup']['sweep_check']:.2f}x "
            f"below the --fail-below {args.fail_below:g}x gate",
            file=sys.stderr,
        )
        return 1
    if args.dag_gate is not None and grid:
        cores = os.cpu_count() or 1
        top = grid[-1]
        if cores < 4:
            print(
                f"repro: bench: NOTICE — host has {cores} core(s) (< 4); "
                f"the --dag-gate {args.dag_gate:g}x speedup gate is skipped "
                f"(measured {top['speedup']:.2f}x at n={top['n']})",
                file=sys.stderr,
            )
        elif top["speedup"] < args.dag_gate:
            print(
                f"repro: bench: DAG speedup {top['speedup']:.2f}x at "
                f"n={top['n']} below the --dag-gate {args.dag_gate:g}x gate",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_bench_service(args: argparse.Namespace) -> int:
    import os

    from repro.experiments import scaling
    from repro.experiments.stamp import append_history

    doc = scaling.run(
        jobs=args.service_jobs,
        executors=tuple(args.executors),
        workers=tuple(args.workers_sweep),
        grid_sizes=tuple(args.grid_sizes),
        grid_jobs=args.grid_jobs,
    )
    print(scaling.render(doc))
    if args.service_out:
        path = scaling.write(doc, args.service_out)
        print(f"bench JSON written to {path}")
    if args.history:
        print(f"run appended to {append_history(doc, bench='service', path=args.history)}")
    if not all(doc["bit_identical"].values()):
        print("repro: bench: backends disagree on job results/factors", file=sys.stderr)
        return 1
    ratio = doc["speedup_vs_1_worker"].get("process")
    if args.fail_below is not None:
        cores = os.cpu_count() or 1
        if cores < 4:
            print(
                f"repro: bench: NOTICE — host has {cores} core(s) (< 4); "
                f"the --fail-below {args.fail_below:g}x process-scaling gate is skipped",
                file=sys.stderr,
            )
        elif ratio is not None and ratio < args.fail_below:
            print(
                f"repro: bench: process scaling {ratio:.2f}x below the "
                f"--fail-below {args.fail_below:g}x gate",
                file=sys.stderr,
            )
            return 1
    if args.grid_gate:
        size_grid = doc.get("size_grid")
        cores = os.cpu_count() or 1
        if cores < 4:
            print(
                f"repro: bench: NOTICE — host has {cores} core(s) (< 4); "
                "the --grid-gate inline-vs-process crossover gate is skipped",
                file=sys.stderr,
            )
        elif not size_grid:
            print(
                "repro: bench: --grid-gate needs the size grid "
                "(do not pass an empty --grid-sizes)",
                file=sys.stderr,
            )
            return 1
        else:
            top = str(max(size_grid["sizes"]))
            inline_jps = size_grid["cells"]["inline"][top]["jobs_per_s"]
            process_jps = size_grid["cells"]["process"][top]["jobs_per_s"]
            if process_jps < inline_jps:
                print(
                    f"repro: bench: process backend {process_jps:.2f} jobs/s "
                    f"below inline {inline_jps:.2f} jobs/s at n={top} "
                    "(--grid-gate)",
                    file=sys.stderr,
                )
                return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import chaos

    if args.list:
        width = max(map(len, chaos.SCENARIOS))
        for name, row in chaos.SCENARIOS.items():
            print(f"{name:{width}} {row.fault}{' [quick]' if row.quick else ''}")
        return 0
    if args.scenarios:
        names = tuple(args.scenarios)
    elif args.quick:
        names = chaos.QUICK_SCENARIOS
    else:
        names = tuple(chaos.SCENARIOS)
    cfg = chaos.ChaosConfig(
        jobs=args.jobs,
        n=args.n,
        block_size=args.block_size,
        seed=args.seed,
        exec_workers=args.exec_workers,
    )
    doc = chaos.run_chaos(cfg, names)
    print(chaos.render(doc))
    if args.out:
        path = chaos.write(doc, args.out)
        print(f"chaos scorecard written to {path}")
    if args.history:
        from repro.experiments.stamp import append_history

        print(f"run appended to {append_history(doc, bench='chaos', path=args.history)}")
    if not doc["ok"]:
        print("repro: chaos: invariant violations detected", file=sys.stderr)
        return 1
    return 0


def cmd_recovery(args: argparse.Namespace) -> int:
    from repro.experiments import recovery

    doc = recovery.run(
        n=args.n,
        block_size=args.block_size,
        machine=args.machine,
        scheme=args.scheme,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(recovery.render(doc))
    if args.out:
        path = recovery.write(doc, args.out)
        print(f"recovery bench written to {path}")
    if args.history:
        from repro.experiments.stamp import append_history

        print(f"run appended to {append_history(doc, bench='recovery', path=args.history)}")
    if not doc["bit_identical"]:
        print(
            "repro: recovery: resumed factor diverged from the uninterrupted run",
            file=sys.stderr,
        )
        return 1
    if any(r["recomputed_fraction"] >= 1.0 for r in doc["crash_grid"][1:]):
        print(
            "repro: recovery: forward resume recomputed as much as a full restart",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    path = write_report(path=args.out, quick=not args.full)
    print(f"report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.exec.base import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enhanced Online-ABFT Cholesky reproduction (IPDPS 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list machine presets").set_defaults(fn=cmd_info)

    p = sub.add_parser("factor", help="run one fault-tolerant factorization")
    _add_common(p)
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--scheme", default="enhanced", choices=sorted(SCHEMES))
    p.add_argument("--k", type=int, default=1, help="verification interval K")
    p.add_argument("--streams", type=int, default=None, help="recalc streams")
    p.add_argument(
        "--placement",
        default="auto",
        choices=["auto", "gpu_main", "gpu_stream", "cpu"],
    )
    p.add_argument("--shadow", action="store_true", help="paper-scale shadow mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject",
        default=None,
        metavar="KIND:I,J@IT",
        help="inject one fault, e.g. storage:4,2@3",
    )
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("capability", help="regenerate a capability table")
    _add_common(p)
    p.add_argument("--n", type=int, default=20480)
    p.set_defaults(fn=cmd_capability)

    p = sub.add_parser("overhead", help="overhead sweep")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument(
        "--schemes", nargs="+", default=["offline", "online", "enhanced"],
        choices=sorted(SCHEMES),
    )
    p.add_argument("--sizes", nargs="*", type=int, default=None)
    p.set_defaults(fn=cmd_overhead)

    p = sub.add_parser("latency", help="corruption exposure time per scheme")
    _add_common(p)
    p.add_argument("--n", type=int, default=8192)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("kpolicy", help="optimal K for a fault rate")
    _add_common(p)
    p.add_argument("--n", type=int, default=20480)
    p.add_argument(
        "--rates", nargs="+", type=float, default=[1e-6, 1e-3, 1e-1, 1.0]
    )
    p.set_defaults(fn=cmd_kpolicy)

    p = sub.add_parser(
        "analyze-trace",
        help="static ABFT-protocol and hazard analysis of a schedule",
    )
    _add_common(p)
    p.add_argument(
        "trace", nargs="?", default=None,
        help="dumped trace JSON (omit to shadow-run --scheme in-process)",
    )
    p.add_argument("--scheme", default=None, choices=sorted(SCHEMES))
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--k", type=int, default=1, help="verification interval K")
    p.add_argument("--dump", default=None, help="also dump the generated trace here")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_analyze_trace)

    def add_service_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", nargs="+", default=["tardis:2"],
            metavar="PRESET[:CONCURRENCY]",
            help="worker pool, e.g. --workers tardis:2 bulldozer64:1",
        )
        p.add_argument("--max-depth", type=int, default=64, help="queue admission limit")
        p.add_argument("--job-timeout", type=float, default=120.0, help="per-attempt seconds")
        p.add_argument("--max-retries", type=int, default=2)
        p.add_argument(
            "--scheme", default="enhanced", choices=sorted([*SCHEMES, "dag"])
        )
        p.add_argument("--block-size", type=int, default=32)
        p.add_argument("--sizes", nargs="+", type=int, default=[64, 96, 128])
        p.add_argument("--fault-prob", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace-dir", default=None, help="dump per-job timelines here")
        p.add_argument("--metrics-out", default=None, help="write metrics JSON here")
        p.add_argument("--prometheus-out", default=None, help="write Prometheus text here")
        p.add_argument(
            "--executor", default="thread", choices=BACKENDS,
            help="execution backend for blocking attempts",
        )
        p.add_argument(
            "--exec-workers", type=int, default=None, metavar="N",
            help="backend concurrency (thread width / process pool size; "
            "default: the scheduler's total worker concurrency)",
        )
        p.add_argument(
            "--batch-max", type=int, default=1, metavar="K",
            help="coalesce up to K compatible queued jobs into one dispatch "
            "unit (1 = singleton dispatch, the default)",
        )
        p.add_argument(
            "--batch-linger", type=float, default=0.0, metavar="SECONDS",
            help="how long an under-filled batch may wait for more queued "
            "jobs before dispatching (the latency budget for coalescing)",
        )

    p = sub.add_parser("serve", help="run the async solve service over a job stream")
    add_service_common(p)
    p.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="serve N generated jobs instead of reading JSONL jobs from stdin",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("loadgen", help="drive the service with a synthetic workload")
    add_service_common(p)
    p.add_argument("--jobs", type=int, default=20)
    p.add_argument(
        "--rate", type=float, default=None,
        help="open-loop Poisson arrivals per second (omit for closed loop)",
    )
    p.add_argument(
        "--closed", type=int, default=4, metavar="CONCURRENCY",
        help="closed-loop outstanding jobs (used when --rate is omitted)",
    )
    p.add_argument("--fault-kind", default="storage", choices=["storage", "computing"])
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("bench", help="verification hot-path benchmark")
    _add_common(p)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--scheme", default="enhanced", choices=sorted(SCHEMES))
    p.add_argument("--repeats", type=int, default=3, help="best-of repetitions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default="BENCH_hotpath.json",
        help="output JSON path ('' to skip writing)",
    )
    p.add_argument(
        "--history", default="results/bench_history.jsonl",
        help="append the run to this JSONL perf trajectory ('' to skip)",
    )
    p.add_argument(
        "--fail-below", type=float, default=None, metavar="X",
        help="exit nonzero if the verify sweep speedup (or, with --service, the "
        "process pool's jobs/sec scaling) is below X (CI gate; the "
        "service gate is skipped with a notice on hosts under 4 cores)",
    )
    p.add_argument(
        "--service", action="store_true",
        help="benchmark service scaling across execution backends instead "
        "of the verification hot path (writes BENCH_service.json)",
    )
    p.add_argument("--service-jobs", type=int, default=12, help="jobs per scaling cell")
    p.add_argument(
        "--executors", nargs="+", default=list(BACKENDS), choices=BACKENDS,
        help="backends to sweep (with --service)",
    )
    p.add_argument(
        "--workers-sweep", nargs="+", type=int, default=[1, 2, 4],
        help="pool widths to sweep (with --service)",
    )
    p.add_argument(
        "--grid-sizes", nargs="*", type=int, default=[256, 512, 1024, 2048],
        metavar="N",
        help="matrix orders for the inline-vs-process job-size grid "
        "(with --service; pass no values to skip the grid)",
    )
    p.add_argument(
        "--grid-jobs", type=int, default=3,
        help="jobs per size-grid cell (with --service)",
    )
    p.add_argument(
        "--grid-gate", action="store_true",
        help="exit nonzero unless the process backend meets or beats inline "
        "jobs/s at the largest grid size (skipped with a notice on hosts "
        "under 4 cores)",
    )
    p.add_argument(
        "--service-out", default="BENCH_service.json",
        help="service bench output JSON path ('' to skip writing)",
    )
    p.add_argument(
        "--dag-workers", type=int, default=None, metavar="W",
        help="thread count for the tile-DAG runtime grid "
        "(default: 2-4 bounded by host cores)",
    )
    p.add_argument(
        "--dag-grid", nargs="*", type=int, default=None, metavar="N",
        help="matrix orders for the serial-vs-DAG runtime grid "
        "(default 512 1024 2048; pass no values to skip)",
    )
    p.add_argument(
        "--dag-gate", type=float, nargs="?", const=1.5, default=None, metavar="X",
        help="exit nonzero unless the DAG runtime beats serial by at least "
        "X (default 1.5) at the largest grid size (skipped with a notice "
        "on hosts under 4 cores)",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "chaos", help="system-level chaos campaign against the solve service"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="five-scenario subset for quick local runs (see QUICK_SCENARIOS); CI runs all",
    )
    p.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="explicit scenario names (see --list); overrides --quick",
    )
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    p.add_argument("--jobs", type=int, default=6, help="jobs per scenario")
    p.add_argument("--n", type=int, default=64, help="matrix size per job")
    p.add_argument("--block-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--exec-workers", type=int, default=2, help="backend pool width per scenario"
    )
    p.add_argument(
        "--out", default="BENCH_chaos.json",
        help="scorecard JSON path ('' to skip writing)",
    )
    p.add_argument(
        "--history", default="results/bench_history.jsonl",
        help="append the run to this JSONL perf trajectory ('' to skip)",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "recovery", help="forward-recovery benchmark: crash-resume cost vs full restart"
    )
    p.add_argument("--n", type=int, default=256, help="matrix size")
    p.add_argument("--block-size", type=int, default=32)
    p.add_argument("--machine", default="tardis")
    p.add_argument("--scheme", default="enhanced", choices=("online", "enhanced"))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--repeats", type=int, default=3, help="timing samples per point")
    p.add_argument(
        "--out", default="results/BENCH_recovery.json",
        help="bench JSON path ('' to skip writing)",
    )
    p.add_argument(
        "--history", default="results/bench_history.jsonl",
        help="append the run to this JSONL perf trajectory ('' to skip)",
    )
    p.set_defaults(fn=cmd_recovery)

    p = sub.add_parser("lint", help="repo lint rules (RPL001-RPL009, --flow adds RPL101-RPL103)")
    p.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument("--select", nargs="+", default=None, help="rule ids to run")
    p.add_argument(
        "--flow", action="store_true",
        help="also run the flow-sensitive tier (CFG/dataflow: RPL101-RPL103)",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format (default text; sarif emits SARIF 2.1.0)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output (same as --format json)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("report", help="consolidated evaluation report")
    p.add_argument("--full", action="store_true", help="full paper sweeps")
    p.add_argument("--out", default=None, help="output path (default results/report.txt)")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(linewidth=120)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
