"""Repository benchmark: four workloads, timed end to end and, traced, per layer.

Run from the repository root::

    python bench/run.py                                   # all four workloads
    python bench/run.py --workload potrf-fine --seed 1    # one workload
    python bench/run.py --workload service-faulty --trace # per-layer metrics

Options: ``--seed`` (inputs), ``--seconds`` (the run length callers of
the benchmark pass, ``run_seconds`` of ``BENCHMARK.json`` by default; the
op budget is the workload's nominal rate times this, so every commit runs
the same ops), ``--trace [0|1]``, ``--quick`` (small sizes and the minimum
op count, for the self-test) and ``--out DIR`` (write a stamped JSON record
of the run there).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace 1``.
The exit code is 1 when any op failed, was rejected or returned a wrong
factor.  BLAS is pinned to one thread here, before NumPy loads, and the
process pool's workers inherit the pin, so the only parallelism measured
is the program's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: set-up time counts from here: everything after the standard library
T0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true", help="small sizes (self-test scale)")
    ap.add_argument("--out", type=Path, help="directory for the run's JSON record and trace")
    return ap.parse_args(argv)


def import_library():
    """Import the library from this checkout's ``src/`` or exit nonzero."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: no library at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not from {src}")
    import workloads

    return workloads


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    return f"{name}, {os.environ['OPENBLAS_NUM_THREADS']} thread"


def stamp(args: argparse.Namespace) -> dict:
    def git(*cmd: str) -> str:
        try:
            return subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": git("rev-parse", "HEAD") or "unknown",
        # uncommitted edits under src/ mean the measured code is not git_rev's
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "blas": blas_info(),
        "blas_threads": {var: os.environ[var] for var in PIN_VARS},
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def stop_resource_tracker() -> None:
    """Wait for multiprocessing's resource tracker to exit.

    The process pool's shared memory starts it as a child of this process;
    stopping it here means a run leaves no process behind.  ``_stop`` is
    the only way to end it before interpreter exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(spec: dict, args: argparse.Namespace) -> int:
    workloads = import_library()
    import_s = time.perf_counter() - T0
    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    count = wl.count(0.0 if args.quick else args.seconds)
    out = wl.execute(count, bool(args.trace))
    stop_resource_tracker()
    e2e = workloads.e2e_metrics(out, import_s)
    p = out.untraced
    bad = p.bad()
    wrong = [op for op in bad if op.status == "wrong"]

    print(f"workload {args.workload}  seed {args.seed}  ops {count}  blas {blas_info()}")
    print(f"  latency percentiles over {len(p.latencies())} samples")
    for name, unit in workloads.E2E_UNITS.items():
        print(f"  {name:<24} {e2e[name]:.6g} {unit}")
    print(f"  {len(bad)} of {count} ops failed, were rejected or returned a wrong factor")
    for op in bad:
        print(f"  {op.status.upper()} op {op.index} (n={op.n}) {op.note}" + (f" [fault: {op.plan}]" if op.plan else ""))
    print(f"  counts {json.dumps(p.counts)}")
    layers = None
    if args.trace:
        layers = workloads.layer_metrics(out, isinstance(wl, workloads.ServiceWorkload))
        print(f"  traced pass: {len(out.traced.ops)} ops, counts {json.dumps(out.traced.counts)}")
        for stray in out.strays:
            print(f"  UNTRACED CALLER: {stray}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {layers[m['name']]:.6g} {m['unit']}")

    tag = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}"
    if out.tracer is not None:
        out.tracer.dump(BENCH / "_work" / f"{tag}.spans.json")
    if args.out is not None:
        index = sum(1 for f in args.out.glob(f"{tag}-*.json") if f.name.count(".") == 1)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "stamp": stamp(args),
            "ops": count,
            "e2e": e2e,
            "per_layer": layers,
            "counts": p.counts,
            "pass": {"wall_s": p.wall_s, "cpu_self_s": p.cpu_self_s, "cpu_children_s": p.cpu_children_s},
            "traced_counts": out.traced.counts if out.traced else None,
            "failures": [vars(op) for op in bad],
        }
        (args.out / f"{tag}-{index}.json").write_text(json.dumps(record, indent=1) + "\n")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": count,
                "failed": len(bad),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 1 if bad else 0


def run_all(spec: dict, args: argparse.Namespace) -> int:
    """Each workload in its own process, so each pays its own imports."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 1 if summary["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    for var in PIN_VARS:
        os.environ[var] = "1"
    (BENCH / "_work").mkdir(exist_ok=True)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BENCH / "_work")
    sys.path.insert(0, str(BENCH))
    return run_all(spec, args) if args.workload is None else run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
