"""kbeq benchmark: seeded workloads, verified outputs, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roundtrip --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Load model: a closed loop with one caller, one operation at a time.  Each
workload runs in its own process; the ``window`` workload adds one CLI child
at a time.  Operations run in rounds (one round is the workload's fixed,
seeded operation list) until ``--seconds`` have passed at a round boundary.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the same untraced rounds, then one traced round, and
reports the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it are a human-readable report.  A full record
(machine, versions, commit, seed, sample counts) goes to
``.perfbench_out/results/``, and traced spans to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# a failed operation's latency sorts as +inf; JSON carries the largest float
FAILED_LATENCY_MS = sys.float_info.max


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("roundtrip", "window", "float-hermitian", "census", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int,
                   help="measuring time; BENCHMARK.json's run_seconds by default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kbeq").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kbeq_commit": _commit(),
        "kbeq_source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_times(name: str, seed: int, work_dir: Path) -> list[float]:
    """Process start to inputs ready, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(work_dir)],
            capture_output=True, text=True, timeout=150)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        times.append(float(res.stdout.split()[-1]) - t0)
    return times


def run_rounds(wl, seconds: float, rounds: int | None = None):
    """Closed loop over the workload's operations, whole rounds at a time."""
    import workloads

    outcomes, round_walls = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        outcomes += [workloads.run_op(op) for op in wl.ops]
        round_walls.append(perf_counter() - t0)
        done = len(round_walls)
        if (done == rounds if rounds is not None
                else perf_counter() - start >= seconds):
            return outcomes, round_walls


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: ``ceil(q n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcomes, setups: list[float], own_rss_mb: float) -> tuple[dict, dict]:
    ok = [o for o in outcomes if o.ok]
    busy = sum(o.seconds for o in outcomes)
    lat = [o.seconds * 1000 if o.ok else math.inf for o in outcomes]
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    rss = max([own_rss_mb] + [o.child_rss_mb for o in outcomes])
    values = {
        "setup_s": statistics.median(setups),
        "ok_ops_per_s": len(ok) / busy if busy else 0.0,
        "op_p50_ms": p50 if p50 != math.inf else FAILED_LATENCY_MS,
        "op_p90_ms": p90 if p90 != math.inf else FAILED_LATENCY_MS,
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setups), "ok_ops_per_s": len(outcomes),
               "op_p50_ms": len(lat), "op_p90_ms": len(lat),
               "peak_rss_mb": 1 + sum(1 for o in outcomes if o.child_rss_mb)}
    return values, samples


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------


def run_one(args, spec: dict) -> int:
    import tracing
    import workloads

    env = environment(args.seed)
    work_dir = OUT / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    setups = [] if args.trace else setup_times(args.workload, args.seed, work_dir)

    wl = cls(args.seed, work_dir)
    wl.setup()
    outcomes, walls = run_rounds(wl, args.seconds)
    lines = [f"# kbeq benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             f"# environment: {json.dumps(env, sort_keys=True)}",
             f"# rounds={len(walls)} ops/round={len(wl.ops)} "
             f"round walls (s): {', '.join(f'{w:.3f}' for w in walls)}"]

    if args.trace:
        # one traced round on the same inputs; its wall over the last
        # untraced round's wall is the tracing overhead
        tracer = tracing.Tracer()
        tracing.install(tracer)
        wl.tracer = tracer
        traced, traced_walls = run_rounds(wl, args.seconds, rounds=1)
        outcomes += traced
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        values = tracing.per_layer_metrics(
            tracer.spans, traced_walls[0] / walls[-1], wl.child_walls)
        samples = {"rounds_traced": 1, "spans": len(tracer.spans)}
        expected = spec["per_layer"]
        lines += ["# per-layer table (self time excludes child spans):",
                  *("#   " + row for row in tracing.layer_table(tracer.spans)),
                  f"# spans written to {spans_path}"]
    else:
        values, samples = end_to_end(outcomes, setups, _own_rss_mb())
        expected = spec["end_to_end"]

    missing = [m["name"] for m in expected if m["name"] not in values]
    if missing:
        return _fail(f"BENCHMARK.json names metrics this run has no value for: {missing}")
    failures = [o.reason for o in outcomes if not o.ok]
    attempted, failed = len(outcomes), len(failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in expected}
    lines.append(f"# {'metric':<28}{'value':>16}  {'unit':<8}samples")
    for name, m in metrics.items():
        lines.append(f"#   {name:<26}{m['value']:>16.6g}  {m['unit']:<8}"
                     f"{samples.get(name, '')}")
    uncompared = {n: v for n, v in values.items() if n not in metrics}
    for name, value in uncompared.items():
        lines.append(f"#   {name:<26}{value:>16.6g}  (not compared)")
    lines.append(f"#   {'fail_ratio':<26}{failed / attempted:>16.6g}  "
                 f"{'ratio':<8}{attempted}")
    for reason in sorted(set(failures)):
        lines.append(f"# failure x{failures.count(reason)}: {reason}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "rounds": len(walls),
              "ops_per_round": len(wl.ops), "round_walls_s": walls,
              "metrics": metrics, "uncompared_metrics": uncompared,
              "samples": samples,
              "op_seconds": [o.seconds for o in outcomes],
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "failures": failures}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    lines.append(f"# record written to {path}")

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    rows = {}
    for name in ("roundtrip", "window", "float-hermitian", "census"):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        rows[name] = json.loads(res.stdout.strip().splitlines()[-1])
    print("# summary")
    for name, row in rows.items():
        ratio = row["failed"] / row["attempted"]
        print(f"#   {name:<16} correct={row['correct']} fail_ratio={ratio:.4g} "
              + " ".join(f"{k}={m['value']:.6g}{m['unit']}"
                         for k, m in row["metrics"].items()))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "kbeq" / "__init__.py").is_file():
        return _fail(f"kbeq sources not found under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import kbeq

    if Path(kbeq.__file__).resolve().parent != (SRC / "kbeq").resolve():
        return _fail(f"imported kbeq from {kbeq.__file__}, not from {SRC}")
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
