"""thermoecon benchmark: end-to-end metrics per workload, layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload fit_long_record --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` measures the end-to-end metrics named in BENCHMARK.json.
`--trace 1` measures half the time untraced and half traced and reports
the layer metrics: calls and self time per op of each traced function,
the process floor, and the tracing overhead. Each run also feeds
deliberately wrong results to the output checks, which must reject all
of them. The last line of standard output is the result as one JSON
object; `--workload all` runs every workload both ways and prints a table.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"  # per-run scratch directories and span files

SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
FLOOR_REPS = 3  # repetitions of each process-floor probe
MIN_SAMPLES = 100  # p90 needs at least 10 samples beyond it


@dataclass
class Loop:
    # successful ops only; a typed array keeps peak RSS from growing with op count
    latencies_ns: array.array = field(default_factory=lambda: array.array("q"))
    attempted: int = 0
    failed: int = 0
    busy_ns: int = 0  # time inside run_op, failed ops included

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (self.busy_ns / 1e9)


def timed_loop(workload, seconds: float, tracer=None) -> Loop:
    """Closed loop, one client: the next op starts when the last one ends."""
    loop = Loop()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while clock() < deadline:
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result = workload.run_op(i)
        except (Exception, SystemExit):  # a raising op is a failed op
            traceback.print_exc()
            result = None
        t1 = clock()
        try:
            ok = result is not None and workload.check(i, result)
        except Exception:
            traceback.print_exc()
            ok = False
        loop.attempted += 1
        loop.busy_ns += t1 - t0
        if ok:
            loop.latencies_ns.append(t1 - t0)
        else:
            loop.failed += 1
        i += 1
    return loop


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(name: str, seed: int, root: Path) -> float:
    """Seconds from spawning a fresh workload process until it is ready to loop."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=root) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe for {name} failed with code {proc.returncode}")
    return elapsed


def process_floor(ctx, commands) -> dict[str, float]:
    """Median wall time in ms of each probe, each run as a new process."""
    exe, out = sys.executable, str(ctx.work / "floor")
    probes = {
        "process.python_ms": [exe, "-c", "pass"],
        "process.import_numpy_ms": [exe, "-c", "import numpy"],
        "process.import_thermoecon_ms": [exe, "-c", "import thermoecon.cli"],
    }
    for command in commands:
        probes[f"cli.{command[0]}.wall_ms"] = [exe, "-m", "thermoecon.cli", *command, "--out", out]
    times: dict[str, list[float]] = {name: [] for name in probes}
    for _ in range(FLOOR_REPS):
        for name, argv in probes.items():
            t0 = time.perf_counter()
            subprocess.run(argv, env=ctx.env, cwd=ctx.root, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times[name].append((time.perf_counter() - t0) * 1e3)
    return {name: statistics.median(t) for name, t in times.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_workload(args, root: Path, spec: dict) -> dict:
    import numpy

    import tracing
    from workloads import CLI_COMMANDS, WORKLOADS, Context

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ctx = Context(root=root, work=work, seed=args.seed, env=child_env(root))
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](ctx).setup()
            print("ready", flush=True)
            return {}
        setups = [] if args.trace else [time_setup(args.workload, args.seed, root)
                                        for _ in range(SETUP_PROBES)]
        workload = WORKLOADS[args.workload](ctx)
        workload.setup()
        info = {}
        if args.trace:
            base = timed_loop(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            workload.start_trace(tracer)
            try:
                loop = timed_loop(workload, args.seconds / 2, tracer)
            finally:
                workload.stop_trace(tracer)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            values = tracing.layer_metrics(tracer.spans, loop.attempted)
            values.update(process_floor(ctx, CLI_COMMANDS))
            values["trace.overhead_ops_per_s"] = base.ops_per_s - loop.ops_per_s
            values["trace.spans_per_op"] = len(tracer.spans) / loop.attempted
            attempted, failed = base.attempted + loop.attempted, base.failed + loop.failed
        else:
            loop = timed_loop(workload, args.seconds)
            peak_kb = workload.peak_rss_kb()  # before sorting latencies allocates
            if len(loop.latencies_ns) < 2:
                raise RuntimeError(f"{loop.failed} of {loop.attempted} ops failed; no latencies")
            p50, p90 = (statistics.quantiles(loop.latencies_ns, n=10)[i] / 1e6 for i in (4, 8))
            values = {
                "latency_p90_ms": p90,
                "peak_rss_mb": peak_kb / 1024.0,
                "setup_s": statistics.median(setups),
            }
            info = {"ops_per_s": (loop.ops_per_s, "1/s"), "latency_p50_ms": (p50, "ms")}
            attempted, failed = loop.attempted, loop.failed
        faults = list(workload.faults())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }
    print("environment: " + json.dumps(environment))
    if not args.trace:
        print(f"setup probes (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"samples: {attempted - failed} ok of {attempted} attempted; error_rate {failed / attempted:.6g}")
    samples = len(loop.latencies_ns)
    if not args.trace and samples < MIN_SAMPLES:
        print(f"warning: {samples} latency samples leave fewer than 10 beyond p90", file=sys.stderr)
    for label, rejected in faults:
        print(f"self-test: {label}: {'rejected' if rejected else 'NOT REJECTED'}")
    reference_ok = getattr(workload, "reference_ok", True)
    if not reference_ok:
        print("error: reference outputs failed validation", file=sys.stderr)

    names = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:36s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        print(f"{args.workload:16s} {name:36s} {value:14.6g} {unit} (not gated)")
    return {
        "correct": failed == 0 and reference_ok and all(r for _, r in faults),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args, root: Path, spec: dict) -> dict:
    """Every workload untraced then traced, one child process at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} --trace {trace} exited with {proc.returncode}")
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "thermoecon" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root (needs src/thermoecon and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        parser.error(f"--workload must be one of {', '.join(known)} or all")
    if args.workload == "all":
        result = run_all(args, root, spec)
    else:
        sys.path.insert(0, str(src))
        import thermoecon

        if Path(thermoecon.__file__).resolve().parent != (src / "thermoecon").resolve():
            print(f"error: imported thermoecon from {thermoecon.__file__}, not {src}", file=sys.stderr)
            return 2
        result = run_workload(args, root, spec)
        if args.setup_probe:
            return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
