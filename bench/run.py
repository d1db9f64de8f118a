"""rigidflex benchmark: seeded workloads, closed loop, checked outputs.

    python3 bench/run.py --workload {scenarios,certify,basin,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process issues each operation after the previous
one completes (``all`` runs the three workloads in turn).  With
``--trace 0`` the last stdout line reports the end-to-end metrics, in
contention-normalised reference time (see ``speed.py``); with ``--trace 1``
every public rigidflex function is wrapped in a span recorder (see
``spans.py``) and the last line reports the per-layer metrics instead.
Every output is checked; the exit code is 1 when a check failed, 2 when the
benchmark could not start.

BLAS threads are pinned to 1 in this process's environment before numpy is
imported, so ``eigvalsh``/``lstsq`` do not compete for cores with the loop.
"""

import os
import time

T_START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

WORKLOADS = ("scenarios", "certify", "basin")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5           # fresh-interpreter set-ups per run; setup_s is their median

# Descriptive names of each workload's operation timings:
# name -> (timing label, scale, unit, percentile)
NAMED_TIMINGS = {
    "scenarios": {"scenario_s_p50": ("scenario", 1.0, "s", 50),
                  "scenario_s_p90": ("scenario", 1.0, "s", 90)},
    "certify": {"analyze_ms_p50": ("analyze", 1e3, "ms", 50),
                "analyze_ms_p99": ("analyze", 1e3, "ms", 99),
                "polish_ms_p50": ("polish", 1e3, "ms", 50),
                "catalog_ms_p50": ("catalog", 1e3, "ms", 50)},
    "basin": {"member_ms_p50": ("member", 1e3, "ms", 50),
              "member_ms_p90": ("member", 1e3, "ms", 90)},
}

# Per-pass work counts: metric name -> key in the per-operation counts.
WORK_COUNTS = {
    "work.steps": "steps",
    "work.rhs_evals": "control.leader_control",
    "work.edge_states_calls": "control.edge_states",
    "work.records": "records",
    "work.events": "events",
    "work.analyze_calls": "stability.analyze",
    "work.newton_iterations": "newton_iterations",
    "work.root_seeds_tried": "oracle.root",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or all three in turn in this process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time (used internally)")
    return p.parse_args(argv)


def percentile(values, p):
    """Linear-interpolated percentile; the sample count beyond it."""
    xs = sorted(values)
    if not xs:
        return float("nan"), 0
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo), int(len(xs) * (100 - p) / 100.0)


def machine_block(load_at_start) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:           # show_config layout differs across numpy versions
        blas = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "rigidflex").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": list(load_at_start),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def probe_setup(workload, seed) -> float:
    """Set-up time of a fresh interpreter running this script, in
    reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop state shared by the plain and traced runs.

    ``raw[label]`` and ``norm[label]`` hold every timing of one kind of
    program call, in seconds and in reference seconds."""

    def __init__(self, workload, speedometer):
        self.wl = workload
        self.speed = speedometer
        self.raw = defaultdict(list)
        self.norm = defaultdict(list)
        self.work = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def run(self, idx):
        """One operation on pool item ``idx``: (outcome, busy reference
        seconds), or None if it raised."""
        from workloads import Clock

        self.attempted += 1
        clock = Clock(self.speed)
        try:
            out = self.wl.run(self.wl.items[idx], clock)
        except Exception:   # an operation that raises is a failed operation
            self.failed += 1
            self.problems.append(f"item {idx}: {traceback.format_exc(limit=3).strip()}")
            return None
        problems = list(out.failures)
        if self.digests.setdefault(idx, out.digest) != out.digest:
            problems.append(f"item {idx}: outputs differ from an earlier run of the same input")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        for label, raw, norm in clock.samples:
            self.raw[label].append(raw)
            self.norm[label].append(norm)
        self.work += out.work
        return out, sum(n for label, _, n in clock.samples if label in self.wl.busy_labels)


def run_plain(loop: Loop, seconds):
    """Cycle the pool until ``seconds`` have passed, and at least once
    past its end so every run compares one repeated input."""
    n = len(loop.wl.items)
    start, k = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or k <= n:
        loop.run(k % n)
        k += 1


def run_traced(loop: Loop, seconds, tracer):
    """Whole passes over the pool; each input runs untraced, then traced.

    Returns the exact work counts of one pass, the output-derived work of
    every traced operation, and the untraced and traced busy reference
    seconds.
    """
    from spans import op_counts

    n = len(loop.wl.items)
    first_pass, traced_work = {}, Counter()
    untraced = traced = 0.0
    start = time.perf_counter()
    while not first_pass or time.perf_counter() - start < seconds:
        for idx in range(n):
            plain = loop.run(idx)
            tracer.install()
            mark = tracer.mark()
            try:
                done = loop.run(idx)
            finally:
                tracer.uninstall()
            if plain is None or done is None:
                continue
            out, busy = done
            counts = op_counts(tracer, mark) + out.work
            expected = first_pass.setdefault(idx, counts)
            if expected != counts:
                loop.failed += 1
                loop.problems.append(f"item {idx}: work counts changed between passes: "
                                     f"{dict(expected - counts)} vs {dict(counts - expected)}")
            traced_work += out.work
            untraced += plain[1]
            traced += busy
        if not first_pass:      # every operation failed; stop after one pass
            break
    return sum(first_pass.values(), Counter()), traced_work, untraced, traced


def named_metrics(name, loop: Loop, timings) -> dict:
    """The workload's metrics under their descriptive names, from
    ``timings`` (``loop.norm`` or ``loop.raw``): value, unit, sample count,
    and whether at least ten samples lie beyond a percentile."""
    busy = sum(sum(timings[label]) for label in loop.wl.busy_labels)
    units = len(timings[loop.wl.op])
    out = {}
    for metric, (label, scale, unit, p) in NAMED_TIMINGS[name].items():
        value, beyond = percentile(timings[label], p)
        out[metric] = (value * scale, unit, len(timings[label]), p == 50 or beyond >= 10)
    if name == "scenarios":
        out["rk4_steps_per_s"] = (loop.work["steps"] / sum(timings["scenario"]), "1/s",
                                  len(timings["scenario"]), True)
    elif name == "certify":
        out["certify_per_s"] = (units / busy, "1/s", units, True)
    else:
        out["basin_members_per_s"] = (units / busy, "1/s", units, True)
        out["rk4_steps_per_s"] = (loop.work["steps"] / sum(timings["integrate"]), "1/s",
                                  len(timings["integrate"]), True)
    return out


def declared_metrics(trace) -> list | None:
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args, name, workload, workdir, own_setup, load_at_start) -> dict | None:
    """Set up (unless ``workload`` is given), run and check one workload and
    print its report.  Returns the result object, or None when the benchmark
    could not start."""
    import workloads

    try:
        workload = workload or workloads.WORKLOADS[name](args.seed, workdir,
                                                         workloads.load_references())
        setups = own_setup + [probe_setup(name, args.seed)
                              for _ in range(SETUP_SAMPLES - len(own_setup))]
    except Exception:           # broken or missing program: no result
        traceback.print_exc()
        return None

    with speed.Speedometer(speed.NUMPY) as speedometer:
        workdir.mkdir(parents=True, exist_ok=True)
        loop = Loop(workload, speedometer)
        try:
            if args.trace:
                from spans import PER_LAYER, Tracer, layer_metrics
                tracer = Tracer()
                pass_counts, traced_work, untraced, traced = run_traced(loop, args.seconds, tracer)
            else:
                run_plain(loop, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layer_metrics(tracer, traced_work)
        values.update({metric: float(pass_counts[key]) for metric, key in WORK_COUNTS.items()})
        values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit, _, _ in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{args.seed}.npz")
    else:
        op = loop.norm[workload.op]
        busy = sum(sum(loop.norm[label]) for label in workload.busy_labels)
        metrics = {
            "op_ms_p50": {"value": statistics.median(op) * 1e3 if op else 0.0, "unit": "ms"},
            "ops_per_s": {"value": len(op) / busy if busy else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        loop.problems.append(f"reported metrics {sorted(metrics)} differ from BENCHMARK.json")
        loop.failed += 1

    named, raw = {}, {}
    if not args.trace and loop.norm[workload.op]:
        named = named_metrics(name, loop, loop.norm)
        raw = named_metrics(name, loop, loop.raw)
    named["setup_s"] = (statistics.median(setups), "s", len(setups), True)
    named["fail_ratio"] = (loop.failed / loop.attempted if loop.attempted else 0.0, "ratio",
                           loop.attempted, True)
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                            1, True)
    named["calibration_us_p50"] = (speedometer.median() * 1e6, "us", len(speedometer.durations),
                                   True)
    machine = machine_block(load_at_start)

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"{loop.attempted} operations, {loop.failed} failed")
    for problem in loop.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("  times in reference seconds (see speed.py); raw wall-clock values in brackets")
    for metric, (value, unit, n, resolved) in named.items():
        note = "" if resolved else "  (fewer than 10 samples beyond this percentile)"
        was = f"[{raw[metric][0]:.6g}]" if metric in raw else ""
        print(f"  {metric:<24} {value:>14.6g} {was:<14} {unit:<6} n={n}{note}")
    if args.trace:
        moves = {metric: why for metric, _, _, why in PER_LAYER}
        for metric, m in metrics.items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']:<10} moves {moves[metric]}")
    print("machine " + json.dumps(machine))

    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "setup_samples_s": setups,
                    "named": {k: list(v) for k, v in named.items()},
                    "named_raw": {k: list(v) for k, v in raw.items()},
                    "problems": loop.problems, "result": result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "rigidflex" / "__init__.py").is_file():
        print(f"benchmark: rigidflex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    with speed.Speedometer(speed.INTERPRETER) as setup_meter:
        try:
            import workloads
            first = workloads.WORKLOADS[names[0]](args.seed, workdir, workloads.load_references())
        except Exception:       # broken or missing program: no result
            traceback.print_exc()
            return 2
        _, own_setup = setup_meter.split(0, time.perf_counter() - T_START)
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    results = {}
    for k, name in enumerate(names):
        result = run_workload(args, name, first if k == 0 else None, workdir,
                              [own_setup] if k == 0 else [], load_at_start)
        if result is None:
            return 2
        results[name] = result
    if len(names) > 1:          # one line for the whole set
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
