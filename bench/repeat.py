"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload scenarios --seeds 1-10 [--trace 0] \
        [--out summary.json]

For every metric it reports the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) over the runs, and
for end-to-end metrics the bound from BENCHMARK.json next to it.  With
``--out`` the summary, with the machine block of the first run, is written
as JSON; a before/after comparison is two such files from two commits.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, machine = [], None
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        machine = machine or next((json.loads(line[len("machine "):]) for line in lines
                                   if line.startswith("machine ")), None)
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": proc.returncode, **result})
        values = {k: round(v["value"], 6) for k, v in result.get("metrics", {}).items()
                  if k in bounds or args.trace}
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
              f"attempted {result.get('attempted')} failed {result.get('failed')} {values}",
              flush=True)

    summary = {}
    for name in runs[0].get("metrics", {}):
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "bound": bounds.get(name), "values": values}
        if not args.trace or name.startswith("trace."):
            bound = f" bound {bounds[name]}" if name in bounds else ""
            print(f"{name:<20} median {med:12.6g}  spread {summary[name]['spread']:.4f}{bound}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[f"{args.workload}/trace{args.trace}"] = {"machine": machine, "metrics": summary,
                                                        "runs": runs}
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
