"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads table query --seeds 1-10 --seconds 25

For every workload and end-to-end metric it prints the median of the
runs and the distance between their first and third quartiles as a
share of that median, next to the metric's bound in BENCHMARK.json.
With ``--append FILE`` the medians (and one traced run per workload,
with ``--traced``) are added to FILE as one point of the benchmark's
trajectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(argv[1:]), done.stderr))
    lines = done.stdout.strip().splitlines()
    record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
    return json.loads(lines[-1]), record, took


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in config["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--append", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    point = {"date": time.strftime("%Y-%m-%d"), "seeds": [args.seeds[0], args.seeds[-1]],
             "seconds": args.seconds, "nproc": os.cpu_count(), "workloads": {}}
    for workload in args.workloads:
        values, longest, failed = {}, 0.0, 0
        for seed in args.seeds:
            result, record, took = bench(workload, seed, args.seconds, 0)
            longest = max(longest, took)
            failed += result["failed"]
            point.update({k: record[k] for k in ("python", "commit") if k in record})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {"runs": len(args.seeds), "failed": failed, "longest_run_s": longest}
        print("%s: %d runs, %d failed commands, longest run %.1f s"
              % (workload, len(args.seeds), failed, longest))
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "spread": spread,
                             "values": [round(x, 4) for x in xs]}
            print("  %-12s median %10.4f  spread %6.3f  bound %.2f  %s"
                  % (name, med, spread, bounds[name],
                     "ok" if name == "setup_s" or spread < bounds[name] / 3 else "WIDE"))
        if args.traced:
            result, _, took = bench(workload, args.seeds[0], args.seconds, 1)
            summary["traced"] = {k: m["value"] for k, m in result["metrics"].items()}
            print("  traced run %.1f s, %d failed" % (took, result["failed"]))
        point["workloads"][workload] = summary
    if args.append:
        points = json.loads(args.append.read_text()) if args.append.exists() else []
        points.append(point)
        args.append.write_text(json.dumps(points, indent=1) + "\n")


if __name__ == "__main__":
    main()
