"""permsym benchmark: closed-loop CLI workloads and a traced layer replay.

    python3 perfbench/run.py --workload query --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is taken from
``src/``.  With ``--trace 0`` one client runs the workload's seeded
commands, one ``permsym`` process at a time, checking every answer, and
repeats whole passes while another pass still fits in ``--seconds``.
With ``--trace 1`` the layer replay (``replay.py``) runs once untraced
and once traced in fresh interpreters, and the per-layer figures come
from the traced one.  The last stdout line is the JSON result.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 10
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 150
# cmd_tail_s is this percentile of every command in the run.  The slowest
# 15-20% of each pass are its heavy commands (every table command, the
# three lattice commands of query, R(3,3) and the largest canonical
# samples), so p85 falls among them whether a run makes one pass or ten.
TAIL_PERCENTILE = 85


def entry_point():
    """`module:function` of the `permsym` console script, from pyproject."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["permsym"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class Child:
    """One finished subprocess: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, stdin=None):
        out, err = [], []
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), text=True,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
                   threading.Thread(target=lambda: err.append(proc.stderr.read()))]
        if stdin is not None:
            readers.append(threading.Thread(target=self._feed, args=(proc.stdin, stdin)))
        for t in readers:
            t.start()
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.seconds = time.perf_counter() - start
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
        self.code = proc.returncode
        self.out = "".join(out)
        self.err = "".join(err)
        self.rss_mb = usage.ru_maxrss / 1024.0

    @staticmethod
    def _feed(pipe, data):
        # A child that exits without reading its input closes the pipe.
        with contextlib.suppress(BrokenPipeError):
            pipe.write(data)
        with contextlib.suppress(BrokenPipeError):
            pipe.close()


def permsym_argv(args):
    module, func = entry_point().split(":")
    code = "import sys; from %s import %s; sys.exit(%s())" % (module, func, func)
    return [sys.executable, "-c", code] + list(args)


def judge(child, cmd):
    """None when the command answered right, else the reason."""
    if "Traceback (most recent call last)" in child.err:
        return "traceback: " + child.err.strip().splitlines()[-1]
    if child.code != cmd.code:
        return "exit %d, expected %d" % (child.code, cmd.code)
    try:
        return cmd.check(child.out)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        return "unreadable output (%s)" % exc


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, reason):
        self.attempted += 1
        if reason:
            self.failures.append("%s: %s" % (what, reason))
            print("FAIL %s: %s" % (what, reason), file=sys.stderr)


def measure_setup(tally, runs, times):
    """Time `permsym --help` in fresh interpreters; returns the peak RSS."""
    peak = 0.0
    for _ in range(runs):
        child = Child(permsym_argv(["--help"]))
        ok = child.code == 0 and child.out.startswith("usage:")
        tally.record("permsym --help", None if ok else "exit %d" % child.code)
        times.append(child.seconds)
        peak = max(peak, child.rss_mb)
    return peak


def run_workload(name, seed, seconds):
    sys.path.insert(0, str(SRC))
    import permsym

    ctx = argparse.Namespace(golden=oracle.Golden(ROOT), permsym=permsym)
    make_pass = workloads.WORKLOADS[name]
    rng = workloads.rng_for(name, seed)
    tally = Tally()
    Child(permsym_argv(["--help"]))  # writes bytecode caches; not timed
    # Half the set-up runs come before the passes and half after, so
    # their median spans the run rather than its first second.
    setup = []
    peak = measure_setup(tally, SETUP_RUNS // 2, setup)

    passes, times, per_cmd = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        pass_times = []
        for cmd in make_pass(ctx, rng):
            child = Child(permsym_argv(cmd.argv), cmd.stdin)
            tally.record("permsym " + " ".join(cmd.argv), judge(child, cmd))
            pass_times.append(child.seconds)
            peak = max(peak, child.rss_mb)
            per_cmd.append({"argv": cmd.argv[:2], "s": round(child.seconds, 4),
                            "rss_mb": round(child.rss_mb, 1)})
        passes.append(time.perf_counter() - start)
        times += pass_times
        if time.perf_counter() + statistics.median(passes) > deadline:
            break
    peak = max(peak, measure_setup(tally, SETUP_RUNS - SETUP_RUNS // 2, setup))
    setup_s = statistics.median(setup)

    n = len(times)
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    failed = len(tally.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (tail, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = {
        "setup_s": "median of %d `permsym --help`" % SETUP_RUNS,
        "wall_s": "median of %d passes of %d commands" % (len(passes), n // len(passes)),
        "cmd_p50_s": "median of %d commands" % n,
        "cmd_tail_s": "p%d of %d commands, %d beyond it"
                      % (TAIL_PERCENTILE, n, sum(1 for t in times if t > tail)),
        "peak_rss_mb": "largest child peak RSS",
    }
    print("workload %s, seed %d, closed loop with 1 client" % (name, seed))
    for key, (value, unit) in metrics.items():
        print("  %-12s %10.4f %-3s %s" % (key, value, unit, notes[key]))
    print("  %-12s %10.4f %-3s %d of %d commands failed"
          % ("fail_ratio", failed / tally.attempted, "", failed, tally.attempted))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "samples": n, "passes": passes,
              "commands": per_cmd, **environment()}
    print("record " + json.dumps(record))
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment():
    return {"python": platform.python_version(), "commit": commit(),
            "nproc": os.cpu_count()}


def measure_import(tally):
    """Median in-process `import permsym.cli` time in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import permsym.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        child = Child([sys.executable, "-c", code])
        ok = child.code == 0
        tally.record("import permsym.cli", None if ok else "exit %d" % child.code)
        if ok:
            times.append(float(child.out))
    return statistics.median(times) if times else 0.0


def run_traced(name, seed):
    import spans

    tally = Tally()
    Child(permsym_argv(["--help"]))  # writes bytecode caches; not timed
    results = {}
    for traced in (0, 1):
        child = Child([sys.executable, str(HERE / "replay.py"),
                       "--seed", str(seed), "--trace", str(traced)])
        if child.code != 0 or not child.out.strip():
            tally.record("replay --trace %d" % traced,
                         "exit %d: %s" % (child.code, child.err.strip()[-300:]))
            return tally, {}
        results[traced] = json.loads(child.out.strip().splitlines()[-1])
    replay = results[1]
    for reason in replay["failures"]:
        tally.record("replay", reason)
    tally.attempted += replay["attempted"] - len(replay["failures"])
    metrics = spans.layer_metrics(replay)
    metrics["cli.import_s"] = (measure_import(tally), "s")
    metrics["trace.overhead_s"] = (results[1]["wall_s"] - results[0]["wall_s"], "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, **environment(),
                   "wall_s": replay["wall_s"], "spans": replay["spans"]}, fh)
    print("traced replay %.3f s, untraced %.3f s, %d spans written to %s"
          % (results[1]["wall_s"], results[0]["wall_s"], len(replay["spans"]),
             path.relative_to(ROOT)))
    for key, (value, unit) in sorted(metrics.items()):
        print("  %-40s %12.6f %s" % (key, value, unit))
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "permsym" / "cli.py").is_file():
        print("error: no permsym sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics = run_traced(args.workload, args.seed)
    else:
        tally, metrics = run_workload(args.workload, args.seed, args.seconds)
    if not metrics:
        return 1
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
