"""The lierep benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
    tensor-corpus   stratified sample of the method-agreement pair corpus
    module-algebra  explicit-module, determinant, enveloping and Bruhat ops
    cli-cold        `lierep ... --json` queries, one fresh process each

Load is one client in a closed loop: one op at a time, the next one starts
when the previous one has finished.  Every op's answer is checked.

A run does a fixed number of ops, sized so that it takes about --seconds on
the reference machine; the same seed and --seconds give the same ops.

--trace 0 prints the end-to-end metrics, measured with tracing off; their
times are reported at the machine's reference speed (see speed.py).
--trace 1 prints the per-layer metrics from a traced run, and the tracing
overhead against an untraced run of the same ops.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's metadata.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bookkeeping as bk
import cli_cold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

WORKLOADS = ("tensor-corpus", "module-algebra", "cli-cold")

# Set-up is timed in this many extra fresh processes besides the measuring
# one; the median is reported at the slowdown of the measuring run.
SETUP_PROBES = 8
# Interpreter start and `import lierep.cli` are each timed this many times.
STARTUP_PROBES = 5

# Every run does a fixed amount of work, so that two commits, and two seeds,
# are compared on the same number of ops: --seconds times the nominal op
# rate of the workload on the 2-core reference machine (untraced, traced),
# rounded for cli-cold to whole passes over its query list, so that every
# cli-cold run has the same query mix and the same tail rank.
OPS_PER_S = {"tensor-corpus": (115.0, 18.0), "module-algebra": (62.0, 13.0),
             "cli-cold": (2.0, 0.77)}
# A worker starts no new op after this many times --seconds.
STOP_AFTER = 3

# A run must end within 180 s; workers get what is left of this.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Starts child processes within the run's time budget and stops them,
    with everything they started, if the budget runs out."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s

    def run(self, cmd, env=None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1:3]} exceeded the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(map(str, cmd[1:]))} exited "
                             f"{proc.returncode}: {err.strip()[-2000:]}")
        return t_spawn, time.monotonic() - t_spawn, out

    def worker(self, workload, seed, *args):
        cmd = [sys.executable, str(WORKER), workload, str(seed), *args]
        env = dict(os.environ, PYTHONHASHSEED="0")
        t_spawn, _elapsed, out = self.run(cmd, env)
        result = json.loads(out.strip().splitlines()[-1])
        # interpreter start to the first timed op
        result["setup_s"] = result["first_op"] - t_spawn
        return result


def _median_elapsed(runner, cmd, times):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(runner.run(cmd, env)[1] for _ in range(times))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def planned_ops(workload, seconds, traced):
    rate = OPS_PER_S[workload][1 if traced else 0]
    if workload == "cli-cold":
        per_pass = len(cli_cold.QUERIES)
        return max(1, round(seconds * rate / per_pass)) * per_pass
    return max(1, round(seconds * rate))


def _work_args(workload, seconds, traced):
    return ["--ops", str(planned_ops(workload, seconds, traced)),
            "--deadline", str(STOP_AFTER * seconds)]


def end_to_end(runner, workload, seed, seconds):
    """Every time is reported at the reference speed of the machine (see
    speed.py), the set-ups at the slowdown of the timed phase that follows
    them; the metadata keeps the times as measured."""
    args = _work_args(workload, seconds, False)
    setups = [runner.worker(workload, seed, *args, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = runner.worker(workload, seed, *args, "--calibrate")
    setups.append(result["setup_s"])
    slowdown = result["slowdown"]
    t = bk.tally(result["outcomes"])
    lat = bk.latency_summary(result["latencies_s"])
    wall = result["wall_s"] / slowdown
    metrics = {
        "setup_s": _metric(statistics.median(setups) / slowdown, "s"),
        "ops_per_s": _metric(t.succeeded / wall, "1/s"),
        "latency_p50_ms": _metric(lat["p50_s"] / slowdown * 1e3, "ms"),
        "latency_tail_ms": _metric(lat["tail_s"] / slowdown * 1e3, "ms"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "ops_ok_ratio": _metric(t.ok_ratio(), "ratio"),
    }
    meta = {"tail_p": lat["tail_p"], "tail_n": lat["n"],
            "slowdown": slowdown, "speed_samples": result["speed_samples"],
            "measured": {
                "setup_samples_s": setups,
                "timed_wall_s": result["wall_s"],
                "ops_per_s": t.succeeded / result["wall_s"],
                "latency_p50_ms": lat["p50_s"] * 1e3,
                "latency_tail_ms": lat["tail_s"] * 1e3}}
    return t, metrics, meta, result


def traced(runner, workload, seed, seconds):
    args = _work_args(workload, seconds, True)
    plain = runner.worker(workload, seed, *args)
    OUT.mkdir(exist_ok=True)
    result = runner.worker(workload, seed, *args, "--profile", str(OUT))
    # both runs are checked
    t = bk.tally(plain["outcomes"] + result["outcomes"])
    prof = result["profile"]
    metrics = {}
    for layer in bk.LAYERS + ("lierep",):
        metrics[f"{layer}.self_s"] = _metric(prof[f"{layer}.self_s"], "s")
    for name in bk.CALL_COUNTS:
        metrics[name] = _metric(prof[name], "count")
    for name in bk.FAMILIES:
        metrics[f"{name}_s"] = _metric(prof.get(f"{name}_s", 0.0), "s")
    metrics["cli.import_s"] = _metric(_median_elapsed(
        runner, [sys.executable, "-c", "import lierep.cli"], STARTUP_PROBES),
        "s")
    metrics["python.startup_s"] = _metric(_median_elapsed(
        runner, [sys.executable, "-c", "pass"], STARTUP_PROBES), "s")
    metrics["trace.ops_per_s"] = _metric(
        result["outcomes"].count(bk.OK) / result["wall_s"], "1/s")
    metrics["trace.overhead_x"] = _metric(
        result["wall_s"] / plain["wall_s"], "x")
    lat = bk.latency_summary(plain["latencies_s"])
    meta = {"tail_p": lat["tail_p"], "tail_n": lat["n"],
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": result["wall_s"],
            "profile": str((OUT / f"{workload}-seed{seed}.prof")
                           .relative_to(ROOT)),
            "spans": str((OUT / f"{workload}-seed{seed}-spans.json")
                         .relative_to(ROOT))}
    return t, metrics, meta, result


def _by_family(mix):
    out = {}
    for key, (count, _seconds) in mix.items():
        family = key.partition("/")[0]
        out[family] = out.get(family, 0) + count
    return out


def _commit():
    """HEAD of a git checkout at the benchmark's root, read without git;
    None when the checkout is no repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lierep").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "lierep" / "__init__.py").is_file():
        print(f"error: no lierep sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(BUDGET_S)
    measure = traced if args.trace else end_to_end
    try:
        t, metrics, meta, result = measure(runner, args.workload, args.seed,
                                           args.seconds)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(), "source_sha256": _source_digest(),
        "planned_ops": planned_ops(args.workload, args.seconds, args.trace),
        "outcomes": t.counts, "ops_failed_ratio": t.failed_ratio(),
        "ops_by_family": _by_family(result["mix"]),
        "ops_by_family_and_type": result["mix"],
        "failures": result["failures"],
    })
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(json.dumps({"correct": t.correct, "attempted": t.attempted,
                      "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
