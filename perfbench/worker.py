"""One workload run in a fresh interpreter, so lierep's memo tables start
empty.  Started by run.py; prints one JSON line.

Usage: python3 worker.py WORKLOAD SEED --ops N [--setup-only]
                         [--deadline S] [--profile DIR] [--calibrate]

Set-up generates the inputs of N ops; --setup-only stops after it.  The
timed phase runs the N ops, but starts none after S seconds.  --profile
records cProfile statistics and per-call spans and writes them to DIR.
--calibrate samples the machine's speed between ops (see speed.py) and
reports the slowdown; the time spent sampling is left out of the timed
phase's wall time.
"""

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bookkeeping as bk  # noqa: E402
import speed  # noqa: E402
from bookkeeping import ERROR, MISMATCH, OK, REFUSED  # noqa: E402


class Spans:
    """Per-call spans kept in memory: (name, start, end, op id)."""

    def __init__(self):
        self.rows = []
        self.op_id = 0

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, start, time.perf_counter(), self.op_id))

    def totals(self):
        out = {}
        for name, start, end, _op in self.rows:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


_NULL = nullcontext()


def _no_span(_name):
    return _NULL


def _layer_modules():
    import fractions
    import importlib
    mods = [importlib.import_module(f"lierep.{name}")
            for name in bk.LIEREP_LAYERS]
    return bk.layer_files(mods + [fractions])


def _profile_metrics(stats, cumulative=False):
    """Self time per layer and the named call counts from merged pstats
    statistics; with `cumulative`, also each family's cumulative time."""
    self_s, per_function = bk.aggregate_profile(stats, _layer_modules())
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in bk.LAYERS}
    out["lierep.self_s"] = sum(self_s.get(layer, 0.0)
                               for layer in bk.LIEREP_LAYERS)
    for metric, targets in bk.CALL_COUNTS.items():
        out[metric] = sum(
            per_function.get(bk.code_key(bk.resolve(t)), (0, 0.0))[0]
            for t in targets)
    if cumulative:
        for name, target in bk.FAMILIES.items():
            key = bk.code_key(bk.resolve(target))
            out[f"{name}_s"] = per_function.get(key, (0, 0.0))[1]
    return out


def _should_stop(stop, parent):
    """Past the deadline, or the process that started this one is gone."""
    return (stop is not None and time.perf_counter() >= stop) \
        or os.getppid() != parent


def run_in_process(ops, count, deadline=None, profile_dir=None, tag="",
                   probe=None):
    from lierep import CapExceeded
    from workloads import Mismatch

    def attempt(op):
        try:
            op(span)
        except Mismatch as exc:
            return MISMATCH, str(exc)
        except CapExceeded as exc:
            return REFUSED, str(exc)
        except Exception as exc:  # every other failure counts; the run goes on
            return ERROR, f"{type(exc).__name__}: {exc}"
        return OK, ""

    spans = Spans() if profile_dir else None
    span = spans.span if spans else _no_span
    prof = cProfile.Profile() if profile_dir else None
    records = []
    parent = os.getppid()
    start = time.perf_counter()
    stop = start + deadline if deadline is not None else None
    if prof:
        prof.enable()
    for i in range(count):
        if _should_stop(stop, parent):
            break
        op = ops[i % len(ops)]
        if spans:
            spans.op_id = i
        t0 = time.perf_counter()
        outcome, detail = attempt(op)
        seconds = time.perf_counter() - t0
        records.append(bk.OpRecord(op.family, op.stratum, seconds, outcome,
                                   detail))
        if probe:
            probe.after_op(seconds)
    wall = _op_wall(start, probe)
    if prof:
        prof.disable()
    extra = {}
    if profile_dir:
        stats = pstats.Stats(prof)
        stats.dump_stats(str(profile_dir / f"{tag}.prof"))
        extra = _profile_metrics(stats.stats)
        extra.update({f"{name}_s": s for name, s in spans.totals().items()})
        _write_spans(profile_dir / f"{tag}-spans.json", spans.rows)
    return records, wall, extra


def run_cli(queries, refs, count, deadline=None, profile_dir=None, tag="",
            probe=None):
    import cli_cold
    env = cli_cold.child_env(SRC)
    spans = Spans() if profile_dir else None
    span = spans.span if spans else _no_span
    records = []
    prof_files = []
    parent = os.getppid()
    start = time.perf_counter()
    stop = start + deadline if deadline is not None else None
    for i in range(count):
        if _should_stop(stop, parent):
            break
        query = queries[i % len(queries)]
        prof_path = None
        if profile_dir:
            spans.op_id = i
            prof_path = profile_dir / f"{tag}-child{i}.prof"
            prof_files.append(prof_path)
        family = "cli." + query.split()[0]
        t0 = time.perf_counter()
        with span(family):
            try:
                code, out = cli_cold.run_query(query, env, prof_path)
                outcome, detail = cli_cold.judge(refs[query], code, out)
            except Exception as exc:  # e.g. a timeout; the run goes on
                outcome, detail = ERROR, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append(bk.OpRecord(family, query, seconds, outcome, detail))
        if probe:
            probe.after_op(seconds)
    wall = _op_wall(start, probe)
    extra = {}
    if profile_dir:
        stats = pstats.Stats(*[str(p) for p in prof_files if p.exists()])
        stats.dump_stats(str(profile_dir / f"{tag}.prof"))
        for p in prof_files:
            if p.exists():
                p.unlink()
        extra = _profile_metrics(stats.stats, cumulative=True)
        _write_spans(profile_dir / f"{tag}-spans.json", spans.rows)
    return records, wall, extra


def _op_wall(start, probe):
    """Wall time since `start`, less the time the probe spent sampling."""
    if probe:
        probe.finish()
        return time.perf_counter() - start - probe.spent
    return time.perf_counter() - start


def _write_spans(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "op"], "spans": rows},
                  fh)


def setup(workload, seed, count):
    """Import lierep and generate the inputs of `count` ops; returns what
    the timed phase iterates over."""
    if workload == "cli-cold":
        import math
        import random
        import lierep.cli  # noqa: F401  what every query pays before its op
        import cli_cold
        refs = cli_cold.load_references()
        rng = random.Random(seed)
        queries = []
        # each pass is a fresh shuffle of the query list
        for _ in range(math.ceil(count / len(cli_cold.QUERIES))):
            one_pass = list(cli_cold.QUERIES)
            rng.shuffle(one_pass)
            queries += one_pass
        return queries, refs
    from workloads import WORKLOADS
    return WORKLOADS[workload](seed, count), None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--deadline", type=float, default=None)
    ap.add_argument("--profile", type=Path, default=None)
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args(argv)

    items, refs = setup(args.workload, args.seed, args.ops)
    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    probe = None
    if args.calibrate and args.workload == "cli-cold":
        import cli_cold
        probe = speed.child_probe(cli_cold.child_env(SRC))
    elif args.calibrate:
        probe = speed.in_process_probe()
    if args.workload == "cli-cold":
        records, wall, extra = run_cli(items, refs, args.ops, args.deadline,
                                       args.profile, tag, probe)
    else:
        records, wall, extra = run_in_process(items, args.ops, args.deadline,
                                              args.profile, tag, probe)
    speeds = {"slowdown": probe.slowdown(),
              "speed_samples": probe.samples} if probe else {}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures = [f"{r.family} {r.stratum}: {r.outcome}: {r.detail}"
                for r in records if r.outcome != OK]
    mix = {}
    for r in records:
        count, total = mix.get(f"{r.family}/{r.stratum}", (0, 0.0))
        mix[f"{r.family}/{r.stratum}"] = (count + 1, total + r.seconds)
    print(json.dumps({
        "first_op": first_op,
        "wall_s": wall,
        "latencies_s": [r.seconds for r in records],
        "outcomes": [r.outcome for r in records],
        "mix": mix,
        "failures": failures[:20],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (children if args.workload == "cli-cold" else own)
        / 1024,
        "profile": extra,
        **speeds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
