"""The benchmark's own bookkeeping, on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import cProfile
import importlib
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bookkeeping as bk
import cli_cold
import worker
from lierep import CapExceeded
from workloads import Mismatch, Op

BENCH_DIR = Path(__file__).resolve().parent.parent


# -- tail percentile ----------------------------------------------------------

def test_tail_rank_leaves_ten_beyond():
    assert bk.tail_rank(10) is None
    assert bk.tail_rank(11) == (0, 1 - 10 / 11)
    idx, p = bk.tail_rank(46)
    assert idx == 35 and p == pytest.approx(0.7826, abs=1e-4)
    assert 46 - (idx + 1) == 10


def test_latency_summary_on_known_samples():
    samples = [float(x) for x in range(100, 0, -1)]
    lat = bk.latency_summary(samples)
    assert lat["tail_s"] == 90.0  # 91 .. 100 lie beyond it
    assert lat["tail_p"] == pytest.approx(0.9)
    assert lat["p50_s"] == 50.5
    assert lat["n"] == 100


def test_latency_summary_needs_more_than_ten_ops():
    with pytest.raises(ValueError):
        bk.latency_summary([1.0] * 10)


# -- self time by module ------------------------------------------------------

def test_aggregate_profile_sums_by_layer():
    files = {"/nowhere/pkg/alpha.py": "alpha",
             "/nowhere/lib/fractions.py": "fractions"}
    stats = {
        ("/nowhere/pkg/alpha.py", 1, "f"): (3, 3, 0.5, 0.9, {}),
        ("/nowhere/pkg/alpha.py", 9, "g"): (2, 5, 0.25, 0.3, {}),
        ("/nowhere/lib/fractions.py", 60, "__new__"): (7, 7, 0.125, 0.125, {}),
        ("/nowhere/pkg/other.py", 1, "h"): (1, 1, 4.0, 4.0, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 1.0, 1.0, {}),
    }
    self_s, per_function = bk.aggregate_profile(stats, files)
    assert self_s == {"alpha": 0.75, "fractions": 0.125}
    assert per_function[("/nowhere/pkg/alpha.py", 9, "g")] == (5, 0.3)
    assert ("/nowhere/pkg/other.py", 1, "h") not in per_function


def test_profiled_calls_are_attributed_to_their_module(tmp_path, monkeypatch):
    pkg = tmp_path / "benchpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "alpha.py").write_text(
        "def spin(n):\n    return sum(i * i for i in range(n))\n")
    (pkg / "beta.py").write_text(
        "from .alpha import spin\n\n"
        "def twice(n):\n    return spin(n) + spin(n)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    alpha = importlib.import_module("benchpkg.alpha")
    beta = importlib.import_module("benchpkg.beta")
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(3):
        beta.twice(2000)
    prof.disable()
    stats = pstats.Stats(prof).stats
    self_s, per_function = bk.aggregate_profile(
        stats, bk.layer_files([alpha, beta]))
    assert set(self_s) == {"alpha", "beta"}
    assert self_s["alpha"] > 0
    assert per_function[bk.code_key(alpha.spin)][0] == 6
    assert per_function[bk.code_key(bk.resolve("benchpkg.beta:twice"))][0] == 3


def test_named_functions_resolve():
    targets = [t for ts in bk.CALL_COUNTS.values() for t in ts]
    for target in targets + list(bk.FAMILIES.values()):
        assert bk.code_key(bk.resolve(target))[2]


# -- failed-op accounting -----------------------------------------------------

def _raise(exc):
    def run(_span):
        raise exc
    return run


def test_failed_ops_are_counted_and_the_run_goes_on():
    ops = [Op("f", "ok", lambda _span: None),
           Op("f", "wrong", _raise(Mismatch("oracle says no"))),
           Op("f", "cap", _raise(CapExceeded("too big"))),
           Op("f", "crash", _raise(ZeroDivisionError("boom")))]
    records, _wall, _extra = worker.run_in_process(ops, 8)
    t = bk.tally(r.outcome for r in records)
    assert [r.outcome for r in records[:4]] == [
        bk.OK, bk.MISMATCH, bk.REFUSED, bk.ERROR]
    assert t.attempted == 8 and t.failed == 6
    assert t.failed_ratio() == 0.75 and t.ok_ratio() == 0.25
    assert not t.correct


def test_a_refusal_is_a_failure_but_not_a_wrong_answer():
    t = bk.Tally()
    for outcome in (bk.OK, bk.OK, bk.REFUSED):
        t.add(outcome)
    assert t.failed == 1 and t.correct


def test_judge_against_references():
    ref = {"exit_code": 0, "stdout": "x\n"}
    assert cli_cold.judge(ref, 0, "x\n")[0] == bk.OK
    assert cli_cold.judge(ref, 0, "y\n")[0] == bk.MISMATCH
    assert cli_cold.judge(ref, 2, "")[0] == bk.REFUSED
    assert cli_cold.judge(ref, 3, "")[0] == bk.ERROR
    entries = {"exit_code": 0, "entries": {"1": 1}}
    assert cli_cold.judge(entries, 0, '{"entries": {"1": 1}}')[0] == bk.OK
    assert cli_cold.judge(entries, 0, '{"entries": {"3": 1}}')[0] == \
        bk.MISMATCH
    assert cli_cold.judge(entries, 0, "not json")[0] == bk.MISMATCH


def test_reference_mismatch_from_a_real_query():
    query = "roots G2"
    refs = cli_cold.load_references()
    tampered = {query: dict(refs[query], stdout=refs[query]["stdout"] + " ")}
    records, _wall, _extra = worker.run_cli([query], tampered, 1)
    assert records[0].outcome == bk.MISMATCH
    records, _wall, _extra = worker.run_cli([query], refs, 1)
    assert records[0].outcome == bk.OK


def test_every_query_has_a_reference():
    refs = cli_cold.load_references()
    assert set(refs) == set(cli_cold.QUERIES)
    assert "entries" in refs[cli_cold.DEFECT_QUERY]


# -- the benchmark without the program ----------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "tensor-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
