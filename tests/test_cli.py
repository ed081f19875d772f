import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lierep.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_json_example(capsys):
    code, out, _ = run(capsys, "decompose", "A1", "3", "2", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "1"
    assert rec["entries"] == {"1": 1, "3": 1, "5": 1}


def test_minimal_type_example(capsys):
    code, out, _ = run(capsys, "minimal-type", "A1", "3", "1")
    assert code == 0
    assert out.strip() == "2"


def test_decompose_all_methods_agreement(capsys):
    code, out, _ = run(capsys, "decompose", "A2", "1,0", "0,1",
                       "--method=all", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["entries"] == {"0,0": 1, "1,1": 1}
    assert set(rec["agreement"]) == {"character", "steinberg", "klimyk",
                                     "prv"}


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "char", "A2", "1,1", "--json")
    _, second, _ = run(capsys, "char", "A2", "1,1", "--json")
    assert first == second


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "B2", "--json")
    rec = json.loads(out)
    assert rec["weyl_order"] == 8
    assert len(rec["positive_roots"]) == 4


def test_mult_command(capsys):
    code, out, _ = run(capsys, "mult", "A2", "1,1", "0,0")
    assert code == 0 and out.strip() == "2"


def test_prv_report(capsys):
    code, out, _ = run(capsys, "prv", "A2", "1,1", "1,1", "--json")
    rec = json.loads(out)
    mults = {tuple(r["word"]): r["mult"] for r in rec["reports"]}
    assert mults[(0, 1)] == 2 and mults[()] == 1


def test_hc_subcommands(capsys):
    code, out, _ = run(capsys, "hc", "A1", "equivalent", "3", "1",
                       "-5", "-1", "--json")
    assert code == 0
    assert json.loads(out)["equivalent"] is True
    code, out, _ = run(capsys, "hc", "A1", "class-zero", "2", "--json")
    rec = json.loads(out)
    assert rec["complete"] is False
    assert rec["mults"] == {"0": 1, "2": 1, "4": 1}
    code, out, _ = run(capsys, "hc", "A2", "count", "1,0", "0,1")
    assert out.strip() == "2"
    code, out, _ = run(capsys, "hc", "A1", "finite-dim", "3", "1", "--json")
    assert json.loads(out)["pair"] == ["3", "2"]


def test_shapovalov_det_command(capsys):
    code, out, _ = run(capsys, "shapovalov-det", "A1", "2", "--json")
    rec = json.loads(out)
    assert rec["ratio"] == "2"


def test_prv_det_command(capsys):
    code, out, _ = run(capsys, "prv-det", "A1", "4", "--json")
    rec = json.loads(out)
    assert rec["degree"] == 2
    assert rec["spectra"] == {"1": {"2": 1}}


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "A1", "bogus", "2")
    assert code == 1 and "bogus" in err
    code, _, err = run(capsys, "decompose", "A1", "1,2", "1")
    assert code == 1
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "weyl", "E8")
    assert code == 2 and "cap" in err


def test_threads_flag_rejected(capsys):
    code, _, _ = run(capsys, "roots", "A1", "--threads", "2")
    assert code == 1


def test_max_dim_raises_character_cap(capsys):
    query = ["decompose", "G2", "3,3", "2,2", "--max-dim", "100000", "--json"]
    code, out, err = run(capsys, *query, "--method=character")
    assert code == 0, err
    code, ref, _ = run(capsys, *query, "--method=klimyk")
    assert code == 0
    assert json.loads(out)["entries"] == json.loads(ref)["entries"]


@pytest.mark.parametrize("argv,flag,refused,accepted", [
    (("char", "G2", "1,1"), "--max-dim", "63", "64"),
    (("prv-det", "A2", "2,2"), "--max-dim", "26", "27"),
    (("weyl", "A4"), "--max-weyl", "119", "120"),
    (("shapovalov-det", "A1", "8"), "--max-height", "7", "8"),
    (("prv", "A2", "2,2", "2,2", "--kprv", "--word", "1"),
     "--max-dim", "728", "729"),
    (("hc", "A2", "class-zero", "3,3"), "--max-dim", "10", "343"),
])
def test_cap_errors_name_their_flag(capsys, argv, flag, refused, accepted):
    code, _, err = run(capsys, *argv, flag, refused)
    assert code == 2 and flag in err
    code, _, err = run(capsys, *argv, flag, accepted)
    assert code == 0, err


def test_kprv_cap_refusal_reaches_the_exit_code(capsys):
    query = ("prv", "A2", "2,2", "2,2", "--kprv", "--word", "1", "--json")
    code, out, err = run(capsys, *query)
    assert code == 2 and "--max-dim" in err and out == ""
    code, out, err = run(capsys, *query, "--max-dim", "729")
    assert code == 0, err
    assert [r["kprv_mult"] for r in json.loads(out)["reports"]] == [1]


@pytest.mark.parametrize("flag", ["--max-dim", "--max-weyl"])
def test_selftest_rejects_cap_flags(capsys, flag):
    code, out, err = run(capsys, "selftest", "--criteria", "clebsch-gordan",
                         flag, "1")
    assert code == 1 and flag in err and out == ""


def test_library_has_no_assert_statements():
    # invariants raise InvariantViolation; `python -O` strips asserts
    found = []
    for path in sorted((SRC / "lierep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_selftest_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "lierep.cli", "selftest", "--criteria",
         "clebsch-gordan,rank2-multiplicity-two"],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 2


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest",
                       "--criteria", "clebsch-gordan", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"][0]["passed"] is True
