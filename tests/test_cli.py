import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lierep.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPT = SRC.parent / "scripts" / "explore_extreme_components.py"


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


def test_negative_weights_are_positionals(capsys):
    code, out, err = run(capsys, "mult", "A2", "1,1", "-1,2")
    assert code == 0 and out.strip() == "1", err
    code, out, err = run(capsys, "mult", "A2", "1,1", "-3,0")
    assert code == 0 and out.strip() == "0", err


@pytest.mark.parametrize("argv", [
    ("hc", "A2", "invariants", "-1,2", "1,1"),
    ("hc", "A2", "invariants", "-1/2,2", "1,1"),
    ("hc", "A1", "invariants", "-1/2", "3"),
    ("hc", "A2", "finite-dim", "1,1", "-1,2"),
    ("hc", "A2", "equivalent", "1,1", "-1,2", "1,1", "-1,2"),
    ("hc", "A2", "count", "1,0", "-1,1"),
    ("hc", "A2", "class-zero", "-1,2"),
    ("mult", "A2", "2,0", "-2,2"),
    ("central-char", "A2", "-1,-1"),
])
def test_negative_weights_need_no_separator(capsys, argv):
    # the same answer as with "--" before the weights, which argparse
    # needed to read them until now
    cut = 3 if argv[0] == "hc" else 2
    code, out, err = run(capsys, *argv, "--json")
    assert code in (0, 1) and "arguments are required" not in err, err
    ref = run(capsys, *argv[:cut], "--json", "--", *argv[cut:])
    assert (code, out, err) == ref


def test_unknown_options_still_rejected(capsys):
    code, out, err = run(capsys, "mult", "A2", "1,1", "-x")
    assert code == 1 and out == ""
    code, out, err = run(capsys, "mult", "A2", "1,1", "0,0", "--bogus")
    assert code == 1 and "--bogus" in err


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


@pytest.mark.parametrize("depth", ["1", "-1,0", "1,0,0", "1.5,0"])
def test_shapovalov_bad_depth_exit_code(capsys, depth):
    code, out, err = run(capsys, "shapovalov-det", "A2", depth)
    assert code == 1 and out == "" and err.startswith("error:")


def test_shapovalov_non_integer_depth_is_a_typed_error(capsys):
    code, out, err = run(capsys, "shapovalov-det", "A2", "1.5,0")
    assert code == 1 and out == ""
    assert err == "error: root coordinates (3/2, 0) must be integers\n"


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "weyl", "E8")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("word", ["0", "3", "1,3"])
def test_prv_rejects_out_of_range_reflection(capsys, word):
    code, out, err = run(capsys, "prv", "A2", "1,0", "0,1", "--word", word)
    assert code == 1 and out == "" and "out of range" in err


def test_enveloping_rank_limit_is_a_usage_error(capsys):
    # a limit of the engine, not a cap: no flag raises it
    code, out, err = run(capsys, "prv-det", "E6", "0,0,0,0,0,0")
    assert code == 1 and out == "" and "rank <= 4" in err


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
    (("mult", "A2", "1,1", "0,0"), "--max-weyl", "5", "6"),
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


def _assert_statements(folder):
    found = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    return found


def test_library_has_no_assert_statements():
    # invariants raise InvariantViolation; `python -O` strips asserts
    assert _assert_statements(SRC / "lierep") == []


def test_scripts_have_no_assert_statements():
    assert _assert_statements(SCRIPT.parent) == []


def test_explore_script_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", str(SCRIPT), "--type", "G2", "--bound", "1"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("G2: translates with multiplicity >= 2")


def test_explore_script_reports_a_broken_bound(monkeypatch, capsys):
    import importlib.util
    spec = importlib.util.spec_from_file_location("explore", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    class Empty:
        entries = {}

    monkeypatch.setattr(script, "decompose", lambda rs, lam, mu: Empty())
    monkeypatch.setattr(sys, "argv", ["explore", "--type", "A2",
                                      "--bound", "0"])
    assert script.main() == 3
    err = capsys.readouterr().err
    assert "A2: (0, 0) (x) (0, 0) -> (0, 0): mult 0" in err


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


# the lierep modules a query has loaded once main() returns, each query in
# a fresh interpreter
_LOADED = ("import sys\n"
           "from lierep.cli import main\n"
           "main(sys.argv[1:])\n"
           "print(' '.join(sorted(m for m in sys.modules\n"
           "                      if m.startswith('lierep.'))))\n")

_README_QUERIES = [
    "roots G2", "weyl B2", "mult A2 1,1 0,0", "char A1 4",
    "decompose A1 3 2", "decompose A2 1,0 0,1 --method=all",
    "minimal-type A1 3 1", "prv A2 1,1 1,1", "shapovalov-det A1 2",
    "prv-det A2 1,1", "central-char A1 3", "hc A1 invariants 1/2 3",
    "hc A1 equivalent 3 1 -5 -1", "hc A1 class-zero 2",
    "hc A2 count 1,0 0,1",
]
_SELFTEST = "selftest --criteria clebsch-gordan"


def _loaded_modules(query):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED] + query.split(), env=env,
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return {m.partition(".")[2] for m in lines[-1].split()}


@pytest.fixture(scope="module")
def loaded():
    return {q: _loaded_modules(q) for q in _README_QUERIES
            + ["decompose B2 1,0 1,1 --method=klimyk", _SELFTEST]}


def test_structure_queries_load_no_representation_modules(loaded):
    assert loaded["roots G2"] <= {"cli", "config", "errors", "linalg",
                                  "rootsystem"}
    heavy = {"characters", "tensor", "irreps", "enveloping", "hpoly",
             "selfcheck"}
    for query in ("roots G2", "weyl B2"):
        assert not loaded[query] & heavy, query


def test_klimyk_decomposition_loads_no_module_engine(loaded):
    got = loaded["decompose B2 1,0 1,1 --method=klimyk"]
    assert "tensor" in got
    assert not got & {"irreps", "enveloping", "selfcheck"}


def test_only_selftest_loads_selfcheck(loaded):
    assert "selfcheck" in loaded[_SELFTEST]
    for query, got in loaded.items():
        if query != _SELFTEST:
            assert "selfcheck" not in got, query
