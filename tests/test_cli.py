import argparse
import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lierep.cli import build_parser, main

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


@pytest.mark.parametrize("word", ["1,,2", "x", "1.5"])
def test_prv_rejects_malformed_word(capsys, word):
    code, out, err = run(capsys, "prv", "A2", "1,0", "0,1", "--word", word)
    assert code == 1 and out == ""
    assert err.startswith(f"error: word {word!r}")
    assert "invalid literal" not in err


def test_enveloping_rank_limit_is_a_usage_error(capsys):
    # a limit of the engine, not a cap: no flag raises it
    code, out, err = run(capsys, "shapovalov-det", "E6", "1,0,0,0,0,0")
    assert code == 1 and out == "" and "rank <= 4" in err


def test_prv_det_answers_past_the_enveloping_rank_limit(capsys):
    # prv-det reads the dominant table, so it answers wherever the
    # characters do: the E6 adjoint module, whose zero weight space is the
    # Cartan subalgebra, has spectrum {0: 5, 1: 1} along each of 36 roots
    code, out, err = run(capsys, "prv-det", "E6", "0,0,0,0,0,1", "--json")
    assert code == 0, err
    rec = json.loads(out)
    assert rec["degree"] == 36
    assert len(rec["spectra"]) == 36
    assert all(spec == {"0": 5, "1": 1} for spec in rec["spectra"].values())


def test_prv_det_is_capped_by_its_dominant_table(capsys):
    # dim V(3,3) = 4096 of G2 is past the default max_dim (400), but prv-det
    # builds only a dominant table, which max_char (20000) caps
    code, out, err = run(capsys, "prv-det", "G2", "3,3", "--json")
    assert code == 0, err
    assert json.loads(out)["degree"] == 960


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
    (("decompose", "A2", "1,1", "1,1"), "--max-dim", "26", "27"),
    (("decompose", "A2", "1,1", "1,1", "--method=steinberg"), "--max-weyl",
     "5", "6"),
    (("prv", "A2", "1,1", "1,1"), "--max-weyl", "5", "6"),
    (("hc", "A2", "equivalent", "1,1", "1,1", "1,1", "1,1"), "--max-weyl",
     "5", "6"),
    (("hc", "A2", "count", "1,0", "0,1"), "--max-weyl", "5", "6"),
    # off the root lattice: a constant determinant, but the cap is read
    (("prv-det", "A2", "1,0"), "--max-dim", "2", "3"),
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


# each query with the cap flags that its call never reads
_BOTH = ("--max-dim", "--max-weyl")
_UNREAD_CAP_FLAGS = [
    (("selftest", "--criteria", "clebsch-gordan"), _BOTH),
    (("roots", "A2"), _BOTH),
    (("minimal-type", "A2", "1,0", "0,1"), _BOTH),
    (("shapovalov-det", "A2", "1,1"), _BOTH),
    (("central-char", "A2", "1,1"), _BOTH),
    (("hc", "A2", "invariants", "1,1", "1,1"), _BOTH),
    (("hc", "A2", "finite-dim", "1,1", "1,1"), _BOTH),
    (("weyl", "A2"), ("--max-dim",)),
    (("mult", "A2", "1,1", "0,0"), ("--max-dim",)),
    (("hc", "A2", "equivalent", "1,1", "1,1", "1,1", "1,1"), ("--max-dim",)),
    (("hc", "A2", "count", "1,0", "0,1"), ("--max-dim",)),
    (("char", "A2", "1,1"), ("--max-weyl",)),
    (("prv-det", "A2", "1,1"), ("--max-weyl",)),
    (("hc", "A2", "class-zero", "1,1"), ("--max-weyl",)),
    # flags that the command reads in another mode only
    (("decompose", "A2", "1,1", "1,1", "--method=character"), ("--max-weyl",)),
    (("decompose", "A2", "1,1", "1,1", "--method=klimyk"), ("--max-weyl",)),
    (("decompose", "A2", "1,1", "1,1", "--method=prv"), ("--max-weyl",)),
    (("prv", "A2", "1,1", "1,1"), ("--max-dim",)),
    (("mult", "E6", "1,0,0,0,0,0", "0,0,0,0,0,0"), ("--max-weyl",)),
]


@pytest.mark.parametrize("query,flag", [
    pytest.param(query, flag, id=(f"hc-{query[2]}" if query[0] == "hc"
                                  else query[0]) + flag)
    for query, flags in _UNREAD_CAP_FLAGS for flag in flags])
def test_unread_cap_flags_are_usage_errors(capsys, query, flag):
    code, out, err = run(capsys, *query, flag, "1")
    assert code == 1 and flag in err and out == ""


def _cap_flags(parser, prefix=()):
    """{(command words, flag)} for every cap flag the parser offers."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found |= _cap_flags(child, prefix + (name,))
        found |= {(" ".join(prefix), opt) for opt in action.option_strings
                  if opt.startswith("--max-")}
    return found


def test_parser_offers_only_the_cap_flags_read():
    dim, weyl = "--max-dim", "--max-weyl"
    assert _cap_flags(build_parser()) == {
        ("weyl", weyl), ("mult", weyl), ("hc equivalent", weyl),
        ("hc count", weyl), ("char", dim), ("prv-det", dim),
        ("hc class-zero", dim), ("decompose", dim), ("decompose", weyl),
        ("prv", dim), ("prv", weyl), ("shapovalov-det", "--max-height")}


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


@pytest.mark.parametrize("criteria,unknown", [
    ("clebsch-gordon,clebsch-gordan", "'clebsch-gordon'"),
    ("", "''"), ("clebsch-gordan,", "''")])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_selftest_refuses_an_unknown_criterion(capsys, criteria, unknown,
                                               fmt):
    # an empty name is refused too, not read as every criterion
    code, out, err = run(capsys, "selftest", "--criteria", criteria, *fmt)
    assert code == 1 and out == ""
    assert err.startswith(f"error: unknown criteria {unknown}; known: "
                          "clebsch-gordan, method-agreement,")


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest",
                       "--criteria", "clebsch-gordan", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"][0]["passed"] is True


def test_a_failing_criterion_reports_fail_and_exits_3(capsys, monkeypatch):
    from lierep import selfcheck

    def fails():
        raise selfcheck.CheckFailure("2 != 3 at the first pair")

    monkeypatch.setattr(selfcheck, "CRITERIA", (("always-fails", fails),))
    stream = io.StringIO()
    (res,) = selfcheck.run(["always-fails"], stream)
    assert (res.name, res.passed, res.detail) == (
        "always-fails", False, "2 != 3 at the first pair")
    line = stream.getvalue()
    assert line.startswith("FAIL always-fails (")
    assert line.endswith("s): 2 != 3 at the first pair\n")
    code, out, _ = run(capsys, "selftest", "--criteria", "always-fails",
                       "--json")
    assert code == 3
    (rec,) = json.loads(out)["results"]
    assert (rec["name"], rec["passed"], rec["detail"]) == (
        "always-fails", False, "2 != 3 at the first pair")
    code, out, _ = run(capsys, "selftest", "--criteria", "always-fails")
    assert code == 3 and out.startswith("FAIL always-fails (")


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

# the text output of each README query, all with exit code 0; cli-cold
# pins only the --json form
_README_TEXT = {
    "roots G2": (
        "root system G2\n"
        "cartan matrix: 2,-3; -1,2\n"
        "positive roots (6): 0+1 1+0 1+1 2+1 3+1 3+2\n"
        "|W| = 12\n"),
    "weyl B2": (
        "|W(B2)| = 8\n"
        "  e                        length 0 sign +1\n"
        "  s1                       length 1 sign -1\n"
        "  s2                       length 1 sign -1\n"
        "  s1.s2                    length 2 sign +1\n"
        "  s2.s1                    length 2 sign +1\n"
        "  s1.s2.s1                 length 3 sign -1\n"
        "  s2.s1.s2                 length 3 sign -1\n"
        "  s1.s2.s1.s2              length 4 sign +1  <- longest\n"),
    "mult A2 1,1 0,0": "2\n",
    "char A1 4": (
        "dim V(4) = 5\n"
        "  -2: 1\n"
        "  -4: 1\n"
        "  0: 1\n"
        "  2: 1\n"
        "  4: 1\n"),
    "decompose A1 3 2": (
        "V(3) (x) V(2) =\n"
        "  V(1) x 1\n"
        "  V(3) x 1\n"
        "  V(5) x 1\n"),
    "decompose A2 1,0 0,1 --method=all": (
        "V(1,0) (x) V(0,1) =\n"
        "  V(0,0) x 1\n"
        "  V(1,1) x 1\n"
        "methods agree: character steinberg klimyk prv\n"),
    "minimal-type A1 3 1": "2\n",
    "prv A2 1,1 1,1": (
        "w=e                    target 2,2          mult 1 bound 1\n"
        "w=s1                   target 0,3          mult 1 bound 1\n"
        "w=s2                   target 3,0          mult 1 bound 1\n"
        "w=s1.s2                target 1,1          mult 2 bound 2\n"
        "w=s2.s1                target 1,1          mult 2 bound 2\n"
        "w=s1.s2.s1             target 0,0          mult 1 bound 1\n"),
    "shapovalov-det A1 2": (
        "direct  = 2*h1^2 + -2*h1\n"
        "formula = 1*h1^2 + -1*h1\n"
        "ratio   = 2\n"),
    "prv-det A2 1,1": (
        "det = -1*h1*h2^2 + -1*h1^2*h2 + -1*h1*h2 (degree 3)\n"
        "  root 0+1: spectrum {0: 1, 1: 1}\n"
        "  root 1+0: spectrum {0: 1, 1: 1}\n"
        "  root 1+1: spectrum {0: 1, 1: 1}\n"),
    "central-char A1 3": (
        "Casimir acts by 15\n"
        "dot-orbit id 3\n"),
    "hc A1 invariants 1/2 3": (
        "minimal type 3\n"
        "infinitesimal character ['1/2', '1/2']\n"),
    "hc A1 equivalent 3 1 -5 -1": "equivalent via w = s1\n",
    "hc A1 class-zero 2": (
        "complete: False\n"
        "canonical parameter: 2\n"
        "  V(0) x 1\n"
        "  V(2) x 1\n"
        "  V(4) x 1\n"),
    "hc A2 count 1,0 0,1": "2\n",
}


def test_readme_queries_print_their_recorded_text(capsys):
    assert set(_README_TEXT) == set(_README_QUERIES)
    for query in _README_QUERIES:
        assert run(capsys, *query.split()) == (0, _README_TEXT[query], ""), \
            query


# a query whose weights main refuses must not have loaded an engine
_REFUSED = ("import sys\n"
            "from lierep.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.startswith('lierep.'))),\n"
            "      file=sys.stderr)\n"
            "sys.exit(code)\n")


def _templates(parser):
    """Every leaf command's argv: a subcommand as its name, a positional as
    its argparse action."""
    head = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [head + [name] + tail
                    for name, child in action.choices.items()
                    for tail in _templates(child)]
        if not action.option_strings:
            head.append(action)
    return [head]


def _wrong_rank_queries():
    """One A2 query per weight positional of every subcommand, that weight
    given three coordinates and every other weight 1,0."""
    not_weights = {"system": "A2", "depth": "1,1"}
    for template in _templates(build_parser()):
        slots = [i for i, x in enumerate(template)
                 if not isinstance(x, str) and x.dest not in not_weights]
        for bad in slots:
            yield " ".join(
                x if isinstance(x, str) else not_weights.get(x.dest)
                or ("1,0,0" if i == bad else "1,0")
                for i, x in enumerate(template))


@pytest.mark.parametrize("query", list(_wrong_rank_queries()))
def test_a_wrong_rank_weight_is_refused_before_any_engine_loads(query):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSED] + query.split(), env=env,
        capture_output=True, text=True, timeout=120, check=False)
    error, loaded = proc.stderr.splitlines()
    assert proc.returncode == 1 and proc.stdout == ""
    assert error == "error: expected 2 coordinates, got 3"
    assert {m.partition(".")[2] for m in loaded.split()} <= {
        "cli", "config", "errors", "linalg", "rootsystem"}


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
