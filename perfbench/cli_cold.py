"""The cli-cold workload: `lierep ... --json` queries, one fresh interpreter
per query, each checked against a reference recorded by record_references.py
at commit ad1983c.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from bookkeeping import ERROR, MISMATCH, OK, REFUSED

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references" / "cli_cold.json"
PROFILED_CLI = HERE / "profiled_cli.py"

README_QUERIES = [
    "roots G2",
    "weyl B2",
    "mult A2 1,1 0,0",
    "char A1 4",
    "decompose A1 3 2",
    "decompose A2 1,0 0,1 --method=all",
    "minimal-type A1 3 1",
    "prv A2 1,1 1,1",
    "shapovalov-det A1 2",
    "prv-det A2 1,1",
    "central-char A1 3",
    "hc A1 invariants 1/2 3",
    "hc A1 equivalent 3 1 -5 -1",
    "hc A1 class-zero 2",
    "hc A2 count 1,0 0,1",
]
HEAVY_QUERIES = [
    "decompose B3 1,1,1 1,1,1 --method=steinberg",
    "char F4 1,0,0,1",
    "char E6 1,0,0,0,0,1",
    "mult E6 1,1,0,0,0,1 0,0,0,0,0,0",
    "weyl F4",
    "decompose G2 2,1 1,1 --method=prv",
    "prv-det G2 1,1 --max-dim 2000",
]
# A known defect: no flag raises the character cap that this query hits,
# so it exits 2 at commit ad1983c.  Its reference holds the entries of the
# same decomposition by the klimyk route, which a fix must reproduce.
DEFECT_QUERY = "decompose G2 3,3 2,2 --method=character --max-dim 100000"
DEFECT_REFERENCE_QUERY = \
    "decompose G2 3,3 2,2 --method=klimyk --max-dim 100000"
QUERIES = README_QUERIES + HEAVY_QUERIES + [DEFECT_QUERY]

QUERY_TIMEOUT_S = 150


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_query(query, env, profile_path=None):
    """Run one query in a fresh interpreter; (exit code, stdout)."""
    if profile_path is None:
        cmd = [sys.executable, "-m", "lierep.cli"]
    else:
        cmd = [sys.executable, str(PROFILED_CLI), str(profile_path)]
    proc = subprocess.run(cmd + query.split() + ["--json"], env=env,
                          capture_output=True, text=True,
                          timeout=QUERY_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    missing = [q for q in QUERIES if q not in refs]
    if missing:
        raise ValueError(f"no recorded reference for {missing}")
    return refs


def judge(ref, code, stdout):
    """Outcome of a query against its reference.

    A reference holds the exit code and either the exact stdout or, for the
    defect query, only the decomposition entries the stdout must carry.
    """
    if code == 2 and ref["exit_code"] != 2:
        return REFUSED, "exit code 2 (resource cap)"
    if code != ref["exit_code"]:
        return ERROR, f"exit code {code}, expected {ref['exit_code']}"
    if "stdout" in ref:
        if stdout != ref["stdout"]:
            return MISMATCH, "stdout differs from the reference"
        return OK, ""
    try:
        entries = json.loads(stdout)["entries"]
    except (ValueError, KeyError, TypeError):
        return MISMATCH, "stdout is not a decomposition record"
    if entries != ref["entries"]:
        return MISMATCH, "entries differ from the reference"
    return OK, ""
