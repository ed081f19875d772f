"""Record the cli-cold references: exit code and exact stdout of every query.

Usage (from the repository root): python3 perfbench/record_references.py

Run once at the commit the references should describe.  The defect query's
reference is taken from the same decomposition by the klimyk route, so it
holds only the expected entries.
"""

import json
import sys
from pathlib import Path

import cli_cold

ROOT = Path(__file__).resolve().parent.parent


def main():
    env = cli_cold.child_env(ROOT / "src")
    refs = {}
    for query in cli_cold.QUERIES:
        if query == cli_cold.DEFECT_QUERY:
            code, out = cli_cold.run_query(cli_cold.DEFECT_REFERENCE_QUERY,
                                           env)
            if code != 0:
                raise SystemExit(f"reference route failed with exit {code}")
            refs[query] = {"exit_code": 0,
                           "entries": json.loads(out)["entries"],
                           "from": cli_cold.DEFECT_REFERENCE_QUERY}
        else:
            code, out = cli_cold.run_query(query, env)
            refs[query] = {"exit_code": code, "stdout": out}
        print(f"exit {code}: {query}", file=sys.stderr)
    cli_cold.REFERENCES.parent.mkdir(exist_ok=True)
    with open(cli_cold.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
