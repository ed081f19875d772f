"""Run the lierep CLI under cProfile, import included, and keep its exit code.

Usage: python3 profiled_cli.py OUTFILE ARGS...

`python -m cProfile` swallows SystemExit, so every query would exit 0;
this wrapper profiles `lierep.cli.main` and exits with its return value.
"""

import cProfile
import sys


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    prof = cProfile.Profile()
    prof.enable()
    try:
        from lierep.cli import main as cli_main
        code = cli_main(argv)
    finally:
        prof.disable()
        prof.dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
