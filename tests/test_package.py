import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lierep

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_is_its_home_modules_object():
    for name in lierep.__all__:
        home = importlib.import_module(f"lierep.{lierep._HOME[name]}")
        assert getattr(lierep, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lierep import *", namespace)
    assert set(lierep.__all__) <= set(namespace)
    for name in lierep.__all__:
        assert namespace[name] is getattr(lierep, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lierep.no_such_name
    assert not hasattr(lierep, "_no_such_private")


def test_version_and_dir():
    assert lierep.__version__ == "0.1.0"
    assert set(lierep.__all__) <= set(dir(lierep))


def test_import_loads_no_library_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lierep\n"
         "print([m for m in sys.modules if m.startswith('lierep.')])\n"
         "lierep.Weight\n"
         "print(sorted(m for m in sys.modules if m.startswith('lierep.')))"],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert after == str(["lierep.errors", "lierep.linalg",
                         "lierep.rootsystem"])


# one query per subcommand that runs a U(g)-free layer: the library
# modules it must not load
_NO_UG = ("enveloping", "hpoly", "centralchar")
UNLOADED = {
    "prv-det A2 1,1": ("irreps", "enveloping"),
    "shapovalov-det A1 2": ("irreps",),
    "hc A1 invariants 1/2 3": _NO_UG,
    "hc A1 class-zero 2": _NO_UG,
    "minimal-type A1 3 1": _NO_UG,
    "prv A2 1,1 1,1": _NO_UG,
    "decompose G2 2,1 1,1 --method=prv": _NO_UG,
    "central-char A1 3": ("irreps", "characters", "tensor"),
}


@pytest.mark.parametrize("query", UNLOADED)
def test_subcommand_loads_only_the_modules_it_runs(query):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from lierep.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = main(sys.argv[1:])\n"
         "print(code, *sorted(m for m in sys.modules\n"
         "                    if m.startswith('lierep.')))",
         *query.split()],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert not {f"lierep.{m}" for m in UNLOADED[query]} & set(loaded), loaded


def test_memo_tables_do_not_multiply():
    # every unbounded memo lives for the whole process; a new one must
    # replace an old one, not join it
    count = sum(path.read_text().count("lru_cache(maxsize=None)")
                for path in (SRC / "lierep").glob("*.py"))
    assert count <= 14, count
