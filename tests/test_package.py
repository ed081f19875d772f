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


def test_memo_tables_do_not_multiply():
    # every unbounded memo lives for the whole process; a new one must
    # replace an old one, not join it
    count = sum(path.read_text().count("lru_cache(maxsize=None)")
                for path in (SRC / "lierep").glob("*.py"))
    assert count <= 14, count
