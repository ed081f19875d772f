"""Acceptance gate: every promised criterion at its stated bound.

Each criterion prints one PASS/FAIL line; run with -s to watch them stream.
The same functions back the `lierep selftest` command.
"""

import pytest

from lierep.selfcheck import CRITERIA

# each criterion's detail string, as `lierep selftest` reports it
DETAILS = {
    "clebsch-gordan": "231 pairs exact",
    "method-agreement": "9967 pairs, 4 methods each",
    "extreme-subspace-identity": "69150 triples exact",
    "extreme-components-bound": "9967 pairs, all Weyl translates",
    "generated-submodules": "1140 generated-submodule counts",
    "rank2-multiplicity-two": "A2:((0, 1), (1, 1), 2); B2:((0, 1), (1, 2), 2); "
                              "G2:((0, 1), (3, 1), 2)",
    "weight-identities": "24615 pairs, grid bound 4",
    "shapovalov-determinants": "20 depths, scalar-exact",
    "zero-weight-determinants": "even mu <= 12 exact, odd mu empty",
    "omega-homomorphism": "closed forms and nu=0 ring membership exact",
    "central-characters": "eigenvalues and dot-orbit constancy, powers <= 3",
    "module-classification": "grid laws, mirror witness, class-zero, "
                             "coset counts exact",
}


def test_every_criterion_has_a_recorded_detail():
    assert set(DETAILS) == {name for name, _ in CRITERIA}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, fn, capsys):
    try:
        detail = fn()
    except Exception as exc:  # noqa: BLE001 - report, then fail the gate
        with capsys.disabled():
            print(f"FAIL {name}: {exc}")
        raise
    with capsys.disabled():
        print(f"PASS {name}: {detail}")
    assert detail == DETAILS[name]
