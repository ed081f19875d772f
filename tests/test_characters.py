import random
import sys
import threading
from fractions import Fraction
from itertools import product as iproduct
from math import prod
from operator import add, mul

import pytest
from hypothesis import given, strategies as st

from lierep import characters
from lierep.config import Caps
from lierep.errors import CapExceeded
from lierep.rootsystem import (RootSystem, Weight, build_root_system,
                               dominance_hull_equiv)
from lierep.characters import (_pf_covering, character_of, character_table,
                               dominant_drops, dominant_weight_table,
                               freudenthal_multiplicity,
                               kostant_multiplicity, partition_function,
                               partition_function_bruteforce,
                               rho_shifts, signed_partition_sums,
                               weight_drops,
                               weight_multiplicity, weyl_dimension)
from lierep.rootsystem import RootVector
from lierep.selfcheck import HULL_TYPES
from lierep.tensor import METHODS, decompose, multiplicity
from lierep.weyl import longest_element, shift_maps


def test_partition_of_zero(rs):
    assert partition_function(rs, (0,) * rs.rank) == 1


def test_partition_a1_single_root(a1):
    for k in range(8):
        assert partition_function(a1, (k,)) == 1


def test_partition_a2_example(a2):
    assert partition_function(a2, (1, 1)) == 2  # {a1+a2} and {a1, a2}


def test_partition_negative_is_zero(a2):
    assert partition_function(a2, (-1, 2)) == 0


def test_partition_off_lattice_weight_is_zero(a2):
    assert partition_function(a2, Weight((1, 0))) == 0


_ORACLE_MEMO = {}


def pf_oracle(rs, coords, k):
    """Ways to write coords, a nonnegative root-coordinate vector, as a sum
    of positive roots whose non-simple members are among roots k..end of the
    height-lex order (k >= rank: the simple roots come first).  The memoised
    recursion that the dense table replaced, kept as its oracle.

    Whatever the non-simple roots leave is nonnegative and has exactly one
    expression in simple roots, so only the non-simple roots recurse.
    """
    nroots = rs.nroots
    if k >= nroots:
        return 1
    root = rs.positive_roots[k].coeffs
    if k + 1 == nroots:
        return min(c // r for c, r in zip(coords, root) if r) + 1
    key = (rs, coords, k)
    hit = _ORACLE_MEMO.get(key)
    if hit is not None:
        return hit
    most = min(c // r for c, r in zip(coords, root) if r)
    total = 0
    for j in range(most + 1):
        total += pf_oracle(rs, tuple(a - j * b for a, b in zip(coords, root)),
                           k + 1)
    _ORACLE_MEMO[key] = total
    return total


def table_cells(rs, box):
    """(x, P(x)) for every cell x of the box, read straight from the
    partition-function table covering it."""
    values, strides, _ = _pf_covering(rs, box)
    for x in iproduct(*[range(b + 1) for b in box]):
        yield x, values[sum(map(mul, x, strides))]


def test_partition_against_bruteforce(rs):
    for x, p in table_cells(rs, (3,) * rs.rank):
        assert p == pf_oracle(rs, x, rs.rank) == partition_function(rs, x) \
            == partition_function_bruteforce(rs, x)


@pytest.mark.parametrize("label,bound",
                         [("A3", 4), ("B3", 4), ("C3", 4), ("F4", 2)])
def test_partition_against_bruteforce_higher_rank(label, bound):
    rs = build_root_system(label)
    for x, p in table_cells(rs, (bound - 1,) * rs.rank):
        assert p == pf_oracle(rs, x, rs.rank) == partition_function(rs, x) \
            == partition_function_bruteforce(rs, x)


def test_partition_convolution_consistency(a2, b2, g2):
    # the recursion's identity: peeling the exponent of the first non-simple
    # root (index rank of the height-lex order) reproduces the table's value
    for rs, beta in ((a2, (3, 2)), (b2, (3, 4)), (g2, (4, 6))):
        first = rs.positive_roots[rs.rank].coeffs
        total = 0
        cur = beta
        while all(x >= 0 for x in cur):
            total += pf_oracle(rs, cur, rs.rank + 1)
            cur = tuple(a - b for a, b in zip(cur, first))
        assert total == partition_function(rs, beta)


def test_table_growth_reads_no_aliased_cell():
    # an uninterned B3 starts from the one-cell table; in the layout of the
    # box (6, 1, 0) the flat index of (0, 0, 5) is that of (2, 1, 0), so a
    # read past a trailing axis must grow the table first
    rs = RootSystem("B", 3)
    assert partition_function(rs, (6, 1, 0)) == pf_oracle(rs, (6, 1, 0), 3)
    assert rs._pf_table[2] == (6, 1, 0)
    assert signed_partition_sums(rs, [(1, (0, 0, 0))], [(0, 0, 5)]) \
        == [pf_oracle(rs, (0, 0, 5), 3)] != [pf_oracle(rs, (2, 1, 0), 3)]
    assert rs._pf_table[2] == (6, 1, 5)
    for x, p in table_cells(rs, (6, 1, 5)):
        assert p == pf_oracle(rs, x, 3)


def test_table_growth_under_threads():
    # each thread grows one shared table along its own axis while reading
    # it: a read that mixed the strides of one snapshot with the values of
    # another would give a wrong count or an index past the values
    rs = RootSystem("B", 3)
    points = [tuple(k if i == axis else 1 for i in range(3))
              for axis in range(3) for k in range(1, 9)]
    expected = {x: pf_oracle(rs, x, 3) for x in points}
    wrong = []
    gate = threading.Barrier(6)

    def work(axis):
        gate.wait(timeout=60)
        for x in points[8 * axis:] + points[:8 * axis]:
            try:
                if partition_function(rs, x) != expected[x]:
                    wrong.append(x)
            except IndexError:
                wrong.append(x)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k % 3,))
                   for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_a_reader_keeps_the_table_it_was_handed(monkeypatch):
    # another thread may publish its own, smaller table between a build and
    # the reads that follow it; those reads must index the table they got
    rs = RootSystem("B", 3)
    build = characters._pf
    small = build(rs, (1, 1, 1))

    def build_then_lose_the_race(rs, box):
        table = build(rs, box)
        rs._pf_table = small
        return table

    monkeypatch.setattr(characters, "_pf", build_then_lose_the_race)
    assert partition_function(rs, (0, 0, 6)) == pf_oracle(rs, (0, 0, 6), 3)
    assert signed_partition_sums(rs, [(1, (0, 0, 0)), (-1, (-1, 0, -2))],
                                 [(5, 0, 3)]) \
        == [pf_oracle(rs, (5, 0, 3), 3) - pf_oracle(rs, (4, 0, 1), 3)]
    assert rs._pf_table is small


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_signed_partition_sums_match_bruteforce(label):
    # one call for every drop, negative coordinates included, against the
    # alternating sum taken term by term through the enumeration oracle
    rs = RootSystem(label[0], int(label[1]))
    rng = random.Random(label)
    maps = shift_maps(rs)
    for _ in range(3):
        x = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        shifts = rho_shifts(maps, x)
        drops = [tuple(rng.randint(-2, 5) for _ in range(rs.rank))
                 for _ in range(12)]
        want = [sum(sgn * partition_function_bruteforce(
                        rs, tuple(map(add, drop, shift)))
                    for sgn, shift in shifts) for drop in drops]
        assert signed_partition_sums(rs, shifts, drops) == want, x
        assert signed_partition_sums(rs, shifts, []) == []


def test_kostant_table_is_the_box_of_its_drop():
    rs = RootSystem("F", 4)
    lam = Weight((1, 1, 1, 1))
    assert kostant_multiplicity(rs, lam, Weight((0, 0, 0, 0))) == 34432
    drop = rs.root_lattice_coords(lam)
    values, _, box = rs._pf_table
    assert box == drop
    assert len(values) == prod(d + 1 for d in drop)


def test_f4_zero_weight_space_of_2222():
    # the alternating sum reads one table of 17 * 31 * 43 * 23 cells
    rs = build_root_system("F4")
    lam, zero = Weight((2, 2, 2, 2)), Weight((0, 0, 0, 0))
    assert weight_multiplicity(rs, lam, zero) == 85649121
    assert freudenthal_multiplicity(rs, lam, zero) == 85649121


def test_dimensions(a1, a2, g2):
    assert weyl_dimension(a1, Weight((4,))) == 5
    assert weyl_dimension(a2, Weight((1, 0))) == 3
    assert weyl_dimension(a2, Weight((1, 1))) == 8
    assert weyl_dimension(g2, Weight((1, 0))) == 7
    assert weyl_dimension(g2, Weight((0, 1))) == 14


def test_highest_weight_space_is_a_line(rs):
    lam = rs.rho
    assert weight_multiplicity(rs, lam, lam) == 1


def test_sl2_weight_structure(a1):
    # V(n) has one-dimensional spaces at n, n-2, ..., -n
    for n in (4, 7):
        lam = Weight((n,))
        for i in range(n + 1):
            assert weight_multiplicity(a1, lam, Weight((n - 2 * i,))) == 1
        assert weight_multiplicity(a1, lam, Weight((n + 2,))) == 0
        assert weight_multiplicity(a1, lam, Weight((n - 1,))) == 0


def test_a2_adjoint_zero_space(a2):
    assert weight_multiplicity(a2, Weight((1, 1)), Weight((0, 0))) == 2


def test_g2_adjoint_zero_space(g2):
    assert freudenthal_multiplicity(g2, Weight((0, 1)), Weight((0, 0))) == 2


def test_kostant_equals_freudenthal(rs):
    # both algorithms on every dominant weight of modules up to dim 1000
    lams = [Weight(c) for c in iproduct(range(3), repeat=rs.rank)]
    for lam in lams:
        if weyl_dimension(rs, lam) > 1000:
            continue
        for dom, mult in characters._dominant_table(rs, lam.coords).items():
            mu = Weight(dom)
            assert kostant_multiplicity(rs, lam, mu) == mult
            assert freudenthal_multiplicity(rs, lam, mu) == mult
            for v in rs.orbit(mu)[:3]:
                assert freudenthal_multiplicity(rs, lam, v) == mult


def test_rank3_cross_check():
    for label in ("A3", "B3", "C3"):
        rs = build_root_system(label)
        for lam in (rs.fundamental(0), rs.rho):
            if weyl_dimension(rs, lam) > 1000:
                continue
            table = characters._dominant_table(rs, lam.coords)
            for dom, mult in table.items():
                assert kostant_multiplicity(rs, lam, Weight(dom)) == mult


def test_multiplicity_routes_agree_corpus():
    # table-level agreement of the alternating-sum and Freudenthal routes on
    # every module up to dim 1000 in rank 2, and on a spread of rank-one
    # highest weights up to 999; multiplicities are orbit-constant, so table
    # equality settles every weight
    from lierep.characters import _dominant_table, _dominant_table_fast
    from lierep.selfcheck import dominant_weights_by_dim
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        for lam, dim in dominant_weights_by_dim(rs, 1000)[::3]:
            assert _dominant_table_fast(rs, lam.coords) \
                == _dominant_table(rs, lam.coords), lam
    rs = build_root_system("A1")
    for n in list(range(25)) + [63, 128, 301, 999]:
        assert _dominant_table_fast(rs, (n,)) == _dominant_table(rs, (n,))


@pytest.mark.parametrize("label", HULL_TYPES)
def test_dominant_drops_match_box_scan(label):
    # brute force over the whole drop box of V(lam), which lam - w0(lam)
    # bounds, against the pruned search
    rs = build_root_system(label)
    w0 = longest_element(rs)
    for lam_c in iproduct(range(3), repeat=rs.rank):
        lam = Weight(lam_c)
        span = rs.root_lattice_coords(lam - w0.apply(lam))
        want = []
        for c in iproduct(*(range(b + 1) for b in span)):
            nu = lam - rs.root_to_weight(c)
            if nu.is_dominant:
                want.append((c, nu.coords))
        assert list(dominant_drops(rs, lam_c)) == want, lam


def test_weight_drops_match_character_support(rs):
    for lam_c in iproduct(range(3), repeat=rs.rank):
        lam = Weight(lam_c)
        support = {lam - rs.root_to_weight(z)
                   for z in weight_drops(rs, lam_c)}
        assert support == set(character_of(rs, lam).support())


def test_character_total_is_dimension(rs):
    for coords in iproduct(range(3), repeat=rs.rank):
        lam = Weight(coords)
        ch = character_of(rs, lam)
        assert ch.total() == weyl_dimension(rs, lam)


def test_character_trivial(rs):
    ch = character_of(rs, rs.zero_weight())
    assert ch.entries == {(0,) * rs.rank: 1}


def test_character_sl2(a1):
    ch = character_of(a1, Weight((4,)))
    assert ch.entries == {(k,): 1 for k in range(-4, 5, 2)}


def test_character_a2_fundamental(a2):
    ch = character_of(a2, Weight((1, 0)))
    assert ch.entries == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


def test_character_support_is_weyl_stable(rs):
    lam = rs.rho
    ch = character_of(rs, lam)
    for coords, m in ch.entries.items():
        for i in range(rs.rank):
            img = rs.reflect(i, Weight(coords))
            assert ch.entries.get(img.coords) == m


def test_character_support_matches_hull(a2):
    lam = Weight((2, 1))
    ch = character_of(a2, lam)
    for coords in ch.entries:
        assert dominance_hull_equiv(
            a2, lam, a2.dominant_in_orbit(Weight(coords)))[1]
    # and conversely on the lattice coset inside the hull
    for coords in iproduct(range(-4, 5), repeat=2):
        w = Weight(coords)
        in_support = coords in ch.entries
        lattice = a2.root_lattice_coords(lam - w) is not None
        hull = dominance_hull_equiv(a2, lam, a2.dominant_in_orbit(w))[1]
        assert in_support == (lattice and hull)


def test_character_cap(a2):
    with pytest.raises(CapExceeded):
        character_of(a2, Weight((30, 30)), Caps(max_char=1000))


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError):
        weight_multiplicity(a2, Weight((-1, 0)), Weight((0, 0)))


W1, W2, W3 = Weight((1,)), Weight((1, 1)), Weight((1, 1, 1))
BAD_INPUTS = {
    # each of these used to return an answer on A2, or an IndexError
    "weyl_dimension": lambda rs: weyl_dimension(rs, W3),
    "weyl_dimension_fraction": lambda rs: weyl_dimension(
        rs, Weight((Fraction(1, 2), 1))),
    "weight_multiplicity": lambda rs: weight_multiplicity(
        rs, W2, Weight((0, 0, 0))),
    "weight_multiplicity_lambda": lambda rs: weight_multiplicity(
        rs, W3, Weight((0, 0))),
    "kostant_multiplicity": lambda rs: kostant_multiplicity(rs, W2, W1),
    "freudenthal_multiplicity": lambda rs: freudenthal_multiplicity(
        rs, W2, W3),
    "partition_function_float": lambda rs: partition_function(rs, (1.5, 1)),
    "partition_function_short": lambda rs: partition_function(rs, (1,)),
    "partition_function_long": lambda rs: partition_function(rs, (1, 1, 0)),
    "partition_function_weight": lambda rs: partition_function(rs, W3),
    "partition_function_root": lambda rs: partition_function(
        rs, RootVector((1,))),
    "character_of": lambda rs: character_of(rs, W1),
    "character_table": lambda rs: character_table(rs, W3),
    "dominant_weight_table": lambda rs: dominant_weight_table(rs, W1),
    "decompose_lambda": lambda rs: decompose(rs, W3, Weight((1, 0))),
    "multiplicity_nu": lambda rs: multiplicity(rs, W2, W2, W1),
    **{f"decompose_mu_{m}": (lambda rs, m=m: decompose(rs, W2, W1, m))
       for m in METHODS},
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_wrong_rank_and_non_integer_inputs_raise(a2, name):
    with pytest.raises(ValueError):
        BAD_INPUTS[name](a2)


def test_partition_function_accepts_integral_values(a2):
    assert partition_function(a2, (Fraction(2), 1.0)) \
        == partition_function(a2, (2, 1)) == 2


@given(st.data())
def test_weyl_invariance_of_multiplicities(rs, data):
    lam = Weight(data.draw(st.tuples(
        *[st.integers(0, 2)] * rs.rank)))
    mu = Weight(data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank)))
    m = freudenthal_multiplicity(rs, lam, mu)
    for i in range(rs.rank):
        assert freudenthal_multiplicity(rs, lam, rs.reflect(i, mu)) == m


def test_memo_results_are_read_only(a2):
    lam, zero = Weight((1, 1)), Weight((0, 0))
    table = dominant_weight_table(a2, lam)
    with pytest.raises(TypeError):
        table[(0, 0)] = 5
    assert freudenthal_multiplicity(a2, lam, zero) == 2
    with pytest.raises(TypeError):
        character_table(a2, lam)[(0, 0)] = 5
    assert weight_multiplicity(a2, lam, zero) == 2
    ch = character_of(a2, Weight((1, 0)))
    with pytest.raises(TypeError):
        ch.entries[(1, 0)] = 7
    with pytest.raises(AttributeError):
        ch.entries.clear()
    with pytest.raises(AttributeError):
        ch.entries = {}
    assert character_of(a2, Weight((1, 0))).total() == 3
    assert decompose(a2, lam, Weight((1, 0))).entries \
        == {(2, 1): 1, (0, 2): 1, (1, 0): 1}
    # one view per memo entry, not one per call
    assert dominant_weight_table(a2, lam) is table
    assert character_of(a2, Weight((1, 0))) is ch


def test_dominant_weight_table_is_the_character_table(rs):
    lam = rs.rho
    assert dominant_weight_table(rs, lam) is character_table(rs, lam)


def test_clearing_a_memo_clears_its_view(a2):
    # each memo entry holds what callers get, so no second table pins the
    # old dict after a clear
    lam = Weight((2, 1))
    table, ch = character_table(a2, lam), character_of(a2, lam)
    characters._dominant_table_fast.cache_clear()
    fresh = character_table(a2, lam)
    assert fresh is not table and fresh == table
    characters._character.cache_clear()
    again = character_of(a2, lam)
    assert again is not ch and again.entries == ch.entries
