from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from lierep.config import Caps
from lierep.errors import CapExceeded
from lierep.rootsystem import Weight, build_root_system
from lierep.characters import (character_of, dominant_drops,
                               dominant_weight_table,
                               freudenthal_multiplicity,
                               kostant_multiplicity, partition_function,
                               partition_function_bruteforce,
                               weight_drops, weight_multiplicity,
                               weyl_dimension)
from lierep.selfcheck import HULL_TYPES
from lierep.weyl import longest_element


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


def test_partition_against_bruteforce(rs):
    for coords in iproduct(range(4), repeat=rs.rank):
        assert partition_function(rs, coords) \
            == partition_function_bruteforce(rs, coords)


@pytest.mark.parametrize("label,bound",
                         [("A3", 4), ("B3", 4), ("C3", 4), ("F4", 2)])
def test_partition_against_bruteforce_higher_rank(label, bound):
    rs = build_root_system(label)
    for coords in iproduct(range(bound), repeat=rs.rank):
        assert partition_function(rs, coords) \
            == partition_function_bruteforce(rs, coords)


def test_partition_convolution_consistency(a2, b2, g2):
    # the recursion's identity: peeling the exponent of the first non-simple
    # root (index rank of the height-lex order) reproduces the memoised value
    from lierep.characters import _pf
    for rs, beta in ((a2, (3, 2)), (b2, (3, 4)), (g2, (4, 6))):
        first = rs.positive_roots[rs.rank].coeffs
        total = 0
        cur = beta
        while all(x >= 0 for x in cur):
            total += _pf(rs, cur, rs.rank + 1)
            cur = tuple(a - b for a, b in zip(cur, first))
        assert total == partition_function(rs, beta)


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
        for dom, mult in dominant_weight_table(rs, lam).items():
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
            for dom, mult in dominant_weight_table(rs, lam).items():
                assert kostant_multiplicity(rs, lam, Weight(dom)) == mult


def test_multiplicity_routes_agree_corpus():
    # table-level agreement of the alternating-sum and Freudenthal routes on
    # every module up to dim 1000 in rank 2, and on a spread of rank-one
    # highest weights up to 999; multiplicities are orbit-constant, so table
    # equality settles every weight
    from lierep.characters import _dominant_table_fast
    from lierep.selfcheck import dominant_weights_by_dim
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        for lam, dim in dominant_weights_by_dim(rs, 1000)[::3]:
            assert _dominant_table_fast(rs.label, lam.coords) \
                == dominant_weight_table(rs, lam), lam
    rs = build_root_system("A1")
    for n in list(range(25)) + [63, 128, 301, 999]:
        lam = Weight((n,))
        assert _dominant_table_fast(rs.label, lam.coords) \
            == dominant_weight_table(rs, lam)


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
        assert a2.in_dominant_hull(lam, Weight(coords))
    # and conversely on the lattice coset inside the hull
    for coords in iproduct(range(-4, 5), repeat=2):
        w = Weight(coords)
        in_support = coords in ch.entries
        lattice = a2.root_lattice_coords(lam - w) is not None
        hull = a2.in_dominant_hull(lam, w)
        assert in_support == (lattice and hull)


def test_character_cap(a2):
    with pytest.raises(CapExceeded):
        character_of(a2, Weight((30, 30)), Caps(max_char=1000))


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError):
        weight_multiplicity(a2, Weight((-1, 0)), Weight((0, 0)))


@given(st.data())
def test_weyl_invariance_of_multiplicities(rs, data):
    lam = Weight(data.draw(st.tuples(
        *[st.integers(0, 2)] * rs.rank)))
    mu = Weight(data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank)))
    m = freudenthal_multiplicity(rs, lam, mu)
    for i in range(rs.rank):
        assert freudenthal_multiplicity(rs, lam, rs.reflect(i, mu)) == m
