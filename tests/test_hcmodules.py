from fractions import Fraction
from itertools import product as iproduct

import pytest

from lierep.rootsystem import Weight
from lierep.weyl import enumerate_weyl, hc_inf_character, longest_element
from lierep.characters import freudenthal_multiplicity, weight_multiplicity
from lierep.tensor import decompose, extreme_types
from lierep.hcmodules import (HCParams, class_zero, equivalent,
                              find_invariant_collision, finite_dimensional,
                              invariants, isoclass_count)


def test_params_require_integral_nu(a1):
    with pytest.raises(ValueError):
        HCParams(Weight((1,)), Weight((Fraction(1, 2),)))


def test_invariants_dominant_nu(rs):
    p = HCParams(rs.rho, rs.rho)
    inv = invariants(rs, p)
    assert inv.minimal_type == rs.rho
    assert inv.ktype_bound(rs.rho) == 1


def test_invariants_sl2_bound_pattern(a1):
    p = HCParams(Weight((Fraction(1, 3),)), Weight((2,)))
    inv = invariants(a1, p)
    assert inv.minimal_type == Weight((2,))
    for mu in range(7):
        expect = 1 if mu >= 2 and (mu - 2) % 2 == 0 else 0
        assert inv.ktype_bound(Weight((mu,))) == expect


def test_minimal_type_bound_is_one(rs):
    # the smallest component occurs exactly once
    for nu_c in iproduct(range(-2, 3), repeat=rs.rank):
        nu = Weight(nu_c)
        p = HCParams(rs.rho, nu)
        inv = invariants(rs, p)
        assert inv.ktype_bound(inv.minimal_type) == 1


def test_vogan_norm_of_minimal_type(rs):
    # the minimal type minimises (mu + 2rho, mu + 2rho) over all mu whose
    # weights contain nu
    nu = Weight(tuple((-1) ** i for i in range(rs.rank)))
    p = HCParams(rs.rho, nu)
    inv = invariants(rs, p)
    best = inv.minimal_type
    two_rho = 2 * rs.rho

    def norm(mu):
        return rs.inner(mu + two_rho, mu + two_rho)

    for mu_c in iproduct(range(4), repeat=rs.rank):
        mu = Weight(mu_c)
        if weight_multiplicity(rs, mu, nu) > 0 and mu != best:
            assert norm(mu) > norm(best)


def test_equivalence_reflexive(rs):
    p = HCParams(Weight(tuple(Fraction(1, 2) for _ in range(rs.rank))),
                 rs.rho)
    ok, w = equivalent(rs, p, p)
    assert ok and w.is_identity


def test_equivalence_sl2_mirror(a1):
    for lam in (Fraction(2, 5), 1, -3):
        for nu in (0, 1, -2):
            p = HCParams(Weight((lam,)), Weight((nu,)))
            q = HCParams(Weight((-lam - 2,)), Weight((-nu,)))
            ok, w = equivalent(a1, p, q)
            assert ok and w.word == (0,) or (lam, nu) == (-lam - 2, -nu)


def test_non_equivalent_different_orbit(a1):
    p = HCParams(Weight((1,)), Weight((2,)))
    q = HCParams(Weight((1,)), Weight((3,)))  # nu' not in W nu
    ok, w = equivalent(a1, p, q)
    assert not ok and w is None


def test_equivalent_implies_equal_invariants(a2):
    lam = Weight((Fraction(1, 2), 1))
    nu = Weight((1, -1))
    p = HCParams(lam, nu)
    ip = invariants(a2, p)
    for w in enumerate_weyl(a2):
        q = HCParams(w.twisted(lam), w.apply(nu))
        iq = invariants(a2, q)
        assert iq.minimal_type == ip.minimal_type
        assert iq.inf_char == ip.inf_char


def test_finite_dimensional_diagonal(rs):
    lam = rs.rho
    p = HCParams(lam, lam)
    assert finite_dimensional(rs, p) == (lam, rs.zero_weight())


def test_finite_dimensional_sl2_example(a1):
    p = HCParams(Weight((3,)), Weight((1,)))
    fd = finite_dimensional(a1, p)
    assert fd == (Weight((3,)), Weight((2,)))
    _, minimal = extreme_types(a1, *fd)
    assert minimal == Weight((1,))


def test_finite_dimensional_rejects_non_integral(a1):
    p = HCParams(Weight((Fraction(1, 2),)), Weight((0,)))
    assert finite_dimensional(a1, p) is None


def test_finite_dimensional_consistency(a2):
    w0 = longest_element(a2)
    for lam_c in iproduct(range(3), repeat=2):
        for mu_c in iproduct(range(3), repeat=2):
            lam, mu = Weight(lam_c), Weight(mu_c)
            nu = lam + w0.apply(mu)
            fd = finite_dimensional(a2, HCParams(lam, nu))
            assert fd == (lam, mu)
            # minimal type of the pair matches the dominant translate of nu
            _, minimal = extreme_types(a2, lam, mu)
            assert minimal == a2.dominant_in_orbit(nu)
            # infinitesimal character identifies chi(lam, mu)
            assert hc_inf_character(a2, lam, nu) \
                == hc_inf_character(a2, lam, lam + w0.apply(mu))


def test_class_zero_minus_rho_complete(rs):
    rep = class_zero(rs, -1 * rs.rho)
    assert rep["complete"] is True


def test_class_zero_dominant_incomplete(rs):
    assert class_zero(rs, rs.rho)["complete"] is False
    assert class_zero(rs, rs.zero_weight())["complete"] is False


def test_class_zero_generic_fraction_complete(rs):
    lam = Weight(tuple(Fraction(2, 7) for _ in range(rs.rank)))
    assert class_zero(rs, lam)["complete"] is True


def test_class_zero_mults_sl2(a1):
    for n in range(5):
        rep = class_zero(a1, Weight((n,)))
        dec = rep["mults"]
        assert dec.entries == {(2 * k,): 1 for k in range(n + 1)}
        for k in range(n + 1):
            assert freudenthal_multiplicity(
                a1, Weight((2 * k,)), Weight((0,))) == 1


def test_class_zero_mults_match_dual_decomposition(a2):
    lam = Weight((1, 1))
    w0 = longest_element(a2)
    dual = -w0.apply(lam)
    assert class_zero(a2, lam)["mults"].entries \
        == decompose(a2, lam, dual).entries
    # the trivial type occurs once and the support lies in the root lattice
    rep = class_zero(a2, lam)
    assert rep["mults"].entries[(0, 0)] == 1
    for c in rep["mults"].entries:
        assert a2.root_lattice_coords(Weight(c)) is not None


def test_isoclass_counts(rs):
    assert isoclass_count(rs, rs.rho, rs.rho) == rs.weyl_group_order
    assert isoclass_count(rs, rs.zero_weight(), rs.rho) == 1
    assert isoclass_count(rs, rs.rho, rs.zero_weight()) == 1


def test_isoclass_a2_fundamentals(a2):
    assert isoclass_count(a2, Weight((1, 0)), Weight((0, 1))) == 2


def test_invariant_collision_search_small_grid(a1):
    # on rank one the two invariants determine the class: the search must
    # come back empty on any grid
    grid = [(0,), (1,), (2,), (Fraction(1, 2),), (-1,)]
    nus = [(0,), (1,), (2,)]
    assert find_invariant_collision(a1, grid, nus) is None


def test_invariant_collision_exists_in_rank_two(a2):
    # minimal type plus infinitesimal character genuinely underdetermine the
    # class in rank 2: with lam = -2 rho the dot orbit is a single point, so
    # the first character coordinate forgets which translate was meant
    p = HCParams(Weight((-2, -2)), Weight((-2, 1)))
    q = HCParams(Weight((-2, 1)), Weight((-2, 1)))
    ip, iq = invariants(a2, p), invariants(a2, q)
    assert ip.minimal_type == iq.minimal_type
    assert ip.inf_char == iq.inf_char
    ok, _ = equivalent(a2, p, q)
    assert not ok
    found = find_invariant_collision(a2, [(-2, -2)], [(-2, 1)])
    assert found is not None
