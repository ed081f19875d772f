from itertools import combinations_with_replacement, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from lierep.config import Caps
from lierep.errors import InvariantViolation
from lierep.rootsystem import Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element
from lierep.characters import character_of, character_table, table_mult
from lierep.selfcheck import (HULL_TYPES, METHOD_TYPES, PRODUCT_DIM_CAP,
                              _pair_corpus)
from lierep.tensor import (_char_product, component_tests, decompose,
                           decompose_all, extreme_types, generalized_prv,
                           is_minuscule, minuscule_decompose, multiplicity)


def test_clebsch_gordan_small(a1):
    dec = decompose(a1, Weight((3,)), Weight((2,)))
    assert dec.entries == {(5,): 1, (3,): 1, (1,): 1}


def test_tensor_with_trivial(rs):
    lam = rs.rho
    dec = decompose(rs, lam, rs.zero_weight())
    assert dec.entries == {lam.coords: 1}


def test_a2_fundamental_pair(a2):
    dec = decompose(a2, Weight((1, 0)), Weight((0, 1)))
    assert dec.entries == {(1, 1): 1, (0, 0): 1}


def test_four_methods_agree_samples(rs):
    weights = [Weight(c) for c in iproduct(range(2), repeat=rs.rank)]
    weights.append(rs.rho)
    for lam in weights:
        for mu in weights:
            decs = decompose_all(rs, lam, mu)
            assert len({tuple(sorted(d.entries.items()))
                        for d in decs.values()}) == 1


def test_cartan_component_always_simple(rs):
    lam, mu = rs.rho, rs.fundamental(0)
    assert multiplicity(rs, lam, mu, lam + mu) == 1


def test_middle_clebsch_multiplicity(a1):
    assert multiplicity(a1, Weight((2,)), Weight((1,)), Weight((1,))) == 1


def test_a2_rho_squared_multiplicity(a2):
    rho = Weight((1, 1))
    # character-method oracle on the 8 (x) 8 product
    dec = decompose(a2, rho, rho, "character")
    assert dec.entries[(1, 1)] == 2
    assert multiplicity(a2, rho, rho, rho) == 2


def test_multiplicity_cross_expression_consistency(b2):
    lam, mu = Weight((1, 1)), Weight((1, 0))
    dec = decompose(b2, lam, mu, "character")
    for nu_c in dec.entries:
        assert multiplicity(b2, lam, mu, Weight(nu_c)) == dec.entries[nu_c]


def test_extreme_types_sl2(a1):
    for lam in range(0, 6):
        for mu in range(0, lam + 1):
            cartan, minimal = extreme_types(a1, Weight((lam,)), Weight((mu,)))
            assert cartan == Weight((lam + mu,))
            assert minimal == Weight((lam - mu,))


def test_extreme_types_with_trivial(rs):
    lam = rs.rho
    cartan, minimal = extreme_types(rs, lam, rs.zero_weight())
    assert cartan == lam and minimal == lam


def test_extreme_types_a2_dual_pair(a2):
    cartan, minimal = extreme_types(a2, Weight((1, 0)), Weight((0, 1)))
    assert cartan == Weight((1, 1)) and minimal == Weight((0, 0))


def test_minimal_type_is_weight_of_every_component(a2):
    lam, mu = Weight((2, 1)), Weight((1, 1))
    _, minimal = extreme_types(a2, lam, mu)
    dec = decompose(a2, lam, mu)
    for nu_c in dec.entries:
        ch = character_of(a2, Weight(nu_c))
        assert ch.mult(minimal) > 0


def test_components_inside_cartan_support(a2):
    lam, mu = Weight((2, 0)), Weight((1, 1))
    dec = decompose(a2, lam, mu)
    top = character_of(a2, lam + mu)
    for nu_c in dec.entries:
        assert top.mult(Weight(nu_c)) > 0


def test_vogan_norm_minimum(rs):
    # among the components, the smallest type uniquely minimises
    # (nu + 2 rho, nu + 2 rho)
    lam, mu = rs.rho, rs.rho
    _, minimal = extreme_types(rs, lam, mu)
    dec = decompose(rs, lam, mu)
    two_rho = 2 * rs.rho

    def norm(nu):
        v = nu + two_rho
        return rs.inner(v, v)

    best = norm(minimal)
    for nu_c in dec.entries:
        nu = Weight(nu_c)
        if nu != minimal:
            assert norm(nu) > best


def test_generalized_identity_translate(rs):
    els = enumerate_weyl(rs)
    rep = generalized_prv(rs, rs.rho, rs.fundamental(0), els[0])
    assert rep["mult"] == 1 and rep["lower_bound"] == 1


def test_generalized_trivial_factor(rs):
    for w in enumerate_weyl(rs):
        rep = generalized_prv(rs, rs.rho, rs.zero_weight(), w)
        assert rep["mult"] == 1 and rep["lower_bound"] == 1


def test_generalized_rank2_counterexample(a2):
    rho = Weight((1, 1))
    hits = []
    for w in enumerate_weyl(a2):
        rep = generalized_prv(a2, rho, rho, w)
        if rep["mult"] >= 2:
            hits.append((w.word, rep["mult"], rep["lower_bound"]))
    assert hits
    for word, mult, bound in hits:
        assert mult >= bound >= 2  # the refined bound is sharp here


def test_generalized_with_submodule_count(a1):
    w0 = longest_element(a1)
    rep = generalized_prv(a1, Weight((2,)), Weight((1,)), w0, with_kprv=True)
    assert rep["kprv_mult"] == 1


def test_minuscule_detection(a1, a2, b2, g2):
    assert is_minuscule(a1, Weight((1,)))
    assert not is_minuscule(a1, Weight((2,)))
    assert is_minuscule(a2, Weight((1, 0)))
    assert is_minuscule(a2, Weight((0, 1)))
    assert not is_minuscule(a2, Weight((1, 1)))
    assert is_minuscule(b2, Weight((0, 1)))   # spin weight
    assert not is_minuscule(b2, Weight((1, 0)))
    assert not any(is_minuscule(g2, Weight(c))
                   for c in [(1, 0), (0, 1), (1, 1)] )


def test_minuscule_decompose_sl2(a1):
    for n in range(1, 6):
        dec = minuscule_decompose(a1, Weight((n,)), Weight((1,)))
        assert dec.entries == {(n + 1,): 1, (n - 1,): 1}


def test_minuscule_decompose_trivial_left(a2):
    dec = minuscule_decompose(a2, Weight((0, 0)), Weight((1, 0)))
    assert dec.entries == {(1, 0): 1}


def test_minuscule_decompose_a2(a2):
    dec = minuscule_decompose(a2, Weight((1, 0)), Weight((1, 0)))
    assert dec.entries == {(2, 0): 1, (0, 1): 1}
    assert dec.entries == decompose(a2, Weight((1, 0)), Weight((1, 0)),
                                    "character").entries


def test_minuscule_decompose_b2_spin(b2):
    lam = Weight((1, 1))
    dec = minuscule_decompose(b2, lam, Weight((0, 1)))
    assert dec.entries == decompose(b2, lam, Weight((0, 1))).entries


def test_minuscule_rejects_non_minuscule(a2):
    with pytest.raises(ValueError):
        minuscule_decompose(a2, Weight((1, 0)), Weight((1, 1)))


def test_component_tests_rho_rho(a2):
    rho = Weight((1, 1))
    report = component_tests(a2, rho, rho)
    # every positive root subtracts to a dominant weight here and the
    # hypothesis holds vacuously (rho is regular)
    assert set(report["root_subtraction"]) == {(1, 0), (0, 1), (1, 1)}
    assert report["root_subtraction"][(1, 1)] == 2
    assert report["minus_one_applies"] is True


def test_component_tests_saturated_sl2(a1):
    for lam in range(2, 6):
        for mu in range(lam + 1):
            report = component_tests(a1, Weight((lam,)), Weight((mu,)))
            assert report["minus_one_applies"] is True


def test_component_tests_trivial_factor(rs):
    report = component_tests(rs, rs.rho, rs.zero_weight())
    assert report["minus_one_applies"] is True
    assert report["decomposition"].entries == {rs.rho.coords: 1}


@given(st.data())
@settings(max_examples=20)
def test_commutativity(rs, data):
    lam = Weight(data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank)))
    mu = Weight(data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank)))
    assert decompose(rs, lam, mu).entries == decompose(rs, mu, lam).entries


def test_dimension_audit_rejects_bad_entries(a1):
    from lierep.tensor import Decomposition
    with pytest.raises(InvariantViolation):
        Decomposition(a1, Weight((1,)), Weight((1,)), "forged",
                      {(2,): 1})  # missing the trivial component


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError):
        decompose(a2, Weight((-1, 0)), Weight((1, 0)))


def _full_convolution(rs, lam, mu):
    """Every weight of the product character, by convolving both full
    characters, restricted to the dominant ones."""
    ch1 = character_of(rs, lam).entries
    ch2 = character_of(rs, mu).entries
    out = {}
    for c1, m1 in ch1.items():
        for c2, m2 in ch2.items():
            key = tuple(a + b for a, b in zip(c1, c2))
            out[key] = out.get(key, 0) + m1 * m2
    return {k: v for k, v in out.items() if min(k) >= 0}


@pytest.mark.parametrize("label", HULL_TYPES)
def test_dominant_product_matches_full_convolution(label):
    # every pair with coordinates <= 2, plus every 40th-or-so pair of the
    # method-agreement corpus, which is in order of cost; at each dominant
    # weight of the product the audit's bound, read from the dominant table
    # of V(mu), equals the full character of V(mu), on and off its coset
    rs = build_root_system(label)
    weights = [Weight(c) for c in iproduct(range(3), repeat=rs.rank)]
    pairs = list(combinations_with_replacement(weights, 2))
    if label in METHOD_TYPES:
        corpus = _pair_corpus(label, PRODUCT_DIM_CAP)
        pairs += corpus[::max(1, len(corpus) // 40)]
    for lam, mu in pairs:
        want = _full_convolution(rs, lam, mu)
        assert _char_product(rs, lam, mu, Caps()) == want, (lam, mu)
        table, ch = character_table(rs, mu), character_of(rs, mu)
        for nu in want:
            x = [a - b for a, b in zip(nu, lam.coords)]
            for y in (x, [x[0] + 1] + x[1:]):
                assert table_mult(rs, table, y) == ch.mult(tuple(y))
