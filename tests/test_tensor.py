from itertools import combinations_with_replacement, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from lierep import characters, irreps
from lierep.config import METHODS, Caps
from lierep.errors import CapExceeded, InvariantViolation
from lierep.rootsystem import RootSystem, Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element, shift_maps
from lierep.characters import (character_of, character_table,
                               dominant_drops, dominant_weight_table,
                               rho_shifts, signed_partition_sums,
                               table_mult, weyl_dimension)
from lierep.selfcheck import (HULL_TYPES, METHOD_TYPES, PRODUCT_DIM_CAP,
                              _pair_corpus, dominant_weights_by_dim)
from lierep.determinants import prv_det
from lierep.irreps import _v_extremes_dim
from lierep.tensor import (_candidates, _char_product, _decompose_steinberg,
                           component_tests, decompose, decompose_all,
                           extreme_types, generalized_prv, is_minuscule,
                           minuscule_decompose, multiplicity)


@pytest.mark.parametrize("label,cap", [(t, 2000) for t in METHOD_TYPES]
                         + [("A1", 100), ("A2", 100)])
def test_pair_corpus_is_the_full_triangle_scan(label, cap):
    # the corpus stops each row at the first pair past the cap; the full
    # scan of the lower triangle gives the same pairs in the same order
    ws = dominant_weights_by_dim(build_root_system(label), cap)
    assert _pair_corpus(label, cap) == [
        (lam, mu) for i, (lam, dl) in enumerate(ws)
        for mu, dm in ws[:i + 1] if dl * dm <= cap]


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


@pytest.mark.parametrize("label,bound", [
    ("A1", 2), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1), ("B3", 1),
    ("C3", 1)])
def test_extreme_types_agrees_with_the_read_inside_v_mu(label, bound):
    # the oracle reads every component inside V(mu), at depth lam + mu - nu:
    # both extreme types, the w target of generalized_prv for every w, and
    # each root-subtraction entry of component_tests
    rs = build_root_system(label)
    ws = [Weight(c) for c in iproduct(range(bound + 1), repeat=rs.rank)]
    els = enumerate_weyl(rs)
    for lam, mu in iproduct(ws, ws):
        for nu in extreme_types(rs, lam, mu):
            assert _v_extremes_dim(rs, mu, (nu - lam).coords,
                                   lam.coords) == 1, (lam, mu, nu)
        for w in els:
            rep = generalized_prv(rs, lam, mu, w)
            assert rep["mult"] == _v_extremes_dim(
                rs, mu, (rep["target"] - lam).coords, lam.coords), (lam, mu, w)
        for beta, m in component_tests(rs, lam, mu)["root_subtraction"].items():
            nu = lam + mu - rs.root_to_weight(beta)
            assert m == _v_extremes_dim(rs, mu, (nu - lam).coords,
                                        lam.coords), (lam, mu, beta)


@pytest.mark.parametrize("lam,mu,minimal", [
    ((2, 1), (2, 1), (0, 0)), ((0, 0), (2, 1), (2, 1)),
    ((2, 1), (0, 0), (2, 1))], ids=["lam=mu", "lam=0", "mu=0"])
def test_extreme_types_builds_only_top_blocks(g2, lam, mu, minimal):
    # w0 = -1 on G2, so in each case one read of the minimal component sits
    # at a highest weight: no module it may read is built below its top
    irreps._module.cache_clear()
    lam, mu, minimal = Weight(lam), Weight(mu), Weight(minimal)
    assert extreme_types(g2, lam, mu) == (lam + mu, minimal)
    for top in (lam, mu, minimal):
        real = irreps._module(g2, top)
        assert real._built == {(0, 0)} and real.weights == {top.coords: 1}


def test_generalized_prv_builds_only_top_blocks(g2):
    # the w0 target of (2,1) (x) (2,1) is (0,0), read at the top of V(0,0):
    # neither module is built below its top
    irreps._module.cache_clear()
    lam = Weight((2, 1))
    rep = generalized_prv(g2, lam, lam, longest_element(g2))
    assert rep["target"] == g2.zero_weight() and rep["mult"] == 1
    for top in (lam, rep["target"]):
        real = irreps._module(g2, top)
        assert real._built == {(0, 0)} and real.weights == {top.coords: 1}


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


def test_generalized_rejects_a_foreign_element(a2, b2):
    with pytest.raises(ValueError, match="different root systems"):
        generalized_prv(a2, a2.rho, a2.rho, longest_element(b2))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2",
                                   "F4"])
def test_minuscule_matches_the_dominant_table(label):
    # the table definition, kept as the oracle: mu is the only dominant
    # weight of V(mu)
    rs = build_root_system(label)
    top = 1 if label == "F4" else 2
    for c in iproduct(range(top + 1), repeat=rs.rank):
        mu = Weight(c)
        assert is_minuscule(rs, mu) \
            == (len(dominant_weight_table(rs, mu)) == 1), c


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
    # the right components, keyed by Weight where mult and the dimension
    # dict read coordinate tuples
    with pytest.raises(InvariantViolation, match="bad decomposition entry"):
        Decomposition(a1, Weight((1,)), Weight((1,)), "forged",
                      {Weight((2,)): 1, Weight((0,)): 1})


def test_decompose_checks_its_arguments_once(monkeypatch):
    # a fresh G2, so that every memo the four methods fill starts cold: the
    # only weight check is decompose's own, and every internal call goes to
    # a kernel on checked coordinates
    g2 = RootSystem("G", 2)
    calls = []
    require = RootSystem.require_weight

    def counted(self, *weights):
        calls.append(weights)
        return require(self, *weights)

    monkeypatch.setattr(RootSystem, "require_weight", counted)
    lam, mu = Weight((2, 1)), Weight((1, 1))
    for method in METHODS:
        calls.clear()
        decompose(g2, lam, mu, method)
        assert calls == [(lam, mu)], method
    # the dimension dict holds tuples only, every one a dominant weight
    assert g2._weyl_dims and all(type(k) is tuple and min(k) >= 0
                                 for k in g2._weyl_dims)


def test_prv_det_and_minuscule_decompose_check_mu_once(monkeypatch):
    # a fresh A2, so that the memos start cold: each entry point's own
    # check is the only one, and its kernels read checked coordinates
    a2 = RootSystem("A", 2)
    calls = []
    require = RootSystem.require_weight

    def counted(self, *weights):
        calls.append(weights)
        return require(self, *weights)

    monkeypatch.setattr(RootSystem, "require_weight", counted)
    adjoint, lam, mu = Weight((1, 1)), Weight((2, 1)), Weight((1, 0))
    prv_det(a2, adjoint)  # in the root lattice: past the early return
    assert calls == [(adjoint,)]
    calls.clear()
    minuscule_decompose(a2, lam, mu)
    assert calls == [(lam, mu)]


def test_decomposition_mult_and_equality(a2):
    lam, mu = Weight((1, 1)), Weight((1, 0))
    dec = decompose(a2, lam, mu, "character")
    assert dec.mult(Weight((2, 1))) == dec.mult((2, 1)) == 1
    assert dec.mult(Weight((5, 5))) == 0
    # equality compares entries, across methods
    assert dec == decompose(a2, lam, mu, "steinberg")
    assert dec != decompose(a2, lam, lam, "character")


def test_non_dominant_rejected(a2):
    with pytest.raises(ValueError):
        decompose(a2, Weight((-1, 0)), Weight((1, 0)))


def _full_convolution(rs, lam, mu):
    """Every dominant weight of the product character, by convolving both
    full characters.  A sum c1 + c2 is dominant only if c1[i] >= -c2[i] on
    every axis, so each c2 takes its most negative axis i and visits the
    weights c1 of the first character in descending order of c1[i], stopping
    at the first c1[i] < -c2[i]."""
    ch1 = character_of(rs, lam).entries
    ch2 = character_of(rs, mu).entries
    by_axis = [sorted(ch1.items(), key=lambda t, i=i: -t[0][i])
               for i in range(rs.rank)]
    out = {}
    for c2, m2 in ch2.items():
        i = min(range(rs.rank), key=c2.__getitem__)
        for c1, m1 in by_axis[i]:
            if c1[i] < -c2[i]:
                break
            key = tuple(a + b for a, b in zip(c1, c2))
            if min(key) >= 0:
                out[key] = out.get(key, 0) + m1 * m2
    return out


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
    # _char_product reads V(lam + mu)'s table under its cap; the largest
    # such module here, V(4,4,4) of B3 and C3, has dimension 1,953,125
    caps = Caps(max_char=2_000_000)
    for lam, mu in pairs:
        want = _full_convolution(rs, lam, mu)
        assert _char_product(rs, lam, mu, caps) == want, (lam, mu)
        table, ch = character_table(rs, mu), character_of(rs, mu)
        for nu in want:
            x = [a - b for a, b in zip(nu, lam.coords)]
            for y in (x, [x[0] + 1] + x[1:]):
                assert table_mult(rs, table, y) == ch.mult(tuple(y))


# -- the former kernels, kept as oracles -------------------------------------

def _reference_rho_shifts(rs, els, x_coords):
    """Shifts w(x + rho) - (x + rho) in root coordinates, through the
    inverse Cartan matrix, one element at a time."""
    y = [c + 1 for c in x_coords]
    rank, den = rs.rank, rs.inv_den
    out = []
    for w in els:
        m = w.matrix
        diff = [sum(m[i][j] * y[j] for j in range(rank)) - y[i]
                for i in range(rank)]
        out.append((w.sign, tuple(sum(r * d for r, d in zip(row, diff)) // den
                                  for row in rs.inv_num)))
    return out


def _reference_steinberg(rs, lam, mu):
    els = enumerate_weyl(rs)
    mu_shifts = _reference_rho_shifts(rs, els, mu.coords)
    top = [a + b for a, b in zip(lam.coords, mu.coords)]
    entries = {}
    for coords in _candidates(rs, lam, mu, Caps()):
        drop = rs.root_lattice_coords(
            tuple(t - c for t, c in zip(top, coords)))
        shifts = _reference_rho_shifts(rs, els, coords)
        sums = signed_partition_sums(
            rs, mu_shifts, [tuple(d - s for d, s in zip(drop, shift))
                            for _, shift in shifts])
        total = sum(sgn * s for (sgn, _), s in zip(shifts, sums))
        if total:
            entries[coords] = total
    return entries


def _reference_char_product(rs, lam, mu):
    """The product on the dominant weights of a fresh dominant_drops(lam +
    mu) scan."""
    ch1 = character_of(rs, lam).entries
    ch2 = character_of(rs, mu).entries
    if len(ch1) < len(ch2):
        ch1, ch2 = ch2, ch1
    top = tuple(a + b for a, b in zip(lam.coords, mu.coords))
    out = {}
    for _, nu in dominant_drops(rs, top):
        total = 0
        for c2, m2 in ch2.items():
            m1 = ch1.get(tuple(a - b for a, b in zip(nu, c2)))
            if m1:
                total += m1 * m2
        if total:
            out[nu] = total
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3",
                                   "G2", "F4"])
def test_rho_shifts_match_inverse_cartan(label):
    rs = build_root_system(label)
    els, maps = enumerate_weyl(rs), shift_maps(rs)
    bound = 2 if rs.rank == 4 else 3
    for x in iproduct(range(bound), repeat=rs.rank):
        assert rho_shifts(maps, x) == _reference_rho_shifts(rs, els, x), x


def _corpus_sample(label, count):
    """About count pairs spread evenly over the method-agreement corpus of
    the type, which is in order of cost, with its dearest pair."""
    corpus = _pair_corpus(label, PRODUCT_DIM_CAP)
    return corpus[::max(1, len(corpus) // count)] + corpus[-1:]


@pytest.mark.parametrize("label", METHOD_TYPES)
def test_kernels_match_references_on_corpus_sample(label):
    rs = build_root_system(label)
    for lam, mu in _corpus_sample(label, 150):
        assert _decompose_steinberg(rs, lam, mu, Caps()) \
            == _reference_steinberg(rs, lam, mu), (lam, mu)
        assert _char_product(rs, lam, mu, Caps()) \
            == _reference_char_product(rs, lam, mu), (lam, mu)


def test_character_cap_order_is_unchanged(rs, monkeypatch):
    # max(dim V(lam), dim V(mu)) <= d < dim V(lam + mu): the refusal names
    # V(lam + mu), and comes before its table is built
    lam, mu = rs.rho, rs.fundamental(0)
    d = weyl_dimension(rs, lam)
    top = lam + mu
    top_dim = weyl_dimension(rs, top)
    assert weyl_dimension(rs, mu) <= d < top_dim
    built = []
    real_table = characters._table

    def recording_table(rs_, coords):
        built.append(coords)
        return real_table(rs_, coords)

    monkeypatch.setattr(characters, "_table", recording_table)
    with pytest.raises(CapExceeded) as err:
        decompose(rs, lam, mu, "character", Caps(max_char=d))
    assert str(err.value) == (f"dim V({top}) = {top_dim} exceeds max_char "
                              f"cap {d}; raise it with --max-dim")
    assert top.coords not in built
