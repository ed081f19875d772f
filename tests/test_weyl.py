import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from lierep.centralchar import central_character
from lierep.config import Caps
from lierep.determinants import shapovalov_det
from lierep.characters import partition_function
from lierep.enveloping import (casimir, chevalley_basis, hc_projection,
                               shapovalov, transpose)
from lierep.errors import CapExceeded
from lierep.hcmodules import (HCParams, class_zero, equivalent,
                              finite_dimensional, invariants, isoclass_count)
from lierep.irreps import (kprv_multiplicity, realize, v_extremes,
                           v_extremes_dim, zero_weight_spectrum)
from lierep.linalg import mat_inv
from lierep.rootsystem import (RootVector, Weight, build_root_system,
                               dominance_hull_equiv)
from lierep.tensor import generalized_prv
from lierep.weyl import (_mul, bruhat_leq, coset_fibers, double_cosets,
                         dominant_representative, enumerate_weyl, from_word,
                         hc_inf_character, identity_element, longest_element,
                         shift_maps, simple_reflection, twisted_orbit_id)


def mulclose(mats, mul):
    """Independent group-generation oracle: multiply until closed."""
    seen = set(mats)
    frontier = list(mats)
    while frontier:
        new = []
        for a in frontier:
            for b in mats:
                c = mul(a, b)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return seen


def brute_force_order(rs):
    def mul(a, b):
        n = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))
    gens = [simple_reflection(rs, i).matrix for i in range(rs.rank)]
    eye = identity_element(rs).matrix
    return len(mulclose(gens + [eye], mul))


@pytest.mark.parametrize("label,order,longest_len", [
    ("A1", 2, 1), ("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6)])
def test_enumeration_against_generation_oracle(label, order, longest_len):
    rs = build_root_system(label)
    assert brute_force_order(rs) == order
    els = enumerate_weyl(rs)
    assert len(els) == order
    assert len({w.matrix for w in els}) == order
    assert els[-1].length == longest_len


def enumerate_by_mat_mul(rs):
    """Breadth-first enumeration with a full matrix product per edge, as
    weyl._enumerate_cached did before it replaced one column per step."""
    gens = [simple_reflection(rs, i).matrix for i in range(rs.rank)]
    eye = identity_element(rs).matrix
    words = {eye: ()}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in sorted(frontier, key=words.__getitem__):
            for i, g in enumerate(gens):
                prod = _mul(m, g)
                if prod not in words:
                    words[prod] = words[m] + (i,)
                    nxt.append(prod)
        frontier = nxt
    return sorted(words.items(), key=lambda mw: (len(mw[1]), mw[1]))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C2", "C3", "C4", "D4", "G2", "F4"])
def test_column_replacement_enumeration_matches_mat_mul(label):
    rs = build_root_system(label)
    assert [(w.matrix, w.word) for w in enumerate_weyl(rs)] \
        == enumerate_by_mat_mul(rs)


def test_enumeration_cap():
    rs = build_root_system("E6")
    with pytest.raises(CapExceeded):
        enumerate_weyl(rs)
    # recoverable: orbit machinery still works past the cap
    assert len(rs.orbit(rs.fundamental(0))) == 27


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3",
                                   "G2", "F4"])
def test_shift_maps_match_apply(label):
    # S_w sends y to the root coordinates of w(y) - y, so its column j is
    # w(omega_j) - omega_j, and the signs follow enumerate_weyl's order
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    maps = shift_maps(rs)
    assert len(maps) == len(els)
    probes = [rs.fundamental(j) for j in range(rs.rank)]
    probes += [rs.rho, Weight(tuple(range(2, rs.rank + 2)))]
    for w, (sign, m) in zip(els, maps):
        assert sign == w.sign
        for y in probes:
            got = tuple(sum(a * b for a, b in zip(row, y)) for row in m)
            assert got == rs.root_lattice_coords(w.apply(y) - y), (w, y)
    assert shift_maps(rs) is maps  # built once per type


def test_shift_maps_cap():
    with pytest.raises(CapExceeded, match="--max-weyl"):
        shift_maps(build_root_system("A3"), Caps(max_weyl=23))
    assert len(shift_maps(build_root_system("A3"), Caps(max_weyl=24))) == 24


def test_lengths_equal_inversions(rs):
    for w in enumerate_weyl(rs):
        assert w.length == w.inversions()


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "B4", "C4", "F4"])
def test_words_and_inverses_beyond_rank_two(label):
    # the enumeration's breadth-first words are the reference for the words
    # read from the dominant ascent, and mat_inv for inverse()
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    by_matrix = {w.matrix: w for w in els}
    for w in els:
        v = from_word(rs, w.word)
        assert v == w and v.word == w.word
        assert w.length == w.inversions()
        inv = by_matrix[tuple(map(tuple, mat_inv(w.matrix)))]
        assert w.inverse() == inv and w.inverse().word == inv.word


def test_canonical_words_are_minimal_and_lex_least(rs):
    # oracle: breadth-first over ALL words, collecting every shortest word
    # per element; the stored word must be the lexicographically least one
    els = enumerate_weyl(rs)
    longest = els[-1].length
    words_by_m = {w.matrix: [] for w in els}
    frontier = {identity_element(rs).matrix: [()]}
    for _ in range(longest):
        nxt = {}
        for m, words in frontier.items():
            for i in range(rs.rank):
                w2 = from_word(rs, words[0] + (i,))
                nxt.setdefault(w2.matrix, []).extend(
                    w + (i,) for w in words)
        frontier = nxt
        for m, ws in frontier.items():
            words_by_m[m] = words_by_m[m] or ws
    for w in els:
        if not w.word:
            continue
        candidates = [t for t in words_by_m[w.matrix] if len(t) == w.length]
        assert w.word == min(candidates)


def test_longest_element_properties(rs):
    w0 = longest_element(rs)
    els = enumerate_weyl(rs)
    assert w0 == els[-1]
    assert (w0 * w0).is_identity
    assert w0.apply(rs.rho) == -rs.rho


def test_a2_longest_swaps_fundamentals(a2):
    w0 = longest_element(a2)
    assert w0.apply(Weight((1, 0))) == Weight((0, -1))


def test_a1_longest_negates(a1):
    w0 = longest_element(a1)
    for z in range(-3, 4):
        assert w0.apply(Weight((z,))) == Weight((-z,))


def test_composition_and_sign(rs):
    els = enumerate_weyl(rs)
    for a in els[:6]:
        for b in els[:6]:
            assert (a * b).sign == a.sign * b.sign


def test_inverse(rs):
    for w in enumerate_weyl(rs):
        assert (w * w.inverse()).is_identity


def test_dominant_representative_trivial(rs):
    lam = rs.rho
    dom, w = dominant_representative(rs, lam)
    assert dom == lam and w.is_identity


def test_dominant_representative_a1(a1):
    for n in range(1, 5):
        dom, w = dominant_representative(a1, Weight((-n,)))
        assert dom == Weight((n,))
        assert w.word == (0,)


def test_dominant_representative_a2_example(a2):
    dom, w = dominant_representative(a2, Weight((1, -2)))
    # full-orbit oracle: the unique dominant member
    orbit = a2.orbit(Weight((1, -2)))
    doms = [v for v in orbit if v.is_dominant]
    assert doms == [Weight((1, 1))]
    assert dom == Weight((1, 1))
    assert w.apply(Weight((1, -2))) == dom


def test_dominant_representative_orbit_constant(rs):
    lam = Weight(tuple((-1) ** i * (i + 1) for i in range(rs.rank)))
    target, _ = dominant_representative(rs, lam)
    for v in rs.orbit(lam):
        dom, w = dominant_representative(rs, v)
        assert dom == target
        assert w.apply(v) == dom


@given(st.data())
def test_dominant_ascent_matches_representative(rs, data):
    coord = st.one_of(st.integers(-6, 6),
                      st.fractions(-4, 4, max_denominator=3))
    coords = tuple(data.draw(coord) for _ in range(rs.rank))
    rep, word = rs.dominant_ascent(coords)
    dom, w = dominant_representative(rs, Weight(coords))
    assert Weight(rep) == dom and dom.is_dominant
    assert (-1) ** len(word) == w.sign
    assert w.apply(Weight(coords)) == dom


@given(st.data())
def test_twisted_action_composition(rs, data):
    els = enumerate_weyl(rs)
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    lam = Weight(data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank)))
    assert (a * b).twisted(lam) == a.twisted(b.twisted(lam))
    assert identity_element(rs).twisted(lam) == lam


def test_twisted_action_sl2(a1):
    s = simple_reflection(a1, 0)
    for z in range(-4, 5):
        assert s.twisted(Weight((z,))) == Weight((-z - 2,))


def test_twisted_longest_at_zero(rs):
    w0 = longest_element(rs)
    assert w0.twisted(rs.zero_weight()) == -2 * rs.rho


def test_twisted_orbit_size_divides_group_order(rs):
    lam = rs.fundamental(0)
    orbit = {w.twisted(lam).coords for w in enumerate_weyl(rs)}
    assert len(enumerate_weyl(rs)) % len(orbit) == 0


def class_double_cosets(rs, lam, mu):
    """Oracle: (representatives, classes) of W_lam \\ W / W_mu, each class
    built as the product set W_lam w W_mu from the stabilizers of any two
    weights, its representative the first element in (length, word)
    order."""
    els = enumerate_weyl(rs)
    stab_l = [w for w in els if w.apply(lam) == lam]
    stab_r = [w for w in els if w.apply(mu) == mu]
    remaining = set(els)
    reps, classes = [], []
    for w in els:
        if w not in remaining:
            continue
        cls = frozenset(a * w * b for a in stab_l for b in stab_r)
        remaining -= cls
        reps.append(w)
        classes.append(cls)
    return tuple(reps), classes


def test_double_cosets_full_group(a2):
    zero = a2.zero_weight()
    dc = double_cosets(a2, zero, zero)
    assert dc == (identity_element(a2),)
    reps, classes = class_double_cosets(a2, zero, zero)
    assert reps == dc and len(classes[0]) == 6


def test_double_cosets_regular(rs):
    dc = double_cosets(rs, rs.rho, 2 * rs.rho)
    assert len(dc) == rs.weyl_group_order


def test_double_cosets_a2_fundamental_pair(a2):
    dc = double_cosets(a2, Weight((1, 0)), Weight((0, 1)))
    assert len(dc) == 2
    # explicit partition of the six elements
    reps, classes = class_double_cosets(a2, Weight((1, 0)), Weight((0, 1)))
    assert reps == dc
    assert sorted(len(c) for c in classes) == [2, 4]
    assert sum(len(c) for c in classes) == 6
    # representatives are minimal length in their class
    for rep, cls in zip(dc, classes):
        assert rep.length == min(w.length for w in cls)


def test_coset_fibers_a2_adjoint_square(a2):
    # the six translates rho + w(rho) of 8 (x) 8: two land on the adjoint,
    # which occurs there twice
    assert coset_fibers(a2, a2.rho, a2.rho) == {
        (2, 2): 1, (0, 3): 1, (3, 0): 1, (1, 1): 2, (0, 0): 1}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3",
                                   "G2"])
def test_double_cosets_match_classes_on_stabilizer_patterns(label):
    # every 0/1 pattern is a stabilizer type: lam_i = 0 iff s_i fixes lam
    rs = build_root_system(label)
    patterns = [Weight(c) for c in product((0, 1), repeat=rs.rank)]
    for lam in patterns:
        for mu in patterns:
            assert double_cosets(rs, lam, mu) == \
                class_double_cosets(rs, lam, mu)[0], (lam, mu)


@pytest.mark.parametrize("lam,mu", [
    ((1, 1, 1, 1), (1, 1, 1, 1)), ((1, 0, 1, 1), (1, 1, 0, 1)),
    ((0, 1, 1, 1), (1, 1, 1, 0)), ((1, 1, 0, 0), (0, 1, 1, 1))])
def test_double_cosets_match_classes_f4(lam, mu):
    rs = build_root_system("F4")
    lam, mu = Weight(lam), Weight(mu)
    assert double_cosets(rs, lam, mu) == class_double_cosets(rs, lam, mu)[0]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
@given(data=st.data())
def test_isoclass_count_matches_classes_off_dominant(label, data):
    # rational weights, zeros and cancelling pairings frequent, so that
    # non-trivial stabilizers off the dominant chamber are common
    rs = build_root_system(label)
    coord = st.sampled_from([-2, -1, 0, 0, 1, 2, Fraction(1, 2),
                             Fraction(-1, 2), Fraction(-3, 2)])
    lam = Weight(tuple(data.draw(coord) for _ in range(rs.rank)))
    mu = Weight(tuple(data.draw(coord) for _ in range(rs.rank)))
    assert isoclass_count(rs, lam, mu) == \
        len(class_double_cosets(rs, lam, mu)[0])


def test_bruhat_order_a2(a2):
    els = {w.word: w for w in enumerate_weyl(a2)}
    w0 = els[(0, 1, 0)]
    for w in els.values():
        assert bruhat_leq(w, w0)
        assert bruhat_leq(els[()], w)
    assert not bruhat_leq(els[(0, 1)], els[(0,)])
    assert bruhat_leq(els[(0,)], els[(0, 1)])
    assert not bruhat_leq(els[(0,)], els[(1,)])


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_bruhat_order_matches_reflection_closure(label):
    # oracle: u <= w iff a chain u -> ut -> ... -> w exists, each step a
    # reflection t that raises the length
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    reflections = {w * simple_reflection(rs, i) * w.inverse()
                   for w in els for i in range(rs.rank)}
    above = {w: {w} for w in els}
    for w in reversed(els):  # longest first, so every upper set is final
        for t in reflections:
            wt = w * t
            if wt.length > w.length:
                above[w] |= above[wt]
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == (w in above[u])


def subword_bruhat_leq(u, w):
    """Oracle: the subword property, trying every subword of w's canonical
    word with as many letters as u's."""
    k = len(u.word)
    if k > len(w.word):
        return False
    if k == len(w.word):
        return u.word == w.word
    return any(from_word(w.rs, (w.word[p] for p in pos)) == u
               for pos in combinations(range(len(w.word)), k))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3",
                                   "G2"])
def test_bruhat_order_matches_subwords(label):
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == subword_bruhat_leq(u, w), (u, w)


def test_bruhat_order_f4_long_sample():
    # 120 pairs with l(w) = 20 and l(u) = 10, u spelled by a subword of w's
    # word, so u <= w; elements of equal length are incomparable unless
    # equal
    rs = build_root_system("F4")
    top = [w for w in enumerate_weyl(rs) if w.length == 20]
    gen = random.Random(20)
    pairs = []
    while len(pairs) < 120:
        w = gen.choice(top)
        pos = sorted(gen.sample(range(20), 10))
        u = from_word(rs, [w.word[p] for p in pos])
        if u.length == 10:
            pairs.append((u, w))
    for u, w in pairs:
        assert bruhat_leq(u, w)
        assert not bruhat_leq(w, u)
    for (u, w), (v, x) in zip(pairs, pairs[1:]):
        if u != v:
            assert not bruhat_leq(u, v)
        if w != x:
            assert not bruhat_leq(w, x)


A2, B2 = build_root_system("A2"), build_root_system("B2")
W0, W1, W3 = A2.zero_weight(), Weight((1,)), Weight((1, 1, 1))
W11 = Weight((1, 1))
BAD_INPUTS = {
    # each of these used to return an answer on A2, or an IndexError
    "bruhat_mixed_systems": lambda: bruhat_leq(from_word(A2, (0, 1)),
                                               from_word(B2, (0, 1, 0))),
    "double_cosets_short": lambda: double_cosets(A2, W1, A2.zero_weight()),
    "double_cosets_long": lambda: double_cosets(A2, W3, A2.zero_weight()),
    "double_cosets_mu": lambda: double_cosets(A2, A2.zero_weight(), W1),
    "double_cosets_non_dominant": lambda: double_cosets(
        A2, Weight((1, -1)), A2.zero_weight()),
    "isoclass_count": lambda: isoclass_count(A2, W3, A2.zero_weight()),
    "twisted_orbit_id": lambda: twisted_orbit_id(A2, W3),
    "dominance_hull_equiv": lambda: dominance_hull_equiv(
        A2, W3, Weight((0, 0))),
    "dominance_hull_equiv_orbit": lambda: dominance_hull_equiv(
        A2, Weight((1, 1)), A2.dominant_in_orbit(W3)),
    "dominant_representative": lambda: dominant_representative(A2, W1),
    "orbit": lambda: A2.orbit(W1),
    "invariants": lambda: invariants(A2, HCParams(W3, Weight((0, 0, 0)))),
    "apply_short": lambda: longest_element(A2).apply(W1),
    "apply_long": lambda: longest_element(A2).apply(W3),
    "apply_root_long": lambda: simple_reflection(A2, 0).apply_root(
        RootVector((1, 1, 1))),
    "finite_dimensional": lambda: finite_dimensional(A2, HCParams(W1, W1)),
    "v_extremes_dim_nu_long": lambda: v_extremes_dim(A2, W11, W0, W3),
    "v_extremes_dim_nu_short": lambda: v_extremes_dim(A2, W11, W0, W1),
    "v_extremes_dim_mu_non_dominant": lambda: v_extremes_dim(
        A2, Weight((-1, 0)), Weight((-1, 0)), W0),
    "v_extremes_gamma_long": lambda: v_extremes(
        A2, realize(A2, W11), W3, W0),
    "v_extremes_nu_long": lambda: v_extremes(A2, realize(A2, W11), W0, W3),
    "equivalent_short": lambda: equivalent(
        A2, HCParams(W11, W0), HCParams(W1, W1)),
    "class_zero": lambda: class_zero(A2, W1),
    "hc_inf_character": lambda: hc_inf_character(A2, W1, W0),
    "hc_inf_character_non_integral_nu": lambda: hc_inf_character(
        A2, W11, Weight((Fraction(1, 2), 0))),
    "shapovalov_det_unknown_mode": lambda: shapovalov_det(
        A2, RootVector((1, 1)), mode="cofactor"),
    "zero_weight_spectrum_past_last_root": lambda: zero_weight_spectrum(
        A2, realize(A2, W11), 7),
    "zero_weight_spectrum_negative_root": lambda: zero_weight_spectrum(
        A2, realize(A2, W11), -1),
    "v_extremes_foreign_realization": lambda: v_extremes(
        A2, realize(B2, W11), W0, W11),
    "zero_weight_spectrum_foreign_realization": lambda: zero_weight_spectrum(
        A2, realize(B2, Weight((0, 2))), 0),
    "central_character_foreign_basis": lambda: central_character(
        A2, chevalley_basis(B2), W11, casimir(chevalley_basis(B2))),
    "hc_projection_foreign_element": lambda: hc_projection(
        chevalley_basis(A2), casimir(chevalley_basis(B2))),
    "transpose_foreign_element": lambda: transpose(
        chevalley_basis(A2), chevalley_basis(B2).e(0)),
    "shapovalov_foreign_elements": lambda: shapovalov(
        chevalley_basis(A2), chevalley_basis(B2).f(0),
        chevalley_basis(B2).f(0)),
    # these raised KeyError, or took the "-" path and answered (0, [])
    "pairing_not_a_root": lambda: A2.pairing(Weight((1, 0)),
                                             RootVector((2, 0))),
    "pairing_negative_root": lambda: A2.pairing(Weight((1, 0)),
                                                RootVector((-1, 0))),
    "v_extremes_unknown_sign": lambda: v_extremes(
        A2, realize(A2, W11), W0, W0, sign="x"),
}
# RootSystem's message, which these cases must carry, not Python's
BAD_INPUT_MESSAGES = {
    "v_extremes_dim_mu_non_dominant": "must be dominant integral",
    "class_zero": "1 coordinates; A2 needs 2",
    "hc_inf_character": "1 coordinates; A2 needs 2",
    "hc_inf_character_non_integral_nu": "nu must be integral",
    "shapovalov_det_unknown_mode": "unknown mode 'cofactor'",
    "zero_weight_spectrum_past_last_root": "root index 7 not in 0..2",
    "zero_weight_spectrum_negative_root": "root index -1 not in 0..2",
    "v_extremes_foreign_realization": "different root systems",
    "zero_weight_spectrum_foreign_realization": "different root systems",
    "central_character_foreign_basis": "different root systems",
    "hc_projection_foreign_element": "not in the enveloping algebra",
    "transpose_foreign_element": "not in the enveloping algebra",
    "shapovalov_foreign_elements": "not in the enveloping algebra",
    "pairing_not_a_root": r"root \(2, 0\) is not a positive root of A2",
    "pairing_negative_root": r"root \(-1, 0\) is not a positive root of A2",
    "v_extremes_unknown_sign": "unknown sign 'x'",
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_wrong_rank_and_mixed_systems_raise(name):
    with pytest.raises(ValueError, match=BAD_INPUT_MESSAGES.get(name)):
        BAD_INPUTS[name]()


@pytest.mark.parametrize("call", [generalized_prv, kprv_multiplicity])
def test_a_word_that_is_no_weyl_element_is_a_type_error(call):
    # a bare tuple carries no root system; this raised AttributeError
    with pytest.raises(TypeError, match="tuple carries no root system"):
        call(A2, W11, W11, (0,))


@pytest.mark.parametrize("call", [
    # each raised AttributeError
    lambda: transpose(chevalley_basis(A2), 1),
    lambda: hc_projection(chevalley_basis(A2), None),
    lambda: shapovalov(chevalley_basis(A2), 1, 1),
    lambda: casimir(A2),
    lambda: central_character(A2, chevalley_basis(A2), W11, 1),
    lambda: equivalent(A2, (1, 0), (1, 0)),
    lambda: invariants(A2, Weight((1, 0))),
    lambda: finite_dimensional(A2, (1, 0)),
    lambda: HCParams((1, 0), (0, 0)),
    # each was accepted and answered
    lambda: RootVector(("1", "0")),
    lambda: RootVector((True, 0)),
    lambda: partition_function(A2, ("1", "1")),
    lambda: shapovalov_det(A2, (True, 0)),
], ids=["transpose", "hc_projection", "shapovalov", "casimir",
        "central_character", "equivalent", "invariants", "finite_dimensional",
        "HCParams", "RootVector_str", "RootVector_bool",
        "partition_function_str", "shapovalov_det_bool"])
def test_an_argument_of_the_wrong_type_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()
