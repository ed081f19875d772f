import copy
import re
import sys
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lierep.rootsystem import RootVector, Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element
from lierep.hpoly import HPoly
from lierep.errors import InvariantViolation
from lierep.linalg import mat_inv
from lierep.enveloping import (MAX_RANK, BracketTable, ChevalleyBasis,
                               PBWAlgebra, UElement, _h_poly_from_terms,
                               casimir, casimir_eigenvalue, chevalley_basis,
                               hc_projection, is_central, normal_form,
                               shapovalov, transpose, twisted_poly)

from oracles import (check_jacobi, check_string_magnitudes,
                     check_transpose_compatible, hc_projection_by_exponents,
                     mul_by_exponents, straighten_by_exponents,
                     transpose_by_straightening)

RANK_LE_3 = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]
# every type of rank <= MAX_RANK: the only Chevalley bases the engine builds
ENVELOPING_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                    "C4", "D4", "F4", "G2"]


def _reference_mul(u, v):
    """Product by the pair loop: both words and both block bounds are
    rebuilt for every pair of terms, and each word is straightened on
    exponent tuples (the oracle of UElement.__mul__)."""
    alg = u.algebra
    out, memo = {}, {}
    for e1, c1 in u.terms.items():
        for e2, c2 in v.terms.items():
            last = max((p for p, e in enumerate(e1) if e), default=-1)
            first = next((p for p, e in enumerate(e2) if e), alg.dim)
            if last <= first:
                prod = {tuple(a + b for a, b in zip(e1, e2)): 1}
            else:
                prod = straighten_by_exponents(
                    alg, alg.monomial_word(e1) + alg.monomial_word(e2), memo)
            for e, c in prod.items():
                out[e] = out.get(e, 0) + c1 * c2 * c
    return UElement(alg, out)


def _reference_substitute(poly, rows, consts):
    """Term-by-term substitution, one exponent-tuple product per unit of
    exponent (the oracle of HPoly.substitute_affine)."""
    n = poly.nvars
    images = [HPoly.linear(rows[i], consts[i]) for i in range(n)]
    out = HPoly.constant(n, 0)
    for exps, c in poly.terms.items():
        term = HPoly.constant(n, c)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = mul_by_exponents(term, images[i])
        out = out + term
    return out


def _reference_evaluate(poly, values):
    """Value by Fraction arithmetic, term by term (the oracle of
    HPoly.evaluate)."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            if e:
                term *= Fraction(v) ** e
        total += term
    return total


def test_sl2_defining_relations(a1):
    cb = chevalley_basis(a1)
    e, f, h = cb.e(0), cb.f(0), cb.h(0)
    assert h.commutator(e) == 2 * e
    assert h.commutator(f) == (-2) * f
    assert e.commutator(f) == h


def test_sl2_straightening_examples(a1):
    cb = chevalley_basis(a1)
    e, f, h = cb.e(0), cb.f(0), cb.h(0)
    assert e * f == f * e + h
    assert e * f * f == f * f * e + 2 * (f * h) - 2 * f
    one = cb.one()
    assert (f * e) * one == f * e


def test_straightening_stack_grows_with_the_degree():
    # <f^40, f^40> = e^40 f^40 on v_h, in an algebra whose table no other
    # test has filled, with the stack 150 frames deeper than here: a stack
    # that grew with the number of swaps (about 40^2) would overflow it
    cb = ChevalleyBasis(build_root_system("A1"))
    f40 = cb.f(0) ** 40
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        got = shapovalov(cb, f40, f40)
    finally:
        sys.setrecursionlimit(limit)
    want = HPoly.constant(1, factorial(40))
    for k in range(40):
        want = want * HPoly(1, {(1,): 1, (0,): -k})
    assert got == want


def test_a2_structure_constants_unit(a2):
    # adjacent root strings have p = 0, so every |N| = 1
    cb = chevalley_basis(a2)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            br = cb.table.bracket(cb.idx_e(a), cb.idx_e(b))
            s = tuple(x + y for x, y in zip(a2.positive_roots[a].coeffs,
                                            a2.positive_roots[b].coeffs))
            if s in a2.root_index:
                (idx, val), = br.items()
                assert abs(val) == 1
            else:
                assert br == {}


def test_enveloping_types_are_every_type_the_engine_builds():
    built = []
    for series in "ABCDEFG":
        for rank in range(1, 9):
            try:
                rs = build_root_system(f"{series}{rank}")
            except ValueError:
                continue
            if rank <= MAX_RANK:
                assert chevalley_basis(rs).dim == 2 * rs.nroots + rank
                built.append(rs.label)
            else:
                with pytest.raises(ValueError, match=f"rank <= {MAX_RANK}"):
                    chevalley_basis(rs)
    assert sorted(built) == sorted(ENVELOPING_TYPES)


# the library builds its Chevalley tables unchecked; these tests check every
# table it can build

@pytest.mark.parametrize("label", ENVELOPING_TYPES)
def test_jacobi_holds_on_every_table(label):
    check_jacobi(chevalley_basis(build_root_system(label)).table)


@pytest.mark.parametrize("label", ENVELOPING_TYPES)
def test_transpose_compatible_on_every_table(label):
    check_transpose_compatible(chevalley_basis(build_root_system(label)))


@pytest.mark.parametrize("label", ENVELOPING_TYPES)
def test_root_string_magnitudes_on_every_table(label):
    # |N| = p+1 for every two roots whose sum is a root, in both Borels and
    # across them
    check_string_magnitudes(chevalley_basis(build_root_system(label)).table)


@pytest.mark.parametrize("label", ENVELOPING_TYPES)
def test_structure_constants_are_ints(label):
    table = chevalley_basis(build_root_system(label)).table.table
    assert all(type(c) is int for entry in table.values()
               for c in entry.values())


def _scale_first_ff_entry(cb, factor):
    """A copy of cb whose first [f_a, f_b] table entry is multiplied by
    factor, and that entry's key."""
    twin = copy.copy(cb)
    table = dict(cb.table.table)
    key = next((i, j) for i, j in table if j < cb.m)
    table[key] = {k: factor * c for k, c in table[key].items()}
    twin.table = BracketTable(cb.table.names, table, cb.table.weights)
    return twin, key


@pytest.mark.parametrize("label, triple", [
    ("A2", (0, 1, 5)), ("B2", (0, 1, 6)), ("G2", (0, 1, 3))])
def test_jacobi_check_rejects_a_flipped_bracket_sign(label, triple):
    cb = chevalley_basis(build_root_system(label))
    twin, _ = _scale_first_ff_entry(cb, -1)
    check_jacobi(cb.table)  # the unflipped table passes
    with pytest.raises(InvariantViolation,
                       match=re.escape("triple (%d,%d,%d)" % triple)):
        check_jacobi(twin.table)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_string_magnitude_check_rejects_a_doubled_bracket(label):
    # a flipped sign keeps every magnitude, so the mutation doubles the entry
    cb = chevalley_basis(build_root_system(label))
    twin, (i, j) = _scale_first_ff_entry(cb, 2)
    with pytest.raises(InvariantViolation, match=re.escape(
            f"[{cb.table.names[i]}, {cb.table.names[j]}]")):
        check_string_magnitudes(twin.table)


def test_root_string_magnitudes_g2(g2):
    cb = chevalley_basis(g2)
    for a in range(g2.nroots):
        for b in range(g2.nroots):
            if a == b:
                continue
            s = tuple(x + y for x, y in zip(g2.positive_roots[a].coeffs,
                                            g2.positive_roots[b].coeffs))
            if s not in g2.root_index:
                continue
            (idx, val), = cb.table.bracket(cb.idx_e(a), cb.idx_e(b)).items()
            # p = string length downward
            p = 0
            cur = tuple(x - y for x, y in zip(g2.positive_roots[b].coeffs,
                                              g2.positive_roots[a].coeffs))
            while cur in g2.root_index or \
                    tuple(-t for t in cur) in g2.root_index:
                p += 1
                cur = tuple(x - y for x, y in
                            zip(cur, g2.positive_roots[a].coeffs))
            assert abs(val) == p + 1


def test_transpose_on_generators(rs):
    cb = chevalley_basis(rs)
    for i in range(rs.rank):
        assert transpose(cb, cb.e(i)) == cb.f(i)
        assert transpose(cb, cb.f(i)) == cb.e(i)
        assert transpose(cb, cb.h(i)) == cb.h(i)


def test_transpose_is_involution_on_root_vectors(rs):
    cb = chevalley_basis(rs)
    for k in range(rs.nroots):
        u = cb.e_root(k)
        assert transpose(cb, transpose(cb, u)) == u
        assert transpose(cb, u) == cb.f_root(k)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2",
                                   "B3", "C3", "D4", "F4"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_transpose_matches_straightening(label, data):
    # random multi-term elements: up to four monomials of degree <= 4 with
    # integer and fractional coefficients
    cb = chevalley_basis(build_root_system(label))
    mono = st.lists(st.integers(0, cb.dim - 1), max_size=4)
    terms = {}
    for word in data.draw(st.lists(mono, min_size=1, max_size=4)):
        exps = [0] * cb.dim
        for p in word:
            exps[p] += 1
        terms[tuple(exps)] = data.draw(st.one_of(
            st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)))
    u = UElement(cb.algebra, terms)
    assert transpose(cb, u).terms == transpose_by_straightening(cb, u)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_transpose_check_rejects_a_flipped_bracket_sign(label):
    cb = chevalley_basis(build_root_system(label))
    check_transpose_compatible(copy.copy(cb))  # the copied table passes
    twin, _ = _scale_first_ff_entry(cb, -1)
    with pytest.raises(InvariantViolation, match="transpose"):
        check_transpose_compatible(twin)


def test_transpose_example_sl2(a1):
    cb = chevalley_basis(a1)
    e, f = cb.e(0), cb.f(0)
    assert transpose(cb, e * f) == f * e + cb.h(0)  # iota(ef) = fe, normal form


@given(st.data())
@settings(max_examples=30)
def test_transpose_antihomomorphism(rs, data):
    cb = chevalley_basis(rs)
    gens = [cb.e(i) for i in range(rs.rank)] + \
        [cb.f(i) for i in range(rs.rank)] + [cb.h(0)]
    w1 = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
    w2 = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
    u = normal_form(cb, w1)
    v = normal_form(cb, w2)
    assert transpose(cb, u * v) == transpose(cb, v) * transpose(cb, u)


@given(st.data())
@settings(max_examples=30)
def test_multiplication_associative(rs, data):
    cb = chevalley_basis(rs)
    gens = [cb.e(i) for i in range(rs.rank)] + \
        [cb.f(i) for i in range(rs.rank)] + [cb.h(rs.rank - 1)]
    xs = [data.draw(st.sampled_from(gens)) for _ in range(4)]
    x, y, z, t = xs
    assert ((x * y) * (z * t)) == (x * (y * (z * t)))


def test_hc_projection_examples(a1):
    cb = chevalley_basis(a1)
    e, f, h = cb.e(0), cb.f(0), cb.h(0)
    assert hc_projection(cb, casimir(cb)) == HPoly(1, {(2,): 1, (1,): 2})
    assert hc_projection(cb, h) == HPoly(1, {(1,): 1})
    assert hc_projection(cb, f * e) == HPoly(1, {})
    with pytest.raises(ValueError):
        hc_projection(cb, e)


def test_hc_projection_multiplicative_on_center(rs):
    cb = chevalley_basis(rs)
    delta = casimir(cb)
    p1 = hc_projection(cb, delta)
    assert hc_projection(cb, delta * delta) == p1 * p1


def test_hc_projection_opposite_borel(a1):
    from lierep.weyl import longest_element
    cb = chevalley_basis(a1)
    e, f, h = cb.e(0), cb.f(0), cb.h(0)
    w0 = longest_element(a1)
    # relative to the opposite Borel, ef is the ordered product and
    # beta(e f) = 0 while beta(f e) picks up the Cartan correction
    assert hc_projection(cb, e * f, w0) == HPoly(1, {})
    assert hc_projection(cb, f * e, w0) == HPoly(1, {(1,): -1})
    # on the Casimir: the opposite projection is the lowest-weight scalar
    # h^2 - 2h, i.e. the standard one precomposed with plain negation
    opp = hc_projection(cb, casimir(cb), w0)
    std = hc_projection(cb, casimir(cb))
    assert opp == HPoly(1, {(2,): 1, (1,): -2})
    for z in range(-3, 4):
        assert opp.evaluate([z]) == std.evaluate([-z])


def test_hc_projection_rejects_a_foreign_element(a2, b2):
    cb = chevalley_basis(a2)
    with pytest.raises(ValueError, match="different root systems"):
        hc_projection(cb, casimir(cb), longest_element(b2))


def test_twisted_poly_rejects_a_foreign_element(a2, b2):
    proj = hc_projection(chevalley_basis(a2), casimir(chevalley_basis(a2)))
    with pytest.raises(ValueError, match="different root systems"):
        twisted_poly(a2, longest_element(b2), proj)


def test_dot_invariance_of_casimir_projection(rs):
    cb = chevalley_basis(rs)
    proj = hc_projection(cb, casimir(cb))
    for w in enumerate_weyl(rs):
        assert twisted_poly(rs, w, proj) == proj


def test_casimir_sl2_exact(a1):
    cb = chevalley_basis(a1)
    e, f, h = cb.e(0), cb.f(0), cb.h(0)
    assert casimir(cb) == 4 * (f * e) + h * h + 2 * h
    assert hc_projection(cb, casimir(cb)).evaluate([3]) == 15
    for z in range(-3, 6):
        assert casimir_eigenvalue(a1, Weight((z,))) == z * z + 2 * z


@pytest.mark.parametrize("label", ENVELOPING_TYPES)
def test_casimir_central(label):
    cb = chevalley_basis(build_root_system(label))
    assert is_central(cb, casimir(cb))


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4",
    "G2", "E6", "E7", "E8"])
def test_casimir_cartan_form_is_the_inverse_of_b(label):
    # casimir reads B^{-1} for B(h_i, h_j) = A_ij / d_j from the root system
    rs = build_root_system(label)
    bmat = [[Fraction(rs.cartan[i][j], rs.sym[j]) for j in range(rs.rank)]
            for i in range(rs.rank)]
    assert mat_inv(bmat) == [[Fraction(x, rs.form_den) for x in row]
                             for row in rs.form_num]


def test_casimir_eigenvalue_proportional_to_form(a2):
    cb = chevalley_basis(a2)
    proj = hc_projection(cb, casimir(cb))
    for coords in [(1, 0), (1, 1), (2, 1), (0, 3)]:
        lam = Weight(coords)
        expect = 2 * (a2.inner(lam, lam) + 2 * a2.inner(lam, a2.rho))
        assert proj.evaluate(list(coords)) == expect


def test_shapovalov_values_sl2(a1):
    cb = chevalley_basis(a1)
    f = cb.f(0)
    one = cb.one()
    assert shapovalov(cb, one, one) == HPoly(1, {(0,): 1})
    assert shapovalov(cb, f, f) == HPoly(1, {(1,): 1})
    assert shapovalov(cb, f * f, f * f) == HPoly(1, {(2,): 2, (1,): -2})


def test_shapovalov_symmetric(a2):
    cb = chevalley_basis(a2)
    f1, f2 = cb.f(0), cb.f(1)
    f12 = cb.f_root(a2.root_index[(1, 1)])
    basis = [f1 * f2, f2 * f1, f12, f1 * f2 * f1]
    for b1 in basis:
        for b2 in basis:
            assert shapovalov(cb, b1, b2) == shapovalov(cb, b2, b1)


def test_shapovalov_symmetric_on_full_bases(rs):
    # every lowering-monomial Gram matrix up to height 4 is symmetric
    from itertools import product as iproduct
    from lierep.determinants import _lowering_gram
    if rs.rank > 2:
        return
    depths = [c for c in iproduct(range(5), repeat=rs.rank)
              if 0 < sum(c) <= 4]
    for beta in depths[:6]:
        gram = _lowering_gram(rs, beta)
        assert all(row[j] == gram[j][i] for i, row in enumerate(gram)
                   for j in range(i, len(gram)))


def test_shapovalov_cross_weight_vanishes(a2):
    cb = chevalley_basis(a2)
    assert shapovalov(cb, cb.f(0), cb.f(1)).is_zero


def test_weight_grading(a2):
    cb = chevalley_basis(a2)
    u = cb.f(0) * cb.f(1)
    assert u.weight() == (-1, -1)
    assert (cb.e(0) * cb.f(0)).weight() == (0, 0)
    with pytest.raises(ValueError):
        (cb.e(0) + cb.f(0)).weight()


@pytest.mark.parametrize("label", RANK_LE_3)
def test_casimir_powers_match_pair_loop(label):
    cb = chevalley_basis(build_root_system(label))
    delta = casimir(cb)
    want = cb.one()
    for k in range(1, 4):
        want = _reference_mul(want, delta)
        assert delta ** k == want


@pytest.mark.parametrize("label", RANK_LE_3)
def test_generator_products_match_exponent_oracle(label):
    # every product of two and of three Chevalley generators
    cb = chevalley_basis(build_root_system(label))
    alg, memo = cb.algebra, {}
    gens = [cb.gen(b) for b in range(cb.dim)]
    for a, x in enumerate(gens):
        for b, y in enumerate(gens):
            xy = x * y
            assert xy.terms == straighten_by_exponents(alg, (a, b), memo)
            for c, z in enumerate(gens):
                assert (xy * z).terms == straighten_by_exponents(
                    alg, (a, b, c), memo)


# every depth of the module-algebra benchmark's Shapovalov strata
SHAPOVALOV_DEPTHS = [(label, (a, b)) for label, cap in
                     (("A2", 6), ("B2", 5), ("G2", 5))
                     for a in range(cap + 1) for b in range(cap + 1 - a)
                     if a + b]


@pytest.mark.parametrize("label,depth", SHAPOVALOV_DEPTHS)
def test_shapovalov_grams_match_exponent_oracle(label, depth):
    from lierep.determinants import _lowering_gram
    from lierep.characters import kostant_partitions as _monomials
    rs = build_root_system(label)
    cb = chevalley_basis(rs)
    pad = (0,) * (cb.dim - rs.nroots)  # the f-block leads
    els = [UElement(cb.algebra, {tuple(mono) + pad: 1})
           for mono in _monomials(rs, depth)]
    want = [[_h_poly_from_terms(cb, _reference_mul(transpose(cb, b1), b2).terms)
             for b2 in els] for b1 in els]
    assert _lowering_gram(rs, depth) == want


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_twisted_hc_projections_match_exponent_oracle(label):
    # each w-adapted order straightens in its own algebra with its own ids
    rs = build_root_system(label)
    cb = chevalley_basis(rs)
    u = casimir(cb) ** 2
    for w in enumerate_weyl(rs):
        assert hc_projection(cb, u, w) == hc_projection_by_exponents(cb, u, w)


def _stored_products(alg):
    """Every entry of the product table of `alg`, as (left exponents, right
    exponents, {exponent tuple: coeff})."""
    for i, row in enumerate(alg._rows):
        for j, flat in (row or {}).items():
            yield (alg._exps[i], alg._exps[j],
                   {alg._exps[k]: c for k, c in zip(flat[::2], flat[1::2])})


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_product_table_matches_exponent_oracle(label):
    # a basis of its own, so that this sequence alone fills the table
    from lierep.characters import kostant_partitions as _monomials
    rs = build_root_system(label)
    cb = ChevalleyBasis(rs)
    alg = cb.algebra
    powers = [casimir(cb) ** k for k in (1, 2, 3)]
    pad = (0,) * (cb.dim - rs.nroots)  # the f-block leads
    for depth in product(range(5), repeat=rs.rank):
        if 0 < sum(depth) <= 4:
            els = [UElement(alg, {tuple(mono) + pad: 1})
                   for mono in _monomials(rs, depth)]
            for b1 in els:
                for b2 in els:
                    shapovalov(cb, b1, b2)
    w0 = longest_element(rs)
    for u in powers:
        hc_projection(cb, u, w0)
    stored = list(_stored_products(alg))
    assert len(stored) > 100
    memo = {}
    for e1, e2, got in stored:
        word = alg.monomial_word(e1) + alg.monomial_word(e2)
        assert got == straighten_by_exponents(alg, word, memo)
    # a second algebra on the same basis, asked in the other order, with
    # ids of its own
    other = PBWAlgebra(cb.table, alg.order)
    for e1, e2, got in reversed(stored):
        flat = other.product(other.intern(e1), other.intern(e2))
        assert {other._exps[k]: c
                for k, c in zip(flat[::2], flat[1::2])} == got


def test_hc_projection_rejects_a_nonzero_weight(a2):
    cb = chevalley_basis(a2)
    with pytest.raises(ValueError, match="needs a weight-zero element"):
        hc_projection(cb, cb.e(0))
    with pytest.raises(ValueError, match="needs a weight-zero element"):
        hc_projection(cb, cb.e(0), longest_element(a2))


def test_hc_projection_rejects_an_inhomogeneous_element(a2):
    cb = chevalley_basis(a2)
    u = cb.e(0) + cb.f(0) * cb.e(0)
    with pytest.raises(ValueError, match="inhomogeneous element"):
        hc_projection(cb, u)
    with pytest.raises(ValueError, match="inhomogeneous element"):
        hc_projection(cb, u, longest_element(a2))


@given(st.data())
@settings(max_examples=40)
def test_products_match_pair_loop(rs, data):
    cb = chevalley_basis(rs)
    alg = cb.algebra

    def element():
        terms = {}
        for _ in range(data.draw(st.integers(0, 3))):
            exps = [0] * cb.dim
            for b in data.draw(st.lists(st.integers(0, cb.dim - 1),
                                        max_size=3)):
                exps[alg.pos[b]] += 1
            terms[tuple(exps)] = data.draw(
                st.fractions(-3, 3, max_denominator=3))
        return UElement(alg, terms)

    u, v = element(), element()
    assert u * v == _reference_mul(u, v)


@pytest.mark.parametrize("label", RANK_LE_3)
def test_twisted_projections_match_term_by_term(label, monkeypatch):
    rs = build_root_system(label)
    cb = chevalley_basis(rs)
    polys = [hc_projection(cb, casimir(cb) ** k) for k in (1, 2, 3)]
    polys.append(HPoly(rs.rank))
    els = enumerate_weyl(rs)
    got = [[twisted_poly(rs, w, p) for w in els] for p in polys]
    monkeypatch.setattr(HPoly, "substitute_affine", _reference_substitute)
    assert got == [[twisted_poly(rs, w, p) for w in els] for p in polys]
    # and every projection, the zero polynomial too, is dot-invariant
    assert all(q == p for p, row in zip(polys, got) for q in row)


SCALARS = st.one_of(st.integers(-2, 2),
                    st.fractions(-2, 2, max_denominator=3))


@given(st.data())
@settings(max_examples=40)
def test_substitute_affine_matches_term_by_term(data):
    n = data.draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * n), SCALARS, max_size=6))
    # one variable carries the whole degree (up to 24): the largest digit
    # of a packed monomial key
    deg = max((sum(e) for e in terms), default=0) or data.draw(
        st.integers(1, 6))
    j = data.draw(st.integers(0, n - 1))
    terms[tuple(deg if k == j else 0 for k in range(n))] = data.draw(
        SCALARS.filter(bool))
    rows = [[data.draw(SCALARS if data.draw(st.booleans()) else small)
             for _ in range(n)] for _ in range(n)]
    consts = [data.draw(st.fractions(-2, 2, max_denominator=2))
              for _ in range(n)]
    poly = HPoly(n, terms)
    assert (poly.substitute_affine(rows, consts)
            == _reference_substitute(poly, rows, consts))


@given(st.data())
@settings(max_examples=60)
def test_products_and_powers_match_the_exponent_tuple_product(data):
    # 0-3 variables, the zero polynomial included
    n = data.draw(st.integers(0, 3))
    polys = st.builds(HPoly, st.just(n), st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n),
        st.fractions(-2, 2, max_denominator=3), max_size=4))
    p, q = data.draw(polys), data.draw(polys)
    assert p * q == mul_by_exponents(p, q)
    k = data.draw(st.integers(0, 4))
    expect = HPoly.constant(n, 1)
    for _ in range(k):
        expect = mul_by_exponents(expect, p)
    assert p ** k == expect


def test_negative_powers_raise(a1):
    cb = chevalley_basis(a1)
    h = HPoly.variable(1, 0)
    assert casimir(cb) ** 0 == cb.one()
    assert h ** 0 == HPoly.constant(1, 1)
    with pytest.raises(ValueError):
        casimir(cb) ** -1
    with pytest.raises(ValueError):
        h ** -1


def test_mismatched_variable_counts_raise():
    x, y = HPoly.variable(2, 1), HPoly.variable(1, 0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(x, y)
        with pytest.raises(ValueError):
            op(y, x)


@given(st.data())
@settings(max_examples=60)
def test_evaluate_matches_fraction_loop(data):
    n = data.draw(st.integers(1, 3))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), SCALARS, max_size=6))
    point = st.integers(-5, 5) if data.draw(st.booleans()) else st.one_of(
        st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))
    values = [data.draw(point) for _ in range(n)]
    poly = HPoly(n, terms)
    got = poly.evaluate(values)
    assert got == _reference_evaluate(poly, values)
    # normalised like every other scalar: an integral value is an int
    assert type(got) is int or got.denominator > 1


def test_evaluate_arity_raises():
    p = HPoly(2, {(1, 0): 1, (0, 1): 5})
    for values in ([1], [1, 2, 3], []):
        with pytest.raises(ValueError):
            p.evaluate(values)
    with pytest.raises(ValueError):
        HPoly(2).evaluate([1])
    for values in ([Fraction(1, 2), 0.5], [True, 1], ["1", 1]):
        with pytest.raises(TypeError):
            p.evaluate(values)
    with pytest.raises(TypeError):
        HPoly(1, {(1,): 1}).evaluate([0.1])


BAD_EXPONENTS = {
    # each was accepted: a negative exponent evaluated to the float 2/3 and
    # cancelled a factor of a product, a short or a float key was kept
    "negative_evaluate": (ValueError,
                          lambda: HPoly(2, {(1, -1): 1}).evaluate([2, 3])),
    "negative_product": (ValueError, lambda: HPoly(1, {(1, -1): 1})
                         * HPoly(1, {(2,): 1})),
    "short_key": (ValueError, lambda: HPoly(2, {(1,): 1})),
    "float_entry": (TypeError, lambda: HPoly(2, {(1.5, 0): 1})),
    "bool_entry": (TypeError, lambda: HPoly(2, {(True, 0): 1})),
}


@pytest.mark.parametrize("name", sorted(BAD_EXPONENTS))
def test_exponent_keys_are_checked(name):
    error, call = BAD_EXPONENTS[name]
    with pytest.raises(error, match="exponent"):
        call()


@pytest.mark.parametrize("mono", [(1,), (-1, 0, 0), (0, 0, 0, 0),
                                  (True, 0, 0), (0.0, 1, 0)])
def test_lowering_takes_one_nonnegative_int_per_positive_root(a2, mono):
    # (1,) built a 6-letter key in the 8-letter algebra, whose product with
    # e(0) printed "(1) f[0+1]"; (-1, 0, 0) built f^-1
    with pytest.raises(ValueError, match="lowering monomial"):
        chevalley_basis(a2).lowering(mono)


def test_ratio_to_is_none_without_a_common_scalar():
    p = HPoly(1, {(1,): 2, (0,): 4})
    assert p.ratio_to(HPoly(1, {(1,): 1, (0,): 2})) == 2
    assert HPoly(1).ratio_to(p) is None and p.ratio_to(HPoly(1)) is None
    # other's first key (2,) is not a key of p
    assert p.ratio_to(HPoly(1, {(2,): 1, (0,): 2})) is None
    assert p.ratio_to(HPoly(1, {(1,): 1, (0,): 1})) is None


def test_negation_and_printing(a1):
    cb = chevalley_basis(a1)
    u = cb.f(0) * cb.e(0)
    assert -u == (-1) * u and -(-u) == u
    assert normal_form(cb, u) is u
    assert repr(u) == "(1) f[1] e[1]"
    assert repr(-(cb.h(0) ** 2) + cb.one()) == "(1) + (-1) h1^2"
    assert repr(u - u) == "0"
    h = HPoly(1, {(1,): 2, (0,): -1})
    assert -h == HPoly(1, {(1,): -2, (0,): 1}) and (-h).scale(-1) == h


def test_substitute_affine_arity_raises():
    p = HPoly(2, {(1, 0): 1, (0, 1): 5})
    for rows, consts in (([[1, 0]], [0, 0]),            # one row short
                         ([[1, 0], [0, 1]], [0]),       # one constant short
                         ([[1, 0], [0]], [0, 0]),       # a short row
                         ([[1, 0], [0, 1, 0]], [0, 0])):  # a long row
        with pytest.raises(ValueError):
            p.substitute_affine(rows, consts)
        with pytest.raises(ValueError):
            HPoly(2).substitute_affine(rows, consts)


def test_elements_of_different_algebras_raise():
    a2 = casimir(chevalley_basis(build_root_system("A2")))
    b2 = casimir(chevalley_basis(build_root_system("B2")))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(a2, b2)
        with pytest.raises(ValueError):
            op(b2, a2)


def test_scalar_operands_raise_type_error():
    delta = casimir(chevalley_basis(build_root_system("A1")))
    for x in (delta, HPoly(1), Weight((1,)), RootVector((1,))):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(x, 1)
    with pytest.raises(TypeError):
        HPoly(1) * 2
    # scalars and exponents are ints (not bools) or Fractions, and
    # exponents ints: a float, a bool or a string is refused, not converted
    h = HPoly(1, {(1,): 1})
    for bad in (0.1, True, "a", 1.0, None):
        with pytest.raises(TypeError):
            delta * bad
        with pytest.raises(TypeError):
            bad * delta
        with pytest.raises(TypeError):
            h.scale(bad)
        with pytest.raises(TypeError):
            h.evaluate([bad])
    for bad in (0.1, True, False, "a", 1.0, 2.5, Fraction(2)):
        with pytest.raises(TypeError):
            delta ** bad
        with pytest.raises(TypeError):
            h ** bad
    # the constructors read every coefficient through the same gate: a
    # float zero is refused too, not dropped as a zero term
    e = next(iter(delta.terms))
    for bad in (0.1, "1/2", True, 0.0):
        with pytest.raises(TypeError):
            Weight((bad,))
        with pytest.raises(TypeError):
            HPoly(1, {(1,): bad})
        with pytest.raises(TypeError):
            UElement(delta.algebra, {e: bad})
    with pytest.raises(TypeError):
        0.5 * Weight((1, 1))
    half = Fraction(1, 2)
    assert half * Weight((1, 1)) == Weight((half, half))
    assert delta * half == half * delta == UElement(
        delta.algebra, {e: c * half for e, c in delta.terms.items()})
    assert h.scale(half) == HPoly(1, {(1,): half})
    assert h.evaluate([half]) == half
