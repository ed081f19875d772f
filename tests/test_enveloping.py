from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lierep.rootsystem import RootVector, Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element
from lierep.hpoly import HPoly
from lierep.enveloping import (UElement, casimir, casimir_eigenvalue,
                               chevalley_basis, hc_projection, is_central,
                               normal_form, shapovalov, transpose,
                               twisted_poly)

RANK_LE_3 = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def _reference_mul(u, v):
    """Product by the pair loop: both words and both block bounds are
    rebuilt for every pair of terms (the oracle of UElement.__mul__)."""
    alg = u.algebra
    out = {}
    for e1, c1 in u.terms.items():
        for e2, c2 in v.terms.items():
            last = max((p for p, e in enumerate(e1) if e), default=-1)
            first = next((p for p, e in enumerate(e2) if e), alg.dim)
            if last <= first:
                prod = {tuple(a + b for a, b in zip(e1, e2)): 1}
            else:
                prod = alg.straighten(alg.monomial_word(e1)
                                      + alg.monomial_word(e2))
            for e, c in prod.items():
                out[e] = out.get(e, 0) + c1 * c2 * c
    return UElement(alg, out)


def _reference_substitute(poly, rows, consts):
    """Term-by-term substitution, one HPoly product per unit of exponent
    (the oracle of HPoly.substitute_affine)."""
    n = poly.nvars
    images = [HPoly.linear(rows[i], consts[i]) for i in range(n)]
    out = HPoly.constant(n, 0)
    for exps, c in poly.terms.items():
        term = HPoly.constant(n, c)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * images[i]
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


def test_g2_table_passes_construction_checks(g2):
    # Jacobi, antisymmetry, string magnitudes all machine-checked at build
    cb = chevalley_basis(g2)
    assert cb.dim == 14
    cb.table.check_jacobi()


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
        # proportional to the opposite vector with sign +-1
        s = cb.iota_signs[k]
        assert transpose(cb, u) == s * cb.f_root(k)


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


def test_casimir_central(rs):
    cb = chevalley_basis(rs)
    assert is_central(cb, casimir(cb))


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
    n = data.draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), SCALARS, max_size=6))
    rows = [[data.draw(SCALARS if data.draw(st.booleans()) else small)
             for _ in range(n)] for _ in range(n)]
    consts = [data.draw(st.fractions(-2, 2, max_denominator=2))
              for _ in range(n)]
    poly = HPoly(n, terms)
    assert (poly.substitute_affine(rows, consts)
            == _reference_substitute(poly, rows, consts))


def test_negative_powers_raise(a1):
    cb = chevalley_basis(a1)
    h = HPoly.variable(1, 0)
    assert casimir(cb) ** 0 == cb.one()
    assert h ** 0 == HPoly.constant(1, 1)
    for k in (-1, 1.0, 2.5):
        with pytest.raises(ValueError):
            casimir(cb) ** k
        with pytest.raises(ValueError):
            h ** k


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
