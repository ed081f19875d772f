import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lierep.errors import CapExceeded
from lierep.rootsystem import RootVector, Weight, build_root_system
from lierep.characters import partition_function
from lierep.hpoly import HPoly
from lierep.irreps import VermaEngine
from lierep.linalg import det
from lierep.determinants import (DetPolynomial, _lowering_gram, det_poly,
                                  prv_det, shapovalov_det)


def _cofactor_det(matrix):
    """Cofactor expansion along the first row, n! products (the oracle of
    det_poly)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    out = HPoly.constant(matrix[0][0].nvars, 0)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        minor = [[matrix[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = entry * _cofactor_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def test_depth_zero_is_one(rs):
    det = shapovalov_det(rs, (0,) * rs.rank, "direct")
    assert det.expand() == HPoly.constant(rs.rank, 1)


def test_sl2_depth_two(a1):
    direct = shapovalov_det(a1, (2,), "direct")
    formula = shapovalov_det(a1, (2,), "formula")
    assert direct.expand() == HPoly(1, {(2,): 2, (1,): -2})     # 2h(h-1)
    assert formula.expand() == HPoly(1, {(2,): 1, (1,): -1})    # h(h-1)
    assert direct.ratio_to(formula) == 2


def test_sl2_all_depths(a1):
    for k in range(0, 7):
        direct = shapovalov_det(a1, (k,), "direct")
        formula = shapovalov_det(a1, (k,), "formula")
        ratio = direct.ratio_to(formula)
        if k:
            assert ratio is not None and ratio != 0
        # formula factors are (h + 1 - j) for j = 1..k
        expect = HPoly.constant(1, 1)
        for j in range(1, k + 1):
            expect = expect * HPoly(1, {(1,): 1, (0,): 1 - j})
        assert formula.expand() == expect


def test_a2_two_dimensional_level(a2):
    direct = shapovalov_det(a2, (1, 1), "direct")
    formula = shapovalov_det(a2, (1, 1), "formula")
    ratio = direct.ratio_to(formula)
    assert ratio is not None and ratio != 0
    assert direct.degree() == formula.degree() == 3


def test_formula_exponents_are_partition_values(a2):
    nv = RootVector((2, 1))
    det = shapovalov_det(a2, nv, "formula")
    total = sum(exp for _, _, exp in det.factors)
    expect = 0
    for k in range(a2.nroots):
        alpha = a2.positive_roots[k]
        j = 1
        while True:
            rem = tuple(a - j * b for a, b in zip(nv.coeffs, alpha.coeffs))
            if any(x < 0 for x in rem):
                break
            expect += partition_function(a2, rem)
            j += 1
    assert total == expect


def test_height_cap(a2):
    with pytest.raises(CapExceeded):
        shapovalov_det(a2, (3, 3), "direct")
    # the cap is adjustable
    shapovalov_det(a2, (3, 2), "direct", max_height=5)


@pytest.mark.parametrize("depth", [
    (1,), (1, 0, 0), (-1, 0), (0, -2), (1.5, 0), (Fraction(1, 2), 1),
    Weight((1, 0)), Weight((-1, -1)), RootVector((0, -1))])
def test_bad_depths_raise(a2, depth):
    # a wrong rank, a non-integer or a negative coordinate, and a weight off
    # the root lattice or below it
    for mode in ("direct", "formula"):
        with pytest.raises(ValueError):
            shapovalov_det(a2, depth, mode)


@pytest.mark.parametrize("form", [tuple, RootVector, Weight])
def test_root_lattice_arguments_read_alike(a2, form):
    # alpha_1 + alpha_2 of A2 has root and fundamental coordinates (1, 1)
    arg = form((1, 1))
    assert partition_function(a2, arg) == 2
    for mode in ("direct", "formula"):
        assert shapovalov_det(a2, arg, mode) == shapovalov_det(
            a2, RootVector((1, 1)), mode)


SHORT = "1 has 1 coordinates; A2 needs 2"
LONG = "1,1,0 has 3 coordinates; A2 needs 2"
NOT_INTEGRAL = "root coordinates (1.5, 1) must be integers"
OFF_CONE = "depth must lie in the nonnegative root lattice"


@pytest.mark.parametrize("arg, pf_error, det_error", [
    pytest.param((1,), SHORT, SHORT, id="tuple_short"),
    pytest.param((1, 1, 0), LONG, LONG, id="tuple_long"),
    pytest.param(Weight((1,)), SHORT, SHORT, id="weight_short"),
    pytest.param(RootVector((1, 1, 0)), LONG, LONG, id="root_long"),
    pytest.param((1.5, 1), NOT_INTEGRAL, NOT_INTEGRAL, id="tuple_float"),
    pytest.param(Weight((1, 0)), 0, OFF_CONE, id="weight_off_lattice"),
    pytest.param(Weight((Fraction(1, 2), 1)), 0, OFF_CONE,
                 id="weight_fraction"),
    pytest.param((-1, 2), 0, OFF_CONE, id="tuple_negative"),
    pytest.param(RootVector((0, -1)), 0, OFF_CONE, id="root_negative"),
    pytest.param(Weight((-1, -1)), 0, OFF_CONE, id="weight_negative"),
])
def test_bad_root_lattice_arguments(a2, arg, pf_error, det_error):
    # partition_function answers 0 off the lattice or the cone, where a
    # depth is refused; a wrong length or a non-integer entry is refused by
    # both with the same message
    if pf_error == 0:
        assert partition_function(a2, arg) == 0
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(pf_error)}$"):
            partition_function(a2, arg)
    for mode in ("direct", "formula"):
        with pytest.raises(ValueError, match=f"^{re.escape(det_error)}$"):
            shapovalov_det(a2, arg, mode)


def test_zero_sets_match_singular_vectors(a1):
    # lam(det) = 0 iff the Verma module at lam has a singular vector at
    # depth <= nu: check by direct kernel search on raising operators
    det = shapovalov_det(a1, (3,), "direct")
    for z in range(-2, 6):
        lam = Weight((z,))
        value = det.evaluate(lam)
        eng = VermaEngine(a1, lam)
        singular = False
        for depth in range(1, 4):
            em = eng.e_matrix(0, (depth,))
            # kernel relative to the weight of the level above
            vec = em[0][0] if em else 0
            if vec == 0:
                singular = True
        assert (value == 0) == singular


def test_zero_sets_match_gram_ranks(a2):
    det = shapovalov_det(a2, (1, 1), "direct")
    from lierep.linalg import rank
    for coords in [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 0), (-2, -2)]:
        lam = Weight(coords)
        eng = VermaEngine(a2, lam)
        gram = eng.gram((1, 1))
        assert (det.evaluate(lam) == 0) == (rank(gram) < len(gram))


def test_det_poly_helper():
    x = HPoly.variable(1, 0)
    one = HPoly.constant(1, 1)
    mat = [[x, one], [one, x]]
    assert det_poly(mat) == x * x - one
    with pytest.raises(ValueError):
        det_poly([])


@pytest.mark.parametrize("label,cap", [("A2", 6), ("B2", 5), ("G2", 5)])
def test_gram_determinants_match_cofactor_expansion(label, cap):
    # every direct Gram matrix the module-algebra strata build
    rs = build_root_system(label)
    for a in range(cap + 1):
        for b in range(cap + 1 - a):
            if a + b:
                gram = _lowering_gram(rs, (a, b))
                assert det_poly(gram) == _cofactor_det(gram)


@given(st.data())
@settings(max_examples=40)
def test_det_poly_matches_cofactor_expansion(data):
    n = data.draw(st.integers(1, 6))
    entry = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                            st.integers(-2, 2), max_size=2)
    matrix = [[HPoly(2, data.draw(entry)) for _ in range(n)]
              for _ in range(n)]
    assert det_poly(matrix) == _cofactor_det(matrix)


def test_det_poly_products_are_not_factorial(monkeypatch):
    # the cofactor expansion would need about 10! = 3.6 M products here
    n = 10
    rng = random.Random(0)
    matrix = [[HPoly.linear([1, rng.randint(-9, 9)], rng.randint(-9, 9))
               for _ in range(n)] for _ in range(n)]
    calls = 0
    mul = HPoly.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(HPoly, "__mul__", counting_mul)
    got = det_poly(matrix)
    monkeypatch.undo()
    assert calls <= n * 2 ** (n - 1)
    assert got.degree() == n
    for point in [(1, 2), (-3, 1), (Fraction(1, 2), 5)]:
        assert got.evaluate(point) == det(
            [[e.evaluate(point) for e in row] for row in matrix])


def test_prv_det_sl2_closed_form(a1):
    for mu in range(2, 13, 2):
        det, lead, spectra = prv_det(a1, Weight((mu,)))
        j = mu // 2
        falling = HPoly.constant(1, Fraction((-1) ** j * _fact(j)))
        for t in range(j):
            falling = falling * HPoly(1, {(1,): 1, (0,): -t})
        assert det.expand() == falling
        assert spectra[(1,)] == {j: 1}
        assert lead.expand() == HPoly(1, {(1,): 1})


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_prv_det_empty_zero_space(a1, b2):
    det, lead, spectra = prv_det(a1, Weight((5,)))
    assert det.expand() == HPoly.constant(1, 1)
    assert spectra == {}
    # B2 spin weight is off the root lattice
    det, lead, spectra = prv_det(b2, Weight((0, 1)))
    assert det.expand() == HPoly.constant(2, 1)


def test_prv_det_a2_adjoint(a2):
    det, lead, spectra = prv_det(a2, Weight((1, 1)))
    assert det.degree() == 3
    assert lead.degree() == 3
    for root, spec in spectra.items():
        assert spec == {0: 1, 1: 1}
    # the factorization: -(h1)(h2)(h1+h2+1)
    expect = HPoly.constant(2, -1)
    for coeffs, const in [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]:
        expect = expect * HPoly.linear(list(coeffs), const)
    assert det.expand() == expect


def test_prv_det_degree_sums(a2, g2):
    # expanded degree = sum over roots of sum_j j * m_j
    for rsys, mu_c in [(a2, (1, 1)), (a2, (2, 2)), (g2, (0, 1))]:
        det, lead, spectra = prv_det(rsys, Weight(mu_c))
        expect = sum(j * m for spec in spectra.values()
                     for j, m in spec.items())
        assert det.degree() == expect
        # companion product carries one factor per nonzero string
        assert lead.degree() == sum(
            1 for spec in spectra.values() for j in spec if j > 0
            for _ in range(spec[j]))


def test_det_json_round_trip(a1):
    det = shapovalov_det(a1, (2,), "formula")
    blob = det.to_json()
    assert blob["scalar"] == "1"
    assert len(blob["factors"]) == 2


def test_det_fields_describe_the_value(a1):
    # an unfactored determinant carries its terms: 2h^2 - 2h, not 1
    direct = shapovalov_det(a1, (2,), "direct")
    assert direct.to_json()["poly"] == [
        {"exponents": [2], "coeff": "2"}, {"exponents": [1], "coeff": "-2"}]
    formula = shapovalov_det(a1, (2,), "formula")
    assert "poly" not in formula.to_json()
    # equality compares values, whether expanded or factored
    assert direct == DetPolynomial(1, 2, formula.factors)
    assert direct != formula
    first, second = (prv_det(a1, Weight((4,)))[0] for _ in range(2))
    first.expand()
    assert first == second and hash(first) == hash(second)
