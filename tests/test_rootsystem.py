import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lierep import rootsystem
from lierep.enveloping import chevalley_basis, normal_form
from lierep.errors import InvariantViolation
from lierep.linalg import det, mat_inv
from lierep.rootsystem import (RootSystem, RootVector, Weight,
                               build_root_system, dominance_hull_equiv,
                               format_weight, parse_weight)
from lierep.weyl import simple_reflection
from oracles import symmetrizers_by_propagation


def test_a1_smallest_case():
    rs = build_root_system("A1")
    assert rs.cartan == ((2,),)
    assert rs.nroots == 1
    assert rs.rho.coords == (1,)


def test_positive_root_counts():
    for label, count in [("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6),
                         ("F4", 24), ("D4", 12)]:
        assert build_root_system(label).nroots == count


TYPES_TO_RANK_8 = ([f"A{n}" for n in range(1, 9)]
                   + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
                   + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"])


def _classical_root_count(series, n):
    """|R+| by type (Bourbaki, Lie Groups and Lie Algebras VI, Plates)."""
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[series]


@pytest.mark.parametrize("label", TYPES_TO_RANK_8)
def test_stated_type_data_has_every_built_in_property(label):
    # RootSystem checks only that its form is symmetric and its short roots
    # have length^2 2; this asserts everything its construction guarantees
    rs = build_root_system(label)
    a, d, n = rs.cartan, rs.sym, rs.rank
    assert d == symmetrizers_by_propagation(a)
    for i in range(n):
        assert a[i][i] == 2
        for j in range(n):
            assert i == j or a[i][j] <= 0
            assert d[i] * a[i][j] == d[j] * a[j][i]
    # finite type: A and the symmetric form F = d A^-1 have positive
    # leading minors
    f = rs.form_num
    assert all(f[i][j] == f[j][i] for i in range(n) for j in range(n))
    for m in (a, f):
        for k in range(1, n + 1):
            assert det([list(row[:k]) for row in m[:k]]) > 0
    assert min(rs.root_norms) == 2
    reflections = [simple_reflection(rs, i) for i in range(n)]
    for rv in rs.positive_roots:
        for s in reflections:
            img = s.apply_root(rv)
            assert img.coeffs in rs.root_index \
                or (-img).coeffs in rs.root_index
    assert rs.nroots == _classical_root_count(rs.series, n)
    assert all(type(x) is int for cv in rs.coroots for x in cv)


@pytest.mark.parametrize("series, rank, d", [
    ("F", 4, (1, 1, 2, 2)),   # the long and short ends swapped
    ("B", 3, (1, 1, 2)),      # C3's symmetrizers
    ("A", 2, (2, 2)),         # symmetric but not normalised
    ("G", 2, (2, 6)),
])
def test_a_slip_in_the_stated_symmetrizers_is_caught(monkeypatch, series,
                                                     rank, d):
    stated = rootsystem._cartan_data
    monkeypatch.setattr(rootsystem, "_cartan_data",
                        lambda s, r: (stated(s, r)[0], d))
    with pytest.raises(InvariantViolation):
        RootSystem(series, rank)


def test_rho_is_sum_of_fundamentals(rs):
    total = rs.zero_weight()
    for i in range(rs.rank):
        total = total + rs.fundamental(i)
    assert total == rs.rho


def test_reflection_closure(rs):
    stored = {rv.coeffs for rv in rs.positive_roots}
    reflections = [simple_reflection(rs, i) for i in range(rs.rank)]
    for rv in rs.positive_roots:
        for s in reflections:
            img = s.apply_root(rv)
            assert img.coeffs in stored or (-img).coeffs in stored


def test_short_roots_have_norm_two(rs):
    assert min(rs.root_norms) == 2
    for k, rv in enumerate(rs.positive_roots):
        alpha = rs.root_to_weight(rv)
        assert rs.inner(alpha, alpha) == rs.root_norms[k]


def test_cartan_from_form(rs):
    # cartan[i][j] = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)
    for i in range(rs.rank):
        ai = Weight(rs.simple_root_coords[i])
        for j in range(rs.rank):
            aj = Weight(rs.simple_root_coords[j])
            assert rs.cartan[i][j] == 2 * rs.inner(aj, ai) / rs.inner(ai, ai)


def test_bad_specs_rejected():
    for bad in ("H3", "A0", "E5", "G3", "", "2A", "Axx"):
        with pytest.raises(ValueError):
            build_root_system(bad)


def test_weight_parsing_round_trip():
    w = parse_weight("1/2,-3,0", 3)
    assert w.coords == (Fraction(1, 2), -3, 0)
    assert parse_weight(format_weight(w), 3) == w
    with pytest.raises(ValueError):
        parse_weight("1,x", 2)
    with pytest.raises(ValueError):
        parse_weight("1,2", 3)


def test_simple_reflection_formula(rs):
    # s_i(w_i) = w_i - alpha_i, forced by the pairing normalisation
    for i in range(rs.rank):
        w = rs.fundamental(i)
        assert rs.reflect(i, w) == w - Weight(rs.simple_root_coords[i])


@given(st.data())
def test_reflections_are_involutions(rs, data):
    coords = data.draw(st.tuples(
        *[st.integers(-5, 5) for _ in range(rs.rank)]))
    w = Weight(coords)
    for i in range(rs.rank):
        assert rs.reflect(i, rs.reflect(i, w)) == w


@given(st.data())
def test_form_reflection_invariance(rs, data):
    a = Weight(data.draw(st.tuples(*[st.integers(-4, 4)] * rs.rank)))
    b = Weight(data.draw(st.tuples(*[st.integers(-4, 4)] * rs.rank)))
    for i in range(rs.rank):
        assert rs.inner(rs.reflect(i, a), rs.reflect(i, b)) == rs.inner(a, b)


def test_coroot_pairing_matches_form(rs):
    # lam(h_alpha) = 2 (lam, alpha) / (alpha, alpha) for every positive root
    lam = Weight(tuple(range(1, rs.rank + 1)))
    for k, rv in enumerate(rs.positive_roots):
        alpha = rs.root_to_weight(rv)
        expect = 2 * rs.inner(lam, alpha) / rs.inner(alpha, alpha)
        assert rs.pairing(lam, k) == rs.pairing(lam, rv) == expect


def test_pickle_and_deepcopy_return_the_interned_system(rs):
    assert pickle.loads(pickle.dumps(rs)) is rs
    assert copy.deepcopy(rs) is rs


def test_dominance_hull_reflexive(a2):
    lam = Weight((2, 1))
    assert dominance_hull_equiv(a2, lam, lam) == (True, True)


def test_dominance_hull_a1():
    rs = build_root_system("A1")
    assert dominance_hull_equiv(rs, Weight((3,)), Weight((1,))) == (True, True)


def test_dominance_hull_a2_rho_zero(a2):
    assert dominance_hull_equiv(a2, Weight((1, 1)), Weight((0, 0))) \
        == (True, True)


def test_dominance_hull_outside_lattice(a2):
    # hull membership without root-lattice membership: the booleans split
    dom, hull = dominance_hull_equiv(a2, Weight((1, 0)), Weight((0, 0)))
    assert (dom, hull) == (False, True)


def test_dominance_hull_rejects_bad_input(a2):
    with pytest.raises(ValueError):
        dominance_hull_equiv(a2, Weight((-1, 0)), Weight((0, 0)))
    with pytest.raises(ValueError):
        dominance_hull_equiv(a2, Weight((Fraction(1, 2), 0)), Weight((0, 0)))


def test_orbit_sizes(a2, g2):
    assert len(a2.orbit(Weight((1, 0)))) == 3
    assert len(a2.orbit(Weight((1, 1)))) == 6
    assert len(g2.orbit(Weight((1, 1)))) == 12
    assert len(a2.orbit(Weight((0, 0)))) == 1


def _weight_bfs(rs, w):
    """The orbit of w by closure under simple reflections on Weights."""
    seen = {w.coords}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                img = rs.reflect(i, v)
                if img.coords not in seen:
                    seen.add(img.coords)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


@given(st.data())
def test_orbit_coords_match_weight_bfs(rs, data):
    coord = st.one_of(st.integers(-6, 6),
                      st.fractions(-4, 4, max_denominator=3))
    w = Weight(tuple(data.draw(coord) for _ in range(rs.rank)))
    want = _weight_bfs(rs, w)
    assert sorted(rs.orbit_coords(w.coords)) == want
    assert [v.coords for v in rs.orbit(w)] == want


A2 = build_root_system("A2")
W1, W3 = Weight((1,)), Weight((1, 1, 1))
WRONG_RANK = {
    # each of these used to truncate, pad or drop a coordinate on A2
    "weight_add": lambda: W3 + Weight((1, 1)),
    "weight_sub": lambda: Weight((1, 1)) - W3,
    "root_add": lambda: RootVector((1, 0, 0)) + RootVector((1, 1)),
    "root_sub": lambda: RootVector((1, 1)) - RootVector((1,)),
    "dominant_in_orbit_long": lambda: A2.dominant_in_orbit(Weight((1, -1, 1))),
    "dominant_in_orbit_short": lambda: A2.dominant_in_orbit(Weight((-1,))),
    "reflect": lambda: A2.reflect(0, W3),
    "inner_left": lambda: A2.inner(W3, Weight((1, 1))),
    "inner_right": lambda: A2.inner(Weight((1, 1)), W1),
    "pairing": lambda: A2.pairing(W3, 0),
    "weight_to_root_coords": lambda: A2.weight_to_root_coords(W3),
    "root_lattice_coords": lambda: A2.root_lattice_coords(W3),
    "root_coords": lambda: A2.root_coords(W3),
    "root_to_weight_long": lambda: A2.root_to_weight(RootVector((1, 1, 1))),
    "root_to_weight_short": lambda: A2.root_to_weight((1,)),
}


@pytest.mark.parametrize("name", sorted(WRONG_RANK))
def test_wrong_rank_weights_raise(name):
    with pytest.raises(ValueError):
        WRONG_RANK[name]()


BAD_INDEX = {
    # each of these used to wrap around, answer or raise IndexError on A2
    "pairing_negative": lambda: A2.pairing(Weight((1, 0)), -1),
    "pairing_past_end": lambda: A2.pairing(Weight((1, 0)), 5),
    "root_difference_negative": lambda: A2.root_difference(-1, 0),
    "fundamental_past_end": lambda: A2.fundamental(5),
    "fundamental_negative": lambda: A2.fundamental(-1),
    "reflect_negative": lambda: A2.reflect(-1, Weight((1, 0))),
    # Chevalley generators: these returned another generator or raised
    # KeyError
    "chevalley_e_past_end": lambda: chevalley_basis(A2).e(5),
    "chevalley_e_negative": lambda: chevalley_basis(A2).e(-1),
    "chevalley_f_past_end": lambda: chevalley_basis(A2).f(2),
    "chevalley_h_past_end": lambda: chevalley_basis(A2).h(2),
    "chevalley_h_negative": lambda: chevalley_basis(A2).h(-1),
    "chevalley_e_root_past_end": lambda: chevalley_basis(A2).e_root(3),
    "chevalley_f_root_negative": lambda: chevalley_basis(A2).f_root(-1),
    "chevalley_gen_past_end": lambda: chevalley_basis(A2).gen(99),
    "chevalley_gen_bool": lambda: chevalley_basis(A2).gen(True),
    "chevalley_gen_float": lambda: chevalley_basis(A2).gen(1.0),
    "normal_form_past_end": lambda: normal_form(chevalley_basis(A2), [99]),
    "normal_form_bool": lambda: normal_form(chevalley_basis(A2), [True]),
}


@pytest.mark.parametrize("name", sorted(BAD_INDEX))
def test_bad_root_indices_raise(name):
    with pytest.raises(ValueError, match="index"):
        BAD_INDEX[name]()


@pytest.mark.parametrize("coeffs", [(1.5, 0), (Fraction(1, 2),), ("1/3", 1)])
def test_root_vector_rejects_non_integral_coefficients(coeffs):
    with pytest.raises(ValueError, match="integers"):
        RootVector(coeffs)
    assert RootVector((Fraction(4, 2), 1.0)).coeffs == (2, 1)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3",
                                   "D4", "G2", "F4", "E6"])
def test_root_coordinates_match_inverse_cartan(label):
    # C^{-1} from mat_inv carries fundamental to root coordinates
    rs = build_root_system(label)
    inv = mat_inv([list(row) for row in rs.cartan])
    rng = random.Random(label)
    weights = [rs.fundamental(i) for i in range(rs.rank)]
    weights += [Weight(col) for col in rs.simple_root_coords]
    weights += [Weight([rng.randint(-6, 6) for _ in range(rs.rank)])
                for _ in range(20)]
    weights += [Weight([Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                        for _ in range(rs.rank)]) for _ in range(20)]
    for w in weights:
        want = tuple(sum(inv[i][j] * w[j] for j in range(rs.rank))
                     for i in range(rs.rank))
        got = rs.weight_to_root_coords(w)
        assert got == want, w
        assert all(type(x) is int for x, y in zip(got, want)
                   if y.denominator == 1)
        lattice = (tuple(map(int, want))
                   if all(y.denominator == 1 for y in want) else None)
        assert rs.root_lattice_coords(w) == lattice, w
        assert rs.root_lattice_coords(w.coords) == lattice, w
        assert rs.root_coords(w) == lattice, w
