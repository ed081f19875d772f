import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lierep.linalg import mat_inv
from lierep.rootsystem import (RootVector, Weight, build_root_system,
                               dominance_hull_equiv, format_weight,
                               parse_weight)


def test_a1_smallest_case():
    rs = build_root_system("A1")
    assert rs.cartan == ((2,),)
    assert rs.nroots == 1
    assert rs.rho.coords == (1,)


def test_positive_root_counts():
    for label, count in [("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6),
                         ("F4", 24), ("D4", 12)]:
        assert build_root_system(label).nroots == count


def test_rho_is_sum_of_fundamentals(rs):
    total = rs.zero_weight()
    for i in range(rs.rank):
        total = total + rs.fundamental(i)
    assert total == rs.rho


def test_reflection_closure(rs):
    stored = {rv.coeffs for rv in rs.positive_roots}
    for rv in rs.positive_roots:
        for i in range(rs.rank):
            img = rs.reflect_root(i, rv)
            assert img.coeffs in stored or (-img).coeffs in stored


def test_short_roots_have_norm_two(rs):
    assert min(rs.root_norms) == 2
    for k, rv in enumerate(rs.positive_roots):
        alpha = rs.root_to_weight(rv)
        assert rs.inner(alpha, alpha) == rs.root_norms[k]


def test_cartan_from_form(rs):
    # cartan[i][j] = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)
    for i in range(rs.rank):
        ai = rs.root_to_weight(rs.simple_root(i))
        for j in range(rs.rank):
            aj = rs.root_to_weight(rs.simple_root(j))
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
        assert rs.pairing(lam, k) == expect


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
}


@pytest.mark.parametrize("name", sorted(WRONG_RANK))
def test_wrong_rank_weights_raise(name):
    with pytest.raises(ValueError):
        WRONG_RANK[name]()


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
