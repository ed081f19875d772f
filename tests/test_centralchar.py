from fractions import Fraction

import pytest

from lierep.rootsystem import Weight
from lierep.weyl import (CentralCharacterId, enumerate_weyl,
                         hc_inf_character, longest_element, twisted_orbit_id)
from lierep.enveloping import UElement, casimir, chevalley_basis
from lierep.centralchar import (_sl2_product_algebra, central_character,
                                sl2_omega)
from lierep.hpoly import HPoly

from oracles import check_jacobi


def test_casimir_eigenvalues_sl2(a1):
    cb = chevalley_basis(a1)
    delta = casimir(cb)
    for z in range(-3, 6):
        assert central_character(a1, cb, Weight((z,)), delta) == z * z + 2 * z


def test_identity_element_acts_as_one(rs):
    cb = chevalley_basis(rs)
    assert central_character(rs, cb, rs.rho, cb.one()) == 1


def test_non_central_rejected(a1):
    cb = chevalley_basis(a1)
    with pytest.raises(ValueError):
        central_character(a1, cb, Weight((1,)), cb.e(0))


def test_linkage_sl2(a1):
    cb = chevalley_basis(a1)
    delta = casimir(cb)
    for z in range(-4, 5):
        for zp in range(-4, 5):
            same = central_character(a1, cb, Weight((z,)), delta) \
                == central_character(a1, cb, Weight((zp,)), delta)
            assert same == (z == zp or z + zp == -2)


def test_constant_on_dot_orbits(rs):
    cb = chevalley_basis(rs)
    delta = casimir(cb)
    lam = Weight(tuple(range(1, rs.rank + 1)))
    base = central_character(rs, cb, lam, delta)
    powers = [delta, delta * delta]
    for w in enumerate_weyl(rs):
        moved = w.twisted(lam)
        assert central_character(rs, cb, moved, delta) == base
        for p in powers:
            assert central_character(rs, cb, moved, p) \
                == central_character(rs, cb, lam, p)


def test_twisted_orbit_id(rs):
    lam = Weight(tuple((-1) ** i for i in range(rs.rank)))
    rep = twisted_orbit_id(rs, lam)
    for w in enumerate_weyl(rs):
        assert twisted_orbit_id(rs, w.twisted(lam)) == rep


def test_inf_character_finite_dimensional_case(a2):
    # nu = lam + w0(mu) identifies chi(lam, mu)
    w0 = longest_element(a2)
    for lam_c in [(0, 0), (1, 0), (2, 1)]:
        for mu_c in [(0, 0), (1, 1), (0, 2)]:
            lam, mu = Weight(lam_c), Weight(mu_c)
            nu = lam + w0.apply(mu)
            got = hc_inf_character(a2, lam, nu)
            want = CentralCharacterId((twisted_orbit_id(a2, lam).coords,
                                       twisted_orbit_id(a2, mu).coords))
            assert got == want


def test_inf_character_equivariance(rs):
    lam = Weight(tuple(Fraction(1, 2) for _ in range(rs.rank)))
    nu = rs.rho
    base = hc_inf_character(rs, lam, nu)
    for w in enumerate_weyl(rs):
        moved = hc_inf_character(rs, w.twisted(lam), w.apply(nu))
        assert moved == base


def test_inf_character_zero_parameters(rs):
    # chi(0, -2rho) = chi(0, 0) because -2rho is the longest dot translate
    got = hc_inf_character(rs, rs.zero_weight(), rs.zero_weight())
    zero = rs.zero_weight().coords
    assert got == CentralCharacterId((zero, zero))


def test_inf_character_distinguishes_orbits(a1):
    seen = {}
    for z in range(-3, 4):
        for nu in range(-2, 3):
            cid = hc_inf_character(a1, Weight((Fraction(z, 1),)),
                                   Weight((nu,)))
            seen.setdefault(cid, []).append((z, nu))
    for cid, params in seen.items():
        (z0, n0) = params[0]
        for z, n in params[1:]:
            first = z in (z0, -z0 - 2)
            # second coordinates n - z - 2 must share a dot orbit
            second = (n - z - 2) in (n0 - z0 - 2, -(n0 - z0 - 2) - 2)
            assert first and second


def test_sl2_omega_closed_forms():
    res = sl2_omega(Weight((5,)), Weight((3,)))
    assert res.polys["delta1"] == HPoly(2, {(0, 2): 1, (0, 1): 2})
    assert res.polys["delta_bar"] == HPoly(2, {(2, 0): 1, (1, 0): 2})
    assert res.polys["delta2"] == HPoly(
        2, {(2, 0): 1, (1, 0): -2, (1, 1): -2, (0, 2): 1, (0, 1): 2})
    assert res.values == {"delta1": 35, "delta2": 8, "delta_bar": 15}


def test_sl2_omega_values_on_a_grid():
    # the closed forms of test_sl2_omega_closed_forms, value by value
    for lam in range(-3, 4):
        for nu in range(-3, 4):
            res = sl2_omega(Weight((lam,)), Weight((nu,)))
            assert res.values == {
                "delta1": lam * lam + 2 * lam,
                "delta2": nu * nu - 2 * nu - 2 * nu * lam + lam * lam + 2 * lam,
                "delta_bar": nu * nu + 2 * nu}


def test_product_algebra_is_sl2_x_sl2_graded_by_hbar():
    alg, g = _sl2_product_algebra()
    f1, e2, h2 = g["fbar"] - g["f2"], g["ebar"] - g["e1"], g["hbar"] - g["h1"]
    factors = [(f1, g["h1"], g["e1"]), (g["f2"], h2, e2)]
    for f, h, e in factors:
        assert h.commutator(e) == 2 * e
        assert h.commutator(f) == -2 * f
        assert e.commutator(f) == h
    for x in factors[0]:
        for y in factors[1]:
            assert x.commutator(y).is_zero
    for u, want in ((g["fbar"], (-2,)), (g["h1"] * g["e1"], (2,)),
                    (UElement.one(alg), (0,))):
        assert u.weight() == want


def test_product_algebra_satisfies_jacobi():
    check_jacobi(_sl2_product_algebra()[0].table)


def test_sl2_omega_separates_parameters():
    # the classification argument: delta_bar + delta1 - delta2 is linear in
    # lam once nu is fixed and nonzero
    for nu in (1, 2, 3):
        vals = set()
        for lam in range(-3, 4):
            r = sl2_omega(Weight((lam,)), Weight((nu,)))
            vals.add(r.values["delta_bar"] + r.values["delta1"]
                     - r.values["delta2"])
        assert len(vals) == 7


def test_sl2_omega_invariant_ring_at_zero():
    res = sl2_omega(Weight((0,)), Weight((0,)))
    for name in ("delta1", "delta2", "delta_bar"):
        assert res.dot_invariant(name, 0)


def test_sl2_omega_rejects_higher_rank(a2):
    with pytest.raises(ValueError):
        sl2_omega(Weight((1, 0)), Weight((0, 0)))


@pytest.mark.parametrize("lam, nu", [((5,), (3,)), (Weight((5,)), 3)])
def test_sl2_omega_rejects_a_non_weight(lam, nu):
    with pytest.raises(TypeError, match="two Weights"):
        sl2_omega(lam, nu)
