"""Central characters through U(g): the scalar by which a central element
acts on a highest-weight module, read from its Harish-Chandra projection,
and the rank-one Omega' check, which computes the three commuting Casimirs
inside U(g x g) modulo the twisted positive part and confirms the
closed-form values.

The dot-orbit ids that name central characters need no U(g): they live in
``weyl`` (``twisted_orbit_id``, ``hc_inf_character``).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rootsystem import Weight, build_root_system
from .enveloping import (PBWAlgebra, UElement, chevalley_basis, hc_projection,
                         is_central, product_bracket)
from .hpoly import HPoly

__all__ = ["central_character", "sl2_omega", "Sl2OmegaResult"]


def central_character(rs, basis, lam, z):
    """Scalar by which a central element acts on the highest-weight module
    with highest weight lam: lam evaluated on the Cartan part of z."""
    rs.require_same_system(basis)
    rs.require_weight(lam)
    if not is_central(basis, z):
        raise ValueError("element is not central")
    return hc_projection(basis, z).evaluate(list(lam.coords))


# --------------------------------------------------------------------------
# rank-one verification of the key homomorphism on Delta_1, Delta_2, Delta_bar

@dataclass
class Sl2OmegaResult:
    polys: dict    # name -> HPoly in (h_bar, h_1)
    values: dict   # name -> exact rational at the given (lam, nu)
    lam: Weight
    nu: Weight

    def restricted(self, name, nu_value=None):
        """Polynomial in h_1 obtained by fixing the diagonal variable."""
        nu_val = self.nu.coords[0] if nu_value is None else nu_value
        poly = self.polys[name]
        out = {}
        for (a, b), c in poly.terms.items():
            key = (0, b)
            out[key] = out.get(key, 0) + c * Fraction(nu_val) ** a
        return HPoly(2, out)

    def dot_invariant(self, name, nu_value=None):
        """Whether the restricted polynomial is fixed by h_1 -> -h_1 - 2."""
        p = self.restricted(name, nu_value)
        q = p.substitute_affine([[1, 0], [0, -1]], [0, -2])
        return p == q


@lru_cache(maxsize=None)
def _sl2_product_algebra():
    a1 = build_root_system("A1")
    cb = chevalley_basis(a1)
    prod = product_bracket(cb.table, cb.table)  # indices f1 h1 e1 f2 h2 e2
    vectors = [
        {0: 1, 3: 1},   # f1 + f2
        {1: 1, 4: 1},   # h1 + h2
        {2: 1, 5: 1},   # e1 + e2
        {1: 1},         # h1
        {2: 1},         # e1
        {3: 1},         # f2
    ]
    names = ["fbar", "hbar", "ebar", "h1", "e1", "f2"]
    table = prod.change_basis(vectors, names)
    alg = PBWAlgebra(table, (0, 1, 2, 3, 4, 5))
    gens = {n: UElement.generator(alg, i) for i, n in enumerate(names)}
    return alg, gens


def _project_omega(u):
    """Keep the (U gbar (x) U h1) component modulo right multiples of the
    twisted positive part {e1, f2}, then apply the diagonal Cartan projection.
    Result: polynomial in (h_bar, h_1)."""
    out = {}
    for exps, c in u.terms.items():
        fb, hb, eb, h1, e1, f2 = exps
        if e1 or f2:
            continue
        if fb or eb:
            continue
        key = (hb, h1)
        out[key] = out.get(key, 0) + c
    return HPoly(2, out)


def sl2_omega(lam, nu):
    """Values of the key homomorphism on the three Casimirs of U(g x g) for
    g of rank one, at parameters (lam, nu).

    Returns the projected polynomials in (h_bar, h_1) and their evaluations
    at the given point; nothing is assumed about the closed forms, they are
    computed from the straightening engine.
    """
    if len(lam) != 1 or len(nu) != 1:
        raise ValueError("rank-one parameters required")
    alg, g = _sl2_product_algebra()
    f1 = g["fbar"] - g["f2"]
    e2 = g["ebar"] - g["e1"]
    h2 = g["hbar"] - g["h1"]
    h1, e1, f2 = g["h1"], g["e1"], g["f2"]
    delta1 = 4 * (f1 * e1) + h1 * h1 + 2 * h1
    delta2 = 4 * (f2 * e2) + h2 * h2 + 2 * h2
    dbar = 4 * ((g["fbar"]) * (g["ebar"])) + g["hbar"] * g["hbar"] + 2 * g["hbar"]
    polys = {
        "delta1": _project_omega(delta1),
        "delta2": _project_omega(delta2),
        "delta_bar": _project_omega(dbar),
    }
    point = [nu.coords[0], lam.coords[0]]  # (h_bar, h_1)
    values = {k: p.evaluate(point) for k, p in polys.items()}
    return Sl2OmegaResult(polys, values, lam, nu)
