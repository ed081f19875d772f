"""Central characters through U(g): the scalar by which a central element
acts on a highest-weight module, read from its Harish-Chandra projection,
and the rank-one Omega' check, which computes the three commuting Casimirs
inside U(g x g) modulo the twisted positive part and confirms the
closed-form values.  g x g = sl2 x sl2 is written out by its ten nonzero
brackets on the basis (fbar, hbar, ebar, h1, e1, f2), fbar = f1 + f2,
hbar = h1 + h2 and ebar = e1 + e2, graded by the hbar-eigenvalues.

The dot-orbit ids that name central characters need no U(g): they live in
``weyl`` (``twisted_orbit_id``, ``hc_inf_character``).
"""

from dataclasses import dataclass
from functools import lru_cache

from .rootsystem import Weight
from .enveloping import (BracketTable, PBWAlgebra, UElement, hc_projection,
                         is_central)
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

    def restricted(self, name, nu_value):
        """Polynomial in h_1 obtained by fixing h_bar at nu_value."""
        return self.polys[name].substitute_affine([[0, 0], [0, 1]],
                                                  [nu_value, 0])

    def dot_invariant(self, name, nu_value):
        """Whether the restricted polynomial is fixed by h_1 -> -h_1 - 2."""
        p = self.restricted(name, nu_value)
        q = p.substitute_affine([[1, 0], [0, -1]], [0, -2])
        return p == q


@lru_cache(maxsize=None)
def _sl2_product_algebra():
    names = ["fbar", "hbar", "ebar", "h1", "e1", "f2"]
    # [h, e] = 2e, [h, f] = -2f and [e, f] = h in each factor; f1 = fbar - f2,
    # h2 = hbar - h1 and e2 = ebar - e1
    table = BracketTable(names, {
        (0, 1): {0: 2},           # [fbar, hbar] = 2 fbar
        (0, 2): {1: -1},          # [fbar, ebar] = -hbar
        (0, 3): {0: 2, 5: -2},    # [fbar, h1] = 2 f1
        (0, 4): {3: -1},          # [fbar, e1] = -h1
        (1, 2): {2: 2},           # [hbar, ebar] = 2 ebar
        (1, 4): {4: 2},           # [hbar, e1] = 2 e1
        (1, 5): {5: -2},          # [hbar, f2] = -2 f2
        (2, 3): {4: -2},          # [ebar, h1] = -2 e1
        (2, 5): {1: 1, 3: -1},    # [ebar, f2] = h2
        (3, 4): {4: 2},           # [h1, e1] = 2 e1
    }, [(-2,), (0,), (2,), (0,), (2,), (-2,)])
    alg = PBWAlgebra(table, (0, 1, 2, 3, 4, 5))
    gens = {n: UElement.generator(alg, i) for i, n in enumerate(names)}
    return alg, gens


def _project_omega(u):
    """Keep the (U gbar (x) U h1) component modulo right multiples of the
    twisted positive part {e1, f2}, then apply the diagonal Cartan projection.
    Result: polynomial in (h_bar, h_1)."""
    return HPoly(2, {(hb, h1): c for (fb, hb, eb, h1, e1, f2), c
                     in u.terms.items() if not (fb or eb or e1 or f2)})


def sl2_omega(lam, nu):
    """Values of the key homomorphism on the three Casimirs of U(g x g) for
    g of rank one, at parameters (lam, nu).

    Returns the projected polynomials in (h_bar, h_1) and their evaluations
    at the given point; nothing is assumed about the closed forms, they are
    computed from the straightening engine.
    """
    if not (isinstance(lam, Weight) and isinstance(nu, Weight)):
        raise TypeError("sl2_omega needs two Weights")
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
    return Sl2OmegaResult(polys, values)
