"""Parameter calculus for the irreducible admissible two-parameter modules.

A module is identified by a pair (lam, nu) with lam rational and nu integral.
Everything here is decidable orbit combinatorics: the smallest component type
is the dominant representative of nu, the infinitesimal character is the
dot-orbit pair chi(lam, nu - lam - 2 rho), equivalence is the simultaneous
(dot, plain) Weyl action, and the finite-dimensional members are recognised
by a lattice-cone condition.
"""

from dataclasses import dataclass

from .config import Caps
from .rootsystem import Weight
from .weyl import (CentralCharacterId, double_cosets, enumerate_weyl,
                   hc_inf_character, longest_element, twisted_orbit_id)
from .characters import weight_multiplicity
from .tensor import decompose

__all__ = [
    "HCParams", "HCInvariants", "invariants", "equivalent",
    "finite_dimensional", "class_zero", "isoclass_count",
    "find_invariant_collision",
]


@dataclass(frozen=True)
class HCParams:
    lam: Weight
    nu: Weight

    def __post_init__(self):
        if not (isinstance(self.lam, Weight) and isinstance(self.nu, Weight)):
            raise TypeError("HCParams needs two Weights")
        if not self.nu.is_integral:
            raise ValueError("nu must be an integral weight")

    def to_json(self):
        return {"lambda": [str(c) for c in self.lam.coords],
                "nu": [str(c) for c in self.nu.coords]}


def _require_params(rs, *ps):
    for p in ps:
        if not isinstance(p, HCParams):
            raise TypeError(f"parameters {p!r} must be an HCParams, "
                            f"not a {type(p).__name__}")
        rs.require_rank(p.lam, p.nu)


@dataclass
class HCInvariants:
    rs: object
    nu: Weight
    minimal_type: Weight
    inf_char: CentralCharacterId

    def ktype_bound(self, mu):
        """Upper bound for the multiplicity of V(mu): dim V(mu)_nu."""
        return weight_multiplicity(self.rs, mu, self.nu)


def invariants(rs, p):
    """Minimal type, infinitesimal character, and the component bound
    mu -> dim V(mu)_nu."""
    _require_params(rs, p)
    minimal = rs.dominant_in_orbit(p.nu)
    inf = hc_inf_character(rs, p.lam, p.nu)
    return HCInvariants(rs, p.nu, minimal, inf)


def equivalent(rs, p, q, caps=Caps()):
    """(bool, witness): whether some w sends (lam, nu) to (lam', nu') by the
    simultaneous dot/plain action."""
    _require_params(rs, p, q)
    for w in enumerate_weyl(rs, caps):
        if w.twisted(p.lam) == q.lam and w.apply(p.nu) == q.nu:
            return True, w
    return False, None


def finite_dimensional(rs, p):
    """The highest-weight pair (lam, mu) when the parameters describe a
    finite-dimensional module, else None.

    Requires lam dominant integral and mu := -w0(lam - nu) dominant integral;
    then nu = lam + w0(mu) and the module is V(lam) (x) V(mu) over the
    diagonal subalgebra.
    """
    _require_params(rs, p)
    if not (p.lam.is_integral and p.lam.is_dominant):
        return None
    w0 = longest_element(rs)
    mu = -w0.apply(p.lam - p.nu)
    if not (mu.is_integral and mu.is_dominant):
        return None
    return p.lam, mu


def class_zero(rs, lam, caps=Caps()):
    """Report on the nu = 0 member with character parameter lam.

    complete: no positive root pairs (lam + rho) into a nonzero integer;
    canonical: dot-orbit identifier of lam;
    mults: for dominant integral lam, the component multiplicities of
           V(lam) (x) V(lam)^* (supported on the root lattice); a
           decomposition past caps raises CapExceeded.
    """
    rs.require_weight(lam)
    rho = rs.rho
    complete = True
    for k in range(rs.nroots):
        v = rs.pairing(lam + rho, k)
        if isinstance(v, int) and v != 0:
            complete = False
            break
    report = {
        "complete": complete,
        "canonical": twisted_orbit_id(rs, lam),
        "mults": None,
    }
    if lam.is_integral and lam.is_dominant:
        w0 = longest_element(rs)
        dual = -w0.apply(lam)
        report["mults"] = decompose(rs, lam, dual, "character", caps)
    return report


def isoclass_count(rs, lam, mu, caps=Caps()):
    """Number of isomorphism classes with infinitesimal character
    chi(lam, mu): the double coset count for the two stabilizers.  The
    stabilizer of lam is conjugate to that of its dominant representative,
    and conjugating either side keeps the number of double cosets."""
    return len(double_cosets(rs, rs.dominant_in_orbit(lam),
                             rs.dominant_in_orbit(mu), caps))


def find_invariant_collision(rs, lam_grid, nu_grid, caps=Caps()):
    """Search for parameter pairs sharing minimal type and infinitesimal
    character while not being equivalent.

    Returns (p, q) or None.  The classification theorem says such pairs are
    genuinely non-isomorphic modules that the coarse invariants cannot
    separate.  None exist in rank one, but some do in rank two: on A2 the
    grid lam = -2 rho, nu = (-2, 1) returns one, as the dot orbit of -2 rho
    is a single point.
    """
    for lam_c in lam_grid:
        lam = Weight(lam_c)
        for nu_c in nu_grid:
            nu = Weight(nu_c)
            p = HCParams(lam, nu)
            ip = invariants(rs, p)
            for w1 in enumerate_weyl(rs, caps):
                for w2 in enumerate_weyl(rs, caps):
                    q = HCParams(w2.twisted(lam), w1.apply(nu))
                    iq = invariants(rs, q)
                    if (ip.minimal_type == iq.minimal_type
                            and ip.inf_char == iq.inf_char
                            and not equivalent(rs, p, q, caps)[0]):
                        return p, q
    return None
