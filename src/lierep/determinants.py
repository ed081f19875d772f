"""Contravariant-form determinants: the direct Gram determinant against its
product formula, and the zero-weight-space determinant product formula.

The zero-weight determinant (Parthasarathy, Ranga Rao and Varadarajan, Ann.
of Math. 85, 1967) is read from weight multiplicities alone: with
d_j = dim V(mu)_{j alpha}, f_alpha e_alpha has eigenvalue j(j+1) on V(mu)_0
with multiplicity m_j = d_j - d_{j+1}, and the exponent of
(h_alpha + rho(h_alpha) - n) is dim V(mu)_{n alpha}.

Overall constants are unspecified by the theory, so determinants are compared
up to a single nonzero rational scalar (exact polynomial division).  Only the
direct Gram determinant needs U(g); ``_lowering_gram`` imports ``enveloping``
where it runs, so the product formulas load no enveloping algebra.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .config import Caps
from .errors import CapExceeded
from .hpoly import HPoly, _require_exponent, det_poly, product
from .rootsystem import Weight, RootVector, _num
from .characters import (_table, _weyl_dim, kostant_partitions,
                         partition_function, table_mult)

__all__ = ["DetPolynomial", "shapovalov_det", "prv_det"]


@dataclass(eq=False)
class DetPolynomial:
    """Polynomial in the simple coroot coordinates,
    scalar * poly * prod (linear form)^exponent, where poly is an expanded
    HPoly factor (None stands for 1).  Equality compares values."""

    nvars: int
    scalar: Fraction = 1
    factors: tuple = ()      # ((coeffs tuple, const, exponent), ...)
    poly: HPoly = None
    _expanded: HPoly = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # each factor as expand reads it: nvars exact coefficients, an
        # exact constant and an int power >= 0
        factors = []
        for coeffs, const, exp in self.factors:
            if len(coeffs) != self.nvars:
                raise ValueError(f"{coeffs} needs {self.nvars} coefficients")
            _require_exponent(exp)
            factors.append((tuple(map(_num, coeffs)), _num(const), exp))
        self.factors = tuple(factors)

    def expand(self):
        """scalar * poly * the factors, as one ``hpoly.product``."""
        if self._expanded is None:
            poly = [] if self.poly is None else [(self.poly, 1)]
            self._expanded = product(self.nvars, [
                (HPoly.constant(self.nvars, self.scalar), 1), *poly,
                *((HPoly.linear(c, k), e) for c, k, e in self.factors)])
        return self._expanded

    def __eq__(self, other):
        if not isinstance(other, DetPolynomial):
            return NotImplemented
        return self.expand() == other.expand()

    def __hash__(self):
        return hash(self.expand())

    @classmethod
    def from_poly(cls, poly):
        return cls(poly.nvars, 1, (), poly)

    def degree(self):
        # exact only for a nonzero scalar and nonconstant linear factors
        if (self.poly is None and self.scalar
                and all(any(c) for c, _, _ in self.factors)):
            return sum(e for _, _, e in self.factors)
        return self.expand().degree()

    def evaluate(self, lam):
        coords = list(lam.coords) if isinstance(lam, Weight) else list(lam)
        return self.expand().evaluate(coords)

    def ratio_to(self, other):
        return self.expand().ratio_to(other.expand())

    def to_json(self):
        out = {
            "scalar": str(self.scalar),
            "factors": [
                {"coeffs": [str(c) for c in coeffs], "const": str(const),
                 "power": exp}
                for coeffs, const, exp in self.factors
            ],
        }
        if self.poly is not None:
            out["poly"] = [
                {"exponents": list(exps), "coeff": str(c)}
                for exps, c in sorted(self.poly.terms.items(),
                                      key=lambda t: (-sum(t[0]), t[0]))]
        return out


def _as_root_vector(rs, nu):
    """The depth nu (a RootVector, a Weight or root coordinates) as a
    RootVector; ValueError unless it has rank coordinates and lies in the
    nonnegative root lattice."""
    coords = rs.root_coords(nu)
    if coords is None or any(c < 0 for c in coords):
        raise ValueError("depth must lie in the nonnegative root lattice")
    return RootVector(coords)


def _ht_cap(rs, cap):
    if cap is not None:
        return cap
    return 6 if rs.rank == 1 else 4


def shapovalov_det(rs, nu, mode="direct", max_height=None):
    """Determinant of the contravariant form on the depth-nu lowering space.

    direct: exact Gram determinant over the fixed lowering-monomial basis.
    formula: prod over positive roots and levels of
             (h_alpha + rho(h_alpha) - j)^{P(nu - j alpha)}, constant 1.
    """
    nu = _as_root_vector(rs, nu)
    cap = _ht_cap(rs, max_height)
    if nu.height > cap:
        raise CapExceeded(f"depth height {nu.height} exceeds cap {cap}; "
                          f"raise it with --max-height")
    if mode == "formula":
        rho = rs.rho
        factors = []
        for k in range(rs.nroots):
            alpha = rs.positive_roots[k]
            j = 1
            while True:
                rem = tuple(a - j * b for a, b in zip(nu.coeffs, alpha.coeffs))
                if any(x < 0 for x in rem):
                    break
                p = partition_function(rs, rem)
                if p:
                    const = rs.pairing(rho, k) - j
                    factors.append((rs.coroots[k], const, p))
                j += 1
        return DetPolynomial(rs.rank, 1, tuple(factors))
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    return DetPolynomial.from_poly(det_poly(_lowering_gram(rs, nu.coeffs)))


def _lowering_gram(rs, depth):
    """Contravariant-form Gram matrix on the lowering monomials of `depth`;
    the form is symmetric, so each unordered pair is computed once."""
    from .enveloping import chevalley_basis, shapovalov
    basis = chevalley_basis(rs)
    elements = [basis.lowering(mono) for mono in kostant_partitions(rs, depth)]
    gram = [[None] * len(elements) for _ in elements]
    for i, bi in enumerate(elements):
        for j in range(i, len(elements)):
            gram[i][j] = gram[j][i] = shapovalov(basis, bi, elements[j])
    return gram


def prv_det(rs, mu, caps=Caps()):
    """Product formula for the zero-weight-space determinant of V(mu).

    Returns (determinant, leading, spectra): the factored determinant built
    from the eigenvalue multiplicities of f_alpha e_alpha on V(mu)_0, the
    degree-sum companion prod h_alpha^{m_mu(alpha)}, and the spectra per
    positive root.  For an empty zero weight space the determinant is the
    constant 1 (empty matrix) and spectra are empty.

    Every number comes from the dominant table of V(mu), with no
    realization: the sl2_alpha-strings through V(mu)_0 with top weight
    j alpha number m_j = d_j - d_{j+1}, d_j = dim V(mu)_{j alpha}, so the
    exponent of (h_alpha + rho(h_alpha) - n) is sum_{j >= n} m_j = d_n and
    m_mu(alpha) = d_1.  ``irreps.zero_weight_spectrum`` reads the same
    spectra from a realization, independently.  The max_char cap is read on
    dim V(mu) for every mu, off the root lattice too, where no table is built.
    """
    rs.require_dominant_integral(mu)
    caps.check("max_char", _weyl_dim(rs, mu.coords), "dim V({})", mu)
    if rs.root_lattice_coords(mu) is None:
        return (DetPolynomial(rs.rank, 1, ()), DetPolynomial(rs.rank, 1, ()),
                {})
    table = _table(rs, mu.coords)
    rho = rs.rho
    factors = []
    lead = []
    scalar = Fraction(1)
    spectra = {}
    zero = table_mult(rs, table, (0,) * rs.rank)
    for k, alpha in enumerate(rs.root_weight_coords):
        # d_j = dim V(mu)_{j alpha}, down the alpha-line until it leaves V(mu)
        dims = [zero]
        while dims[-1]:
            dims.append(table_mult(rs, table,
                                   tuple(len(dims) * a for a in alpha)))
        spec = {j: d - dims[j + 1] for j, d in enumerate(dims[:-1])
                if d != dims[j + 1]}
        spectra[rs.positive_roots[k].coeffs] = spec
        if dims[1]:
            lead.append((rs.coroots[k], 0, dims[1]))
        base = rs.pairing(rho, k) - 1
        for j, m in spec.items():
            if j == 0:
                continue
            # falling factorial {a, j} = (-1)^j j! a(a-1)...(a-j+1)
            scalar *= (Fraction(-1) ** j * factorial(j)) ** m
            for t in range(j):
                factors.append((rs.coroots[k], base - t, m))
    det = DetPolynomial(rs.rank, scalar, tuple(factors))
    leading = DetPolynomial(rs.rank, 1, tuple(lead))
    return det, leading, spectra
