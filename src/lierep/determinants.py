"""Contravariant-form determinants: the direct Gram determinant against its
product formula, and the zero-weight-space determinant product formula.

Overall constants are unspecified by the theory, so determinants are compared
up to a single nonzero rational scalar (exact polynomial division).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .config import Caps
from .errors import CapExceeded
from .hpoly import HPoly
from .rootsystem import Weight, RootVector
from .characters import partition_function
from .enveloping import UElement, chevalley_basis, shapovalov
from .irreps import _monomials, realize, zero_weight_spectrum

__all__ = ["DetPolynomial", "shapovalov_det", "prv_det", "det_poly"]


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

    def expand(self):
        if self._expanded is None:
            out = HPoly.constant(self.nvars, self.scalar)
            if self.poly is not None:
                out = out * self.poly
            for coeffs, const, exp in self.factors:
                lin = HPoly.linear(list(coeffs), const)
                for _ in range(exp):
                    out = out * lin
            self._expanded = out
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
        if self.poly is None and self.factors:
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


def det_poly(matrix):
    """Determinant of a square matrix of HPoly entries.

    Laplace expansion along the rows, bottom up, with each minor computed
    once: the minor on the last k rows and a k-set S of columns is expanded
    along its top row into minors on the last k - 1 rows, which are keyed by
    their column sets (bit masks).  That is at most n * 2^(n-1) products in
    place of the n! of a cofactor recursion.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("det_poly needs a nonempty square matrix")
    nv = matrix[0][0].nvars
    minors = {1 << j: entry for j, entry in enumerate(matrix[-1])}
    for r in range(n - 2, -1, -1):
        row = matrix[r]
        level = {}
        for mask, minor in minors.items():
            if minor.is_zero:
                continue
            # column j enters the top row of mask | 1 << j; its sign is the
            # parity of the columns of mask to its left
            for j in range(n):
                bit = 1 << j
                if mask & bit or row[j].is_zero:
                    continue
                term = row[j] * minor
                if (mask & (bit - 1)).bit_count() % 2:
                    term = -term
                key = mask | bit
                level[key] = level[key] + term if key in level else term
        minors = level
    return minors.get((1 << n) - 1, HPoly.constant(nv, 0))


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
    gram = _lowering_gram(rs, nu.coeffs)
    return DetPolynomial.from_poly(det_poly(gram) if gram
                                   else HPoly.constant(rs.rank, 1))


def _lowering_gram(rs, depth):
    """Contravariant-form Gram matrix on the lowering monomials of `depth`."""
    basis = chevalley_basis(rs)
    elements = []
    for mono in sorted(_monomials(rs, depth)):
        exps = [0] * basis.dim
        for k, e in enumerate(mono):
            exps[k] = e  # f-block occupies the leading positions
        elements.append(UElement(basis.algebra, {tuple(exps): 1}))
    return [[shapovalov(basis, bi, bj) for bj in elements] for bi in elements]


def prv_det(rs, mu, caps=Caps()):
    """Product formula for the zero-weight-space determinant of V(mu).

    Returns (determinant, leading, spectra): the factored determinant built
    from the eigenvalue multiplicities of f_alpha e_alpha on V(mu)_0, the
    degree-sum companion prod h_alpha^{m_mu(alpha)}, and the spectra per
    positive root.  For an empty zero weight space the determinant is the
    constant 1 (empty matrix) and spectra are empty.
    """
    if not (mu.is_integral and mu.is_dominant):
        raise ValueError("mu must be dominant integral")
    if rs.root_lattice_coords(mu) is None:
        return (DetPolynomial(rs.rank, 1, ()), DetPolynomial(rs.rank, 1, ()),
                {})
    real = realize(rs, mu, caps)
    rho = rs.rho
    factors = []
    lead = []
    scalar = Fraction(1)
    spectra = {}
    for k in range(rs.nroots):
        spec, m_sum = zero_weight_spectrum(rs, real, k)
        spectra[rs.positive_roots[k].coeffs] = spec
        if m_sum:
            lead.append((rs.coroots[k], 0, m_sum))
        base = rs.pairing(rho, k) - 1
        for j, m in sorted(spec.items()):
            if j == 0:
                continue
            # falling factorial {a, j} = (-1)^j j! a(a-1)...(a-j+1)
            scalar *= (Fraction(-1) ** j * factorial(j)) ** m
            for t in range(j):
                factors.append((rs.coroots[k], base - t, m))
    det = DetPolynomial(rs.rank, scalar, tuple(factors))
    leading = DetPolynomial(rs.rank, 1, tuple(lead))
    return det, leading, spectra
