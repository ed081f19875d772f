"""Exact enveloping-algebra engine.

A Chevalley basis is built from the root system alone: signs are fixed by
choosing, for each non-simple positive root, its minimal decomposition in the
height-lex root order and normalising that bracket to p+1 > 0; every other
structure constant follows from the standard triple/quadruple relations.  The
finished table is machine-checked (antisymmetry, Jacobi on all triples, root
string magnitudes, transpose compatibility) before use.  Every
``BracketTable`` is graded: the Chevalley basis by roots, and the sl2 x sl2
table that ``centralchar`` writes out by its h-bar-eigenvalues.

PBW monomials are ordered f-block (roots ascending), Cartan block, e-block
(roots descending).  The transpose anti-involution swaps e_alpha and f_alpha
with no sign; on the mirrored e-block it reverses the f- and e-blocks into
each other, one monomial to one monomial.

Each ``PBWAlgebra`` interns its PBW monomials: an exponent tuple gets a
small int id, private to that algebra, and its grading vector is computed
once per id.  Every normal form comes from one table on those ids: row i
maps a right id j to the normal form of monomial_i * monomial_j as a flat
tuple (id, coeff, id, coeff, ...), filled on the first request.  A sorted
concatenation sums the exponents.  One letter x times y j' with x > y is
y (x j') + [x, y] j', entries on a shorter j' or of lower degree, so the
recursion is as deep as the degree of the product.  A longer left monomial
multiplies j by its letters from the right through the one-letter entries,
and so does straightening a word.  A product interns each factor's terms
once and reads its rows by id, so it builds and hashes no word per pair of
terms.

Coefficients and scalars pass ``rootsystem._num`` (TypeError unless an int
or a ``Fraction``).  A product scales each factor to integers once, by the
lcm of its denominators, merges on ints, and divides once per output term.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count
from operator import add, mul

from .errors import InvariantViolation
from .hpoly import HPoly, _require_exponent
from .linalg import _integral
from .rootsystem import _num

__all__ = [
    "ChevalleyBasis", "chevalley_basis", "UElement", "PBWAlgebra",
    "transpose", "hc_projection", "shapovalov", "casimir", "normal_form",
    "BracketTable",
]


class BracketTable:
    """Finite-dimensional graded Lie algebra given by its structure
    constants: named basis, bracket dict and grading.

    table[(i, j)] with i < j maps to {k: coeff}; the other order is implied
    by antisymmetry.  weights[i] is the grading vector of basis element i,
    so every PBW monomial has a weight.
    """

    def __init__(self, names, table, weights):
        self.names = list(names)
        self.dim = len(self.names)
        self.table = table
        self.weights = weights

    def bracket(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def check_jacobi(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for mid, c1 in self.bracket(a, b).items():
                            for out, c2 in self.bracket(mid, c).items():
                                acc[out] = acc.get(out, 0) + c1 * c2
                    if any(v != 0 for v in acc.values()):
                        raise InvariantViolation(
                            f"Jacobi fails on basis triple ({i},{j},{k})")


# --------------------------------------------------------------------------
# Chevalley structure constants via minimal ("extraspecial") decompositions.

def _build_constants(rs):
    m = rs.nroots
    index = rs.root_index
    norms = rs.root_norms  # (alpha, alpha), short = 2

    def p_down(a, b):
        # largest k with r_b - k r_a a root: the r_a-string through r_b runs
        # from r_b - p r_a to r_b + q r_a with p - q = r_b(h_{r_a})
        q = 0
        cb = rs.positive_roots[b].coeffs
        while True:
            cb = tuple(map(add, cb, rs.positive_roots[a].coeffs))
            if cb not in index:
                break
            q += 1
        return q + sum(map(mul, rs.coroots[a], rs.root_weight_coords[b]))

    special = {}  # gamma index -> (a, b) minimal decomposition
    npp = {}      # (a, b), unordered, a < b -> N(r_a, r_b)

    def n_pp(a, b):
        if a < b:
            return npp.get((a, b), 0)
        return -npp.get((b, a), 0)

    def n_mixed(x, y):
        # N(x_{r_x}, x_{-r_y}) for x != y
        found = rs.root_difference(x, y)
        if found is None:
            return 0
        d, sign = found
        if sign > 0:
            return Fraction(norms[d], norms[x]) * n_pp(d, y)
        return Fraction(norms[d], norms[y]) * n_pp(d, x)

    for g in range(m):
        gamma = rs.positive_roots[g].coeffs
        if sum(gamma) == 1:
            continue
        decomps = []
        for a in range(m):
            found = rs.root_difference(g, a)
            if found is not None and found[1] > 0 and a < found[0]:
                decomps.append((a, found[0]))
        a1, b1 = decomps[0]
        special[g] = (a1, b1)
        npp[(a1, b1)] = p_down(a1, b1) + 1
        base = npp[(a1, b1)]
        for a, b in decomps[1:]:
            t1 = t2 = 0
            n1 = n_mixed(b, a1)
            if n1:
                d, _ = rs.root_difference(b, a1)
                t1 = n1 * n_mixed(a, b1) / norms[d]
            n2 = n_mixed(a, a1)
            if n2:
                d, _ = rs.root_difference(a, a1)
                t2 = -n2 * n_mixed(b, b1) / norms[d]
            val = Fraction(norms[g]) / base * (t1 + t2)
            ival = _num(val)
            if not isinstance(ival, int):
                raise InvariantViolation("non-integer structure constant")
            npp[(a, b)] = ival
        # root-string magnitude check
        for a, b in decomps:
            if abs(npp[(a, b)]) != p_down(a, b) + 1:
                raise InvariantViolation(
                    f"|N| != p+1 at pair {a},{b} of {rs.label}")
    return npp, special, n_pp, n_mixed


class ChevalleyBasis:
    """Chevalley generators and the full bracket table for one root system.

    Basis index layout: 0..m-1 the f_alpha (roots in height-lex order), then
    the Cartan h_i, then e_alpha in the same root order.
    """

    def __init__(self, rs):
        self.rs = rs
        m = rs.nroots
        rank = rs.rank
        self.m = m
        self.rank = rank
        self.dim = 2 * m + rank
        npp, special, n_pp, n_mixed = _build_constants(rs)
        self.special = special

        table = {}

        def put(i, j, entry):
            entry = {k: _num(v) for k, v in entry.items()}
            if i < j:
                table[(i, j)] = entry
            else:
                table[(j, i)] = {k: -v for k, v in entry.items()}

        fdx, hdx, edx = self.idx_f, self.idx_h, self.idx_e
        ridx = rs.root_index
        for k in range(m):
            wc = rs.root_weight_coords[k]
            for i in range(rank):
                if wc[i]:
                    put(hdx(i), edx(k), {edx(k): wc[i]})
                    put(hdx(i), fdx(k), {fdx(k): -wc[i]})
            put(edx(k), fdx(k), {hdx(i): cv for i, cv in enumerate(rs.coroots[k])
                                 if cv})
        for a in range(m):
            for b in range(a + 1, m):
                s = tuple(x + y for x, y in zip(rs.positive_roots[a].coeffs,
                                                rs.positive_roots[b].coeffs))
                g = ridx.get(s)
                if g is not None:
                    nab = n_pp(a, b)
                    put(edx(a), edx(b), {edx(g): nab})
                    put(fdx(a), fdx(b), {fdx(g): -nab})
                # mixed pair e_a f_b, a != b
                for x, y in ((a, b), (b, a)):
                    val = n_mixed(x, y)
                    if val:
                        d, sign = rs.root_difference(x, y)
                        put(edx(x), fdx(y),
                            {(edx if sign > 0 else fdx)(d): val})

        weights = []
        zero = (0,) * rank
        for k in range(m):
            weights.append(tuple(-c for c in rs.positive_roots[k].coeffs))
        weights.extend(zero for _ in range(rank))
        for k in range(m):
            weights.append(rs.positive_roots[k].coeffs)
        self.table = BracketTable(self._names(), table, weights)

        self.table.check_jacobi()
        self._check_transpose_compatible()

        order = (tuple(range(m)) + tuple(m + i for i in range(rank))
                 + tuple(edx(k) for k in reversed(range(m))))
        self.algebra = PBWAlgebra(self.table, order)

    # index layout -----------------------------------------------------------

    def idx_f(self, k):
        return k

    def idx_h(self, i):
        return self.m + i

    def idx_e(self, k):
        return self.m + self.rank + k

    def _names(self):
        rs = self.rs
        names = [f"f[{'+'.join(map(str, rv.coeffs))}]" for rv in rs.positive_roots]
        names += [f"h{i + 1}" for i in range(rs.rank)]
        names += [f"e[{'+'.join(map(str, rv.coeffs))}]" for rv in rs.positive_roots]
        return names

    # generators as UElements --------------------------------------------------

    def gen(self, idx):
        if not (type(idx) is int and 0 <= idx < self.dim):
            raise ValueError(f"basis index {idx!r} not in 0..{self.dim - 1}")
        return UElement.generator(self.algebra, idx)

    def e(self, i):
        """Simple generator e_i (i a simple-root index; alpha_i is root
        rank - 1 - i)."""
        self.rs.require_simple_index(i)
        return self.gen(self.idx_e(self.rank - 1 - i))

    def f(self, i):
        self.rs.require_simple_index(i)
        return self.gen(self.idx_f(self.rank - 1 - i))

    def h(self, i):
        self.rs.require_simple_index(i)
        return self.gen(self.idx_h(i))

    def e_root(self, k):
        self.rs.require_root_index(k)
        return self.gen(self.idx_e(k))

    def f_root(self, k):
        self.rs.require_root_index(k)
        return self.gen(self.idx_f(k))

    def one(self):
        return UElement.one(self.algebra)

    def lowering(self, mono):
        """The PBW monomial prod_k f_{r_k}^{mono[k]}, mono an exponent tuple
        over the positive roots: the f-block leads the PBW order."""
        return UElement(self.algebra,
                        {tuple(mono) + (0,) * (self.dim - self.m): 1})

    # checks -------------------------------------------------------------------

    def _check_transpose_compatible(self):
        """iota([x, y]) == [iota(y), iota(x)] on the whole basis, iota the
        index map swapping f_alpha and e_alpha and fixing h."""
        m, top = self.m, self.m + self.rank

        def iota(i):
            return (self.idx_e(i) if i < m else i if i < top
                    else self.idx_f(i - top))

        bracket = self.table.bracket
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if ({iota(k): c for k, c in bracket(i, j).items()}
                        != bracket(iota(j), iota(i))):
                    raise InvariantViolation("transpose inconsistent with "
                                             "the bracket table")


MAX_RANK = 4


@lru_cache(maxsize=None)
def chevalley_basis(rs):
    if rs.rank > MAX_RANK:
        raise ValueError(f"the enveloping engine handles rank <= {MAX_RANK}; "
                         f"{rs.label} has rank {rs.rank}")
    return ChevalleyBasis(rs)


# --------------------------------------------------------------------------
# PBW normal form

class PBWAlgebra:
    """Product table for U(g) over an ordered Lie basis.

    ``_ids`` and ``_exps`` intern the PBW monomials (exponent tuple -> id
    and back), and ``_weights`` holds each id's grading vector, None until
    asked for.  ``_rows[i]``, made when monomial i is first a left factor,
    maps a right id j to the normal form of monomial_i * monomial_j as a
    flat tuple (id, coeff, ...); every normal form is read from it.
    ``_letters[p]`` is the id of the one-letter monomial at position p.
    """

    def __init__(self, table, order):
        self.table = table
        self.dim = table.dim
        self.order = tuple(order)
        self.pos = {b: p for p, b in enumerate(order)}
        # _brackets[p][q], p > q: the bracket of the basis elements at
        # positions p and q, as ((position, coeff), ...)
        self._brackets = [
            [tuple((self.pos[z], c) for z, c in
                   table.bracket(self.order[p], self.order[q]).items())
             for q in range(p)] for p in range(len(order))]
        self._ids = {}
        self._exps = []
        self._rows = []
        self._weights = []
        unit = (0,) * self.dim
        self._one = self.intern(unit)
        self._letters = [self.intern(unit[:p] + (1,) + unit[p + 1:])
                         for p in range(self.dim)]
        # (position, grading vector) of every position of nonzero weight
        w = table.weights
        self._graded = tuple(
            (p, w[b]) for p, b in enumerate(self.order) if any(w[b]))

    def intern(self, exps):
        """Id of the monomial with exponent tuple `exps`."""
        i = self._ids.get(exps)
        if i is None:
            i = self._ids[exps] = len(self._exps)
            self._exps.append(exps)
            self._rows.append(None)
            self._weights.append(None)
        return i

    def monomial_word(self, exps):
        return tuple([b for b, e in zip(self.order, exps) if e
                      for _ in range(e)])

    def row(self, i):
        """The product-table row of monomial i as a left factor."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = {}
        return row

    def product(self, i, j):
        """Normal form of monomial_i * monomial_j as a flat tuple (id,
        coeff, ...), filled into row i once by one of the three rules of
        the module docstring."""
        row = self.row(i)
        nf = row.get(j)
        if nf is not None:
            return nf
        ei, ej = self._exps[i], self._exps[j]
        y = next(compress(count(), ej), None)  # the first letter of j
        if y is None or not any(ei[y + 1:]):
            nf = row[j] = (self.intern(tuple(map(add, ei, ej))), 1)
            return nf
        if sum(ei) > 1:
            out = self._times(
                [p for p in compress(count(), ei) for _ in range(ei[p])], j)
        else:
            # x y j' = y (x j') + [x, y] j'
            rest = self.intern(ej[:y] + (ej[y] - 1,) + ej[y + 1:])
            it = iter(row.get(rest) or self.product(i, rest))
            out = self._add_times(y, zip(it, it), {})
            for z, c in self._brackets[ei.index(1)][y]:
                self._add_times(z, ((rest, c),), out)
        nf = row[j] = tuple(chain.from_iterable(
            (k, c) for k, c in out.items() if c))
        return nf

    def _add_times(self, p, terms, out):
        """Add the letter at position p times the (id, coeff) pairs `terms`
        into the dict `out`, and return it."""
        x = self._letters[p]
        known, get = self.row(x).get, out.get
        for m, c in terms:
            it = iter(known(m) or self.product(x, m))
            for k in it:
                out[k] = get(k, 0) + c * next(it)
        return out

    def _times(self, letters, j):
        """Normal form of a word of PBW positions times monomial j, as
        {id: coeff}: j multiplied by the letters from the right."""
        nf = {j: 1}
        for p in reversed(letters):
            nf = {k: c for k, c in self._add_times(p, nf.items(), {}).items()
                  if c}
        return nf

    def straighten(self, word):
        """Normal form of a word of Lie basis elements, {id: coeff}: 1
        multiplied by its letters from the right."""
        return self._times(tuple(map(self.pos.__getitem__, word)), self._one)

    def weight_of(self, exps):
        """Grading vector of a monomial, computed once per id."""
        i = self.intern(exps)
        tot = self._weights[i]
        if tot is None:
            tot = [0] * len(self.table.weights[0])
            for p, wt in self._graded:
                e = exps[p]
                if e:
                    for k, x in enumerate(wt):
                        tot[k] += e * x
            tot = self._weights[i] = tuple(tot)
        return tot


class UElement:
    """Exact linear combination of PBW monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {e: v for e, c in terms.items() if (v := _num(c))}

    @classmethod
    def _normalised(cls, algebra, terms):
        """The element with `terms`, whose coefficients are already nonzero
        and normalised."""
        u = cls.__new__(cls)
        u.algebra, u.terms = algebra, terms
        return u

    @classmethod
    def one(cls, algebra):
        return cls(algebra, {(0,) * algebra.dim: 1})

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {})

    @classmethod
    def generator(cls, algebra, basis_index):
        exps = [0] * algebra.dim
        exps[algebra.pos[basis_index]] = 1
        return cls(algebra, {tuple(exps): 1})

    @property
    def is_zero(self):
        return not self.terms

    def _same_algebra(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("elements of different algebras do not combine")
        return self.algebra

    def __add__(self, other):
        if not isinstance(other, UElement):
            return NotImplemented
        self._same_algebra(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return UElement(self.algebra, out)

    def __sub__(self, other):
        if not isinstance(other, UElement):
            return NotImplemented
        self._same_algebra(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return UElement(self.algebra, out)

    def __neg__(self):
        return UElement(self.algebra, {e: -c for e, c in self.terms.items()})

    def __rmul__(self, scalar):
        try:
            scalar = _num(scalar)
        except TypeError:
            return NotImplemented
        return UElement(self.algebra, {e: scalar * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, UElement):
            return self.__rmul__(other)
        alg = self._same_algebra(other)
        # once per factor: its coefficients times the lcm of their
        # denominators; once per term, not per pair: its id
        lcoeffs, lden = _integral(list(self.terms.values()))
        rcoeffs, rden = _integral(list(other.terms.values()))
        intern, rows, product = alg.intern, alg._rows, alg.product
        rights = list(zip(map(intern, other.terms), rcoeffs))
        by_id = {}
        get, nxt = by_id.get, next
        for e1, c1 in zip(self.terms, lcoeffs):
            i = intern(e1)
            row = rows[i] or alg.row(i)
            for j, c2 in rights:
                # a normal form is never empty: U(g) has no zero divisors
                it = iter(row.get(j) or product(i, j))
                c12 = c1 * c2
                for k in it:
                    by_id[k] = get(k, 0) + c12 * nxt(it)
        exps, den = alg._exps, lden * rden
        if den == 1:
            return UElement._normalised(
                alg, {exps[i]: c for i, c in by_id.items() if c})
        return UElement._normalised(alg, {
            exps[i]: Fraction(c, den) if c % den else c // den
            for i, c in by_id.items() if c})

    def __pow__(self, k):
        _require_exponent(k)
        out = UElement.one(self.algebra)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, UElement) and self.terms == other.terms

    def commutator(self, other):
        return self * other - other * self

    def weight(self):
        """Common grading vector of all monomials; raises if inhomogeneous."""
        weights = {self.algebra.weight_of(e) for e in self.terms}
        if len(weights) > 1:
            raise ValueError("inhomogeneous element")
        return weights.pop() if weights else None

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.table.names
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = " ".join(
                (names[self.algebra.order[p]] + (f"^{e}" if e > 1 else ""))
                for p, e in enumerate(exps) if e)
            bits.append(f"({c})" + (f" {mono}" if mono else ""))
        return " + ".join(bits)


# --------------------------------------------------------------------------
# named operations over a ChevalleyBasis

def normal_form(basis, factors):
    """Product of generator UElements (or a list of basis indices) in PBW form."""
    if isinstance(factors, UElement):
        return factors
    out = basis.one()
    for f in factors:
        out = out * (basis.gen(f) if isinstance(f, int) else f)
    return out


def _require_element_of(basis, u):
    if not isinstance(u, UElement):
        raise TypeError(f"{type(u).__name__} is not an element of U(g)")
    if u.algebra is not basis.algebra:
        raise ValueError("element is not in the enveloping algebra of "
                         f"the Chevalley basis of {basis.rs}")


def transpose(basis, u):
    """Anti-involution fixing h and swapping e_alpha with f_alpha.  On the
    mirrored PBW order it maps a monomial to one monomial: the f-block and
    the e-block, each reversed, trade places and the h-block stays."""
    _require_element_of(basis, u)
    m, top = basis.m, basis.m + basis.rank
    return UElement._normalised(u.algebra, {
        e[top:][::-1] + e[m:top] + e[:m][::-1]: c for e, c in u.terms.items()})


def _h_poly_from_terms(basis, terms):
    """The Cartan part of a PBW expansion: its terms with no f or e factor,
    as a polynomial in the h_i."""
    m, top, none = basis.m, basis.m + basis.rank, (0,) * basis.m
    return HPoly(basis.rank, {exps[m:top]: c for exps, c in terms.items()
                              if exps[:m] == none and exps[top:] == none})


def _borel_order(basis, w):
    """PBW order adapted to the simple system w(Pi): the root vectors over
    w(R-) first, then the h-block at its standard positions."""
    winv = w.inverse()
    neg, pos = [], []
    for k in range(basis.m):
        if winv.apply_root(basis.rs.positive_roots[k]).is_positive:
            # -r_k lies in w(R-), so f_k joins the lower block
            neg.append(basis.idx_f(k))
            pos.append(basis.idx_e(k))
        else:
            neg.append(basis.idx_e(k))
            pos.append(basis.idx_f(k))
    return (tuple(neg) + tuple(basis.idx_h(i) for i in range(basis.rank))
            + tuple(reversed(pos)))


def hc_projection(basis, u, w=None):
    """Projection of a zero-weight element onto Sym h along the w-Borel
    decomposition; w None or the identity gives the standard one.  One
    loop checks the weight of every term, cached per id; for w other than
    the identity u is re-expressed in the PBW order of w(Pi); and
    ``_h_poly_from_terms`` reads the Cartan part."""
    _require_element_of(basis, u)
    if w is not None:
        basis.rs.require_same_system(w)
    alg, zero = u.algebra, (0,) * basis.rank
    ids, weights, weight_of = alg._ids, alg._weights, alg.weight_of
    for exps in u.terms:
        i = ids.get(exps)
        if ((i is not None and weights[i]) or weight_of(exps)) != zero:
            u.weight()  # the inhomogeneous-element error, if it applies
            raise ValueError("hc_projection needs a weight-zero element")
    terms = u.terms
    if w is not None and not w.is_identity:
        twisted = _reordered_algebra(basis, _borel_order(basis, w))
        by_id = {}
        for exps, c in terms.items():
            for i, c2 in twisted.straighten(alg.monomial_word(exps)).items():
                by_id[i] = by_id.get(i, 0) + c * c2
        # the reordered algebra keeps the h-block at the same positions
        terms = {twisted._exps[i]: c for i, c in by_id.items()}
    return _h_poly_from_terms(basis, terms)


@lru_cache(maxsize=None)
def _reordered_algebra(basis, order):
    return PBWAlgebra(basis.table, order)


def shapovalov(basis, b1, b2):
    """Contravariant form beta(transpose(b1) * b2) as a polynomial in h_i."""
    return _h_poly_from_terms(basis, (transpose(basis, b1) * b2).terms)


def is_central(basis, u):
    _require_element_of(basis, u)
    gens = [basis.e(i) for i in range(basis.rank)]
    gens += [basis.f(i) for i in range(basis.rank)]
    gens += [basis.h(i) for i in range(basis.rank)]
    return all(u.commutator(g).is_zero for g in gens)


@lru_cache(maxsize=None)
def casimir(basis):
    """Quadratic Casimir, normalised so the rank-one case is 4fe + h^2 + 2h.

    Acts on V(lambda) by 2*((lambda+rho, lambda+rho) - (rho, rho)).
    """
    if not isinstance(basis, ChevalleyBasis):
        raise TypeError(f"{type(basis).__name__} is not a ChevalleyBasis")
    rs = basis.rs
    # B(h_i, h_j) = cartan[i][j] / d_j for the short-2 normalisation; its
    # inverse diag(d) A^{-1} is the fundamental-weight form
    acc = UElement.zero(basis.algebra)
    for i, row in enumerate(rs.form_num):
        for j, x in enumerate(row):
            if x:
                acc = acc + Fraction(x, rs.form_den) * basis.h(i) * basis.h(j)
    for k in range(rs.nroots):
        d_k = Fraction(rs.root_norms[k], 2)
        acc = acc + d_k * (basis.e_root(k) * basis.f_root(k)
                           + basis.f_root(k) * basis.e_root(k))
    delta = 2 * acc
    if not is_central(basis, delta):
        raise InvariantViolation("Casimir element is not central")
    return delta


CASIMIR_SCALE = 2  # eigenvalue = CASIMIR_SCALE * ((lam+rho,lam+rho) - (rho,rho))


def casimir_eigenvalue(rs, lam):
    rho = rs.rho
    return _num(CASIMIR_SCALE * (rs.inner(lam + rho, lam + rho)
                                 - rs.inner(rho, rho)))


def twisted_poly(rs, w, poly):
    """Dot action on polynomials: (w * p)(lam) = p(w^{-1} * lam)."""
    rs.require_same_system(w)
    winv = w.inverse()
    rows = [[winv.matrix[i][j] for j in range(rs.rank)] for i in range(rs.rank)]
    shift = winv.twisted(rs.zero_weight())  # w^{-1} * 0 = w^{-1} rho - rho
    consts = list(shift.coords)
    return poly.substitute_affine(rows, consts)
