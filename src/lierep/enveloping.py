"""Exact enveloping-algebra engine.

A Chevalley basis is built from the root system alone: signs are fixed by
choosing, for each non-simple positive root, its minimal decomposition in the
height-lex root order and normalising that bracket to p+1 > 0; every other
structure constant follows from the standard triple/quadruple relations.  The
finished table is machine-checked (antisymmetry, Jacobi on all triples, root
string magnitudes, transpose compatibility) before use.

PBW monomials are ordered f-block (roots ascending), Cartan block, e-block
(roots descending).  The mirrored e-block makes the transpose anti-involution
act monomial-by-monomial.

Coefficients are ints or ``fractions.Fraction``.  A product scales each
factor to integers once, by the lcm of its denominators, straightens and
merges on ints, and divides once per output term.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import InvariantViolation
from .hpoly import HPoly
from .linalg import _integral, mat_inv
from .rootsystem import _num

__all__ = [
    "ChevalleyBasis", "chevalley_basis", "UElement", "PBWAlgebra",
    "transpose", "hc_projection", "shapovalov", "casimir", "normal_form",
    "product_bracket", "BracketTable",
]


class BracketTable:
    """Abstract finite-dimensional Lie algebra: named basis plus bracket dict.

    table[(i, j)] with i < j maps to {k: coeff}; the other order is implied
    by antisymmetry.
    """

    def __init__(self, names, table, weights=None):
        self.names = list(names)
        self.dim = len(self.names)
        self.table = table
        self.weights = weights  # optional per-index grading vectors

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

    def change_basis(self, vectors, names, weights=None):
        """Structure constants in the span of `vectors` (old coordinates)."""
        n = self.dim
        if len(vectors) != n:
            raise ValueError("need a full new basis")
        mat = [[Fraction(vectors[j].get(i, 0)) for j in range(n)] for i in range(n)]
        inv = mat_inv(mat)  # new coords = inv * old coords
        table = {}
        for p in range(n):
            for q in range(p + 1, n):
                old = {}
                for i, ci in vectors[p].items():
                    for j, cj in vectors[q].items():
                        for k, c in self.bracket(i, j).items():
                            old[k] = old.get(k, 0) + ci * cj * c
                entry = {}
                for r in range(n):
                    val = _num(sum(Fraction(inv[r][i]) * old.get(i, 0) for i in old))
                    if val != 0:
                        entry[r] = val
                if entry:
                    table[(p, q)] = entry
        return BracketTable(names, table, weights)


def product_bracket(ta, tb):
    """Bracket table of the direct sum, second factor's indices offset."""
    off = ta.dim
    table = {}
    for (i, j), entry in ta.table.items():
        table[(i, j)] = dict(entry)
    for (i, j), entry in tb.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in entry.items()}
    weights = None
    if ta.weights is not None and tb.weights is not None:
        za = (0,) * len(tb.weights[0])
        zb = (0,) * len(ta.weights[0])
        weights = [w + za for w in ta.weights] + [zb + w for w in tb.weights]
    names = [f"{n}'" for n in ta.names] + [f"{n}''" for n in tb.names]
    return BracketTable(names, table, weights)


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
        if a == b:
            return 0
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
            entry = {k: _num(v) for k, v in entry.items() if v != 0}
            if not entry:
                return
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

        # transpose signs: s = 1 on simple roots, multiplicative over the
        # minimal decompositions
        sign = [None] * m
        for k in range(m):
            if rs.positive_roots[k].height == 1:
                sign[k] = 1
        for g in sorted(special, key=lambda g: rs.positive_roots[g].height):
            a1, b1 = special[g]
            sign[g] = sign[a1] * sign[b1]
        self.iota_signs = tuple(sign)

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
        return UElement.generator(self.algebra, idx)

    def e(self, i):
        """Simple generator e_i (i a simple-root index; alpha_i is root
        rank - 1 - i)."""
        return self.gen(self.idx_e(self.rank - 1 - i))

    def f(self, i):
        return self.gen(self.idx_f(self.rank - 1 - i))

    def h(self, i):
        return self.gen(self.idx_h(i))

    def e_root(self, k):
        return self.gen(self.idx_e(k))

    def f_root(self, k):
        return self.gen(self.idx_f(k))

    def one(self):
        return UElement.one(self.algebra)

    # checks -------------------------------------------------------------------

    def _check_transpose_compatible(self):
        """iota([x, y]) == [iota(y), iota(x)] on the whole basis."""
        m, rank = self.m, self.rank

        def iota_vec(i):
            if i < m:
                return {self.idx_e(i): self.iota_signs[i]}
            if i < m + rank:
                return {i: 1}
            k = i - m - rank
            return {self.idx_f(k): self.iota_signs[k]}

        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                lhs = {}
                for k, c in self.table.bracket(i, j).items():
                    for t, s in iota_vec(k).items():
                        lhs[t] = lhs.get(t, 0) + c * s
                rhs = {}
                for a, ca in iota_vec(j).items():
                    for b, cb in iota_vec(i).items():
                        for t, c in self.table.bracket(a, b).items():
                            rhs[t] = rhs.get(t, 0) + ca * cb * c
                if any(lhs.get(t, 0) != rhs.get(t, 0) for t in set(lhs) | set(rhs)):
                    raise InvariantViolation("transpose signs inconsistent")


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
    """Straightening engine for U(g) over an ordered Lie basis."""

    def __init__(self, table, order):
        self.table = table
        self.dim = table.dim
        self.order = tuple(order)
        self.pos = {b: p for p, b in enumerate(order)}
        self._memo = {}
        # (position, grading vector) of every position of nonzero weight
        w = table.weights
        self._graded = None if w is None else tuple(
            (p, w[b]) for p, b in enumerate(self.order) if any(w[b]))

    def monomial_word(self, exps):
        word = []
        for p, e in enumerate(exps):
            word.extend([self.order[p]] * e)
        return tuple(word)

    def straighten(self, word):
        """Normal form of a product of Lie basis elements."""
        word = tuple(word)
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        pos = self.pos
        desc = next((k for k in range(len(word) - 1)
                     if pos[word[k]] > pos[word[k + 1]]), None)
        if desc is None:
            exps = [0] * self.dim
            for b in word:
                exps[pos[b]] += 1
            result = {tuple(exps): 1}
        else:
            x, y = word[desc], word[desc + 1]
            swapped = word[:desc] + (y, x) + word[desc + 2:]
            result = dict(self.straighten(swapped))
            for z, c in self.table.bracket(x, y).items():
                sub = self.straighten(word[:desc] + (z,) + word[desc + 2:])
                for e, c2 in sub.items():
                    result[e] = result.get(e, 0) + c * c2
            result = {e: c for e, c in result.items() if c != 0}
        self._memo[word] = result
        return result

    def weight_of(self, exps):
        if self._graded is None:
            raise ValueError("algebra carries no grading")
        tot = [0] * len(self.table.weights[0])
        for p, wt in self._graded:
            e = exps[p]
            if e:
                for i, x in enumerate(wt):
                    tot[i] += e * x
        return tuple(tot)


class UElement:
    """Exact linear combination of PBW monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {e: _num(c) for e, c in terms.items() if c != 0}

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
        return UElement(self.algebra, {e: scalar * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, UElement):
            return UElement(self.algebra,
                            {e: c * other for e, c in self.terms.items()})
        alg = self._same_algebra(other)
        # once per factor: its coefficients times the lcm of their
        # denominators; once per term, not per pair: its word, and the PBW
        # position of its last (left factor) or first (right factor) letter
        lcoeffs, lden = _integral(list(self.terms.values()))
        rcoeffs, rden = _integral(list(other.terms.values()))
        pos = alg.pos
        lefts = [(e, c, w, pos[w[-1]] if w else -1)
                 for e, c in zip(self.terms, lcoeffs)
                 for w in [alg.monomial_word(e)]]
        rights = [(e, c, w, pos[w[0]] if w else alg.dim)
                  for e, c in zip(other.terms, rcoeffs)
                  for w in [alg.monomial_word(e)]]
        out = {}
        for e1, c1, w1, last in lefts:
            for e2, c2, w2, first in rights:
                c12 = c1 * c2
                if last <= first:
                    # the blocks do not interleave: concatenation is sorted
                    key = tuple(map(add, e1, e2))
                    out[key] = out.get(key, 0) + c12
                    continue
                for e, c in alg.straighten(w1 + w2).items():
                    out[e] = out.get(e, 0) + c12 * c
        den = lden * rden
        if den != 1:
            out = {e: Fraction(c, den) for e, c in out.items() if c}
        return UElement(alg, out)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, not {k!r}")
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


def transpose(basis, u):
    """Anti-involution fixing h and swapping e_alpha with f_alpha (with the
    construction's signs on non-simple roots).  Acts monomial-by-monomial
    thanks to the mirrored e-block."""
    m, rank = basis.m, basis.rank
    out = {}
    for exps, c in u.terms.items():
        fpart = exps[:m]
        hpart = exps[m:m + rank]
        epart = exps[m + rank:]  # position m+rank+t holds e_{m-1-t}
        e_by_root = tuple(reversed(epart))
        sign = 1
        for k in range(m):
            if basis.iota_signs[k] == -1 and (fpart[k] + e_by_root[k]) % 2:
                sign = -sign
        new = e_by_root + hpart + tuple(reversed(fpart))
        out[new] = out.get(new, 0) + sign * c
    return UElement(u.algebra, out)


def _h_poly_from_terms(basis, terms):
    rank = basis.rank
    m = basis.m
    poly = {}
    for exps, c in terms.items():
        if any(exps[:m]) or any(exps[m + rank:]):
            continue
        poly[tuple(exps[m:m + rank])] = c
    return HPoly(rank, poly)


def hc_projection(basis, u, w=None):
    """Projection of a zero-weight element onto Sym h along the w-Borel
    decomposition; w None or the identity gives the standard one."""
    if u.weight() not in (None, (0,) * basis.rank):
        raise ValueError("hc_projection needs a weight-zero element")
    if w is not None:
        basis.rs.require_weyl_element(w)
    if w is None or w.is_identity:
        return _h_poly_from_terms(basis, u.terms)
    # order adapted to the simple system w(Pi): root vectors over w(R-) first
    winv = w.inverse()
    neg, pos = [], []
    for k in range(basis.m):
        img = winv.apply_root(basis.rs.positive_roots[k])
        if img.is_positive:
            # w^{-1}(r_k) positive: -r_k lies in w(R-), so f_k joins the lower block
            neg.append(basis.idx_f(k))
            pos.append(basis.idx_e(k))
        else:
            neg.append(basis.idx_e(k))
            pos.append(basis.idx_f(k))
    order = (tuple(neg) + tuple(basis.idx_h(i) for i in range(basis.rank))
             + tuple(reversed(pos)))
    alg = _reordered_algebra(basis, order)
    out = {}
    for exps, c in u.terms.items():
        word = u.algebra.monomial_word(exps)
        for e2, c2 in alg.straighten(word).items():
            out[e2] = out.get(e2, 0) + c * c2
    # in the reordered algebra the h-block occupies the same positions
    return _h_poly_from_terms(basis, out)


@lru_cache(maxsize=None)
def _reordered_algebra(basis, order):
    return PBWAlgebra(basis.table, order)


def shapovalov(basis, b1, b2):
    """Contravariant form beta(transpose(b1) * b2) as a polynomial in h_i."""
    return _h_poly_from_terms(basis, (transpose(basis, b1) * b2).terms)


def is_central(basis, u):
    gens = [basis.e(i) for i in range(basis.rank)]
    gens += [basis.f(i) for i in range(basis.rank)]
    gens += [basis.h(i) for i in range(basis.rank)]
    return all(u.commutator(g).is_zero for g in gens)


@lru_cache(maxsize=None)
def casimir(basis):
    """Quadratic Casimir, normalised so the rank-one case is 4fe + h^2 + 2h.

    Acts on V(lambda) by 2*((lambda+rho, lambda+rho) - (rho, rho)).
    """
    rs = basis.rs
    rank = rs.rank
    # B(h_i, h_j) = cartan[i][j] / d_j for the short-2 normalisation
    bmat = [[Fraction(rs.cartan[i][j], rs.sym[j]) for j in range(rank)]
            for i in range(rank)]
    binv = mat_inv(bmat)
    acc = UElement.zero(basis.algebra)
    for i in range(rank):
        for j in range(rank):
            if binv[i][j]:
                acc = acc + binv[i][j] * (basis.h(i) * basis.h(j))
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
    rs.require_weyl_element(w)
    winv = w.inverse()
    rows = [[winv.matrix[i][j] for j in range(rs.rank)] for i in range(rs.rank)]
    shift = winv.twisted(rs.zero_weight())  # w^{-1} * 0 = w^{-1} rho - rho
    consts = list(shift.coords)
    return poly.substitute_affine(rows, consts)
