"""Exact linear algebra over the rationals and the integers.

Matrices are lists of lists holding ints or ``fractions.Fraction``.  Spans
take one elimination, ``SpanBasis``: the insertion of integer rows into a
Hermite normal form by Euclid's algorithm (Cohen, A Course in Computational
Algebraic Number Theory, 2.4.2), which keeps the entries small.  A row with
``Fraction`` entries is first scaled by the lcm of its denominators, which
changes neither its span nor its kernel.  Rank, nullity, kernels and
inverses are read from its rows, and a ``Fraction`` is made only by
back-substitution; ``lattice_basis`` finishes them into the reduced Hermite
normal form of a Z-span.  ``det`` is a fraction-free (Bareiss) elimination.
"""

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm, prod


def mat_mul(a, b):
    """Product of int or Fraction matrices, skipping zero entries."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                for c, x in enumerate(b[k]):
                    if x:
                        acc[c] += v * x
        out.append(acc)
    return out


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


_INT = frozenset((int,))


def _integral(row):
    """(integer row, d): the row times the lcm d of its denominators."""
    if _INT.issuperset(map(type, row)):
        return row, 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _reduce_below(v, rows, pivots, k):
    """v with its entries at the pivots of rows[k:] reduced into 0..pivot-1."""
    for t in range(k, len(rows)):
        row, c = rows[t], pivots[t]
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


class SpanBasis:
    """Row space of rational rows, grown one row at a time.

    ``rows`` holds integer rows in echelon form, in increasing order of
    their pivot columns ``pivots``, each pivot positive.  A new row, scaled
    to integers, walks the rows in pivot order; at a row with its leading
    column, Euclid's algorithm on the pair leaves their gcd in the row and
    0 in the new row, and both are reduced modulo the later rows, at whose
    pivots their entries then lie in 0..pivot-1.  So the rows are a basis
    of the lattice of the integer rows added, and the reductions keep their
    entries small.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        """Insert vec into the span; True if the dimension grew.  The rows
        may change even when it did not."""
        rows, pivots = self.rows, self.pivots
        if len(rows) == self.ncols and all(r[c] == 1 for r, c in
                                           zip(rows, pivots)):
            return False  # the rows are a basis of Z^ncols
        v, _ = _integral(vec)
        k, n = 0, len(rows)
        # the leading column of v, None once v is zero
        while (c := next(compress(count(), v), None)) is not None:
            while k < n and pivots[k] < c:
                k += 1
            if k == n or pivots[k] > c:
                v = list(v) if v[c] > 0 else [-a for a in v]
                rows.insert(k, _reduce_below(v, rows, pivots, k))
                pivots.insert(k, c)
                return True
            row = rows[k]
            while v[c]:
                q = v[c] // row[c]
                v = [b - q * a for a, b in zip(row, v)]
                if v[c]:
                    row, v = v, row
            if row is not rows[k]:
                rows[k] = _reduce_below(row, rows, pivots, k + 1)
            k += 1
            v = _reduce_below(v, rows, pivots, k)
        return False

    def contains(self, vec):
        """True if vec lies in the rational span of the rows."""
        v, _ = _integral(vec)
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                g = gcd(row[c], v[c])
                p, x = row[c] // g, v[c] // g
                v = [p * a - x * b for a, b in zip(v, row)]
        return not any(v)

    def kernel(self):
        """Basis of {x : row . x = 0 for every row}: for each free column f
        in increasing order, the vector that is 1 at f and 0 at the other
        free columns, found by back-substitution."""
        pivots = set(self.pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            x = [Fraction(0)] * self.ncols
            x[f] = Fraction(1)
            for row, c in zip(reversed(self.rows), reversed(self.pivots)):
                s = sum((a * y for a, y in zip(row, x) if a), Fraction(0))
                x[c] = -s / row[c]
            basis.append(x)
        return basis


def _echelon(rows, ncols):
    span = SpanBasis(ncols)
    for row in rows:
        span.add(row)
    return span


def rank(rows):
    return _echelon(rows, len(rows[0]) if rows else 0).dim


def nullity(rows, ncols):
    return ncols - _echelon(rows, ncols).dim


def kernel_basis(rows, ncols):
    """Basis of the right kernel {x : M x = 0} as rational column vectors."""
    return _echelon(rows, ncols).kernel()


def mat_inv(a):
    """Inverse of a square rational matrix.  The kernel vector of [A | -I]
    that is 1 at column n + j holds column j of the inverse in its first n
    entries."""
    n = len(a)
    span = _echelon([list(row) + [-int(i == j) for j in range(n)]
                     for i, row in enumerate(a)], 2 * n)
    if span.pivots != list(range(n)):
        raise ValueError("singular matrix")
    cols = span.kernel()
    return [[col[i] for col in cols] for i in range(n)]


def det(a):
    """Determinant of a square rational matrix by Bareiss's fraction-free
    elimination (Math. Comp. 1968): after step k every entry below row k is
    a minor, so each division is exact, and the last pivot is the
    determinant, up to the sign of the row swaps and the rows' scales."""
    scaled = [_integral(row) for row in a]
    rows, den, prev = [r for r, _ in scaled], prod(d for _, d in scaled), 1
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p], den = rows[p], rows[k], -den
        piv = rows[k][k]
        for i in range(k + 1, len(rows)):
            x = rows[i][k]
            rows[i] = [(piv * u - x * v) // prev
                       for u, v in zip(rows[i], rows[k])]
        prev = piv
    return Fraction(prev, den)


def lattice_basis(vectors):
    """(rows, coords): the reduced Hermite normal form of the Z-span of
    integer vectors, and each vector's integer coordinates in it.

    ``SpanBasis`` inserts the vectors; a last pass reduces every row modulo
    the later pivots, which makes the rows unique and keeps them small."""
    span = _echelon(vectors, len(vectors[0]) if vectors else 0)
    rows, pivots = span.rows, span.pivots
    for k in reversed(range(len(rows))):
        rows[k] = _reduce_below(rows[k], rows, pivots, k + 1)
    coords = []
    for v in vectors:
        coords.append([])
        for row, c in zip(rows, pivots):
            q = v[c] // row[c]
            coords[-1].append(q)
            if q:
                v = [a - q * b for a, b in zip(v, row)]
    return rows, coords
