"""Exact linear algebra over the rationals and the integers.

Matrices are lists of lists holding ints or ``fractions.Fraction``.  Spans
over Q take one fraction-free elimination: ``SpanBasis`` keeps integer rows
in echelon form with Bareiss's update (Math. Comp. 1968), one row at a time,
and rank, nullity, kernel bases, inverses and determinants are read from its
pivot rows.  A row with ``Fraction`` entries is first scaled by the lcm of
its denominators, which changes neither its span nor its kernel.  A
``Fraction`` is made only by back-substitution and by the determinant's last
division by those scale factors.  Spans over Z take the Hermite normal
form instead: ``lattice_basis``.
"""

from fractions import Fraction
from math import lcm


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


def _integral(row):
    """(integer row, d): the row times the lcm d of its denominators."""
    if all(type(x) is int for x in row):
        return row, 1
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


class SpanBasis:
    """Row space of rational rows, grown one row at a time.

    ``rows`` holds integer rows in the order they were added, ``pivots`` the
    pivot column of each.  Row k is zero in the pivot columns of rows
    0..k-1.  A new row x is reduced against them in order by Bareiss's step
    x -> (p_k x - x[c_k] row_k) / p_(k-1), with p_k the pivot of row k and
    p_(-1) = 1.  Each entry is then a minor of the rows added so far, so the
    division is exact, even when x[c_k] is zero and the step only rescales.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        v, _ = _integral(vec)
        prev = 1
        for row, c in zip(self.rows, self.pivots):
            p = row[c]
            x = v[c]
            if x:
                v = [(p * a - x * b) // prev for a, b in zip(v, row)]
            elif p != prev:
                v = [p * a // prev for a in v]
            prev = p
        return v

    def add(self, vec):
        """Insert vec into the span; True if the dimension grew."""
        if len(self.rows) == self.ncols:
            return False
        v = self._reduce(vec)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        self.rows.append(list(v))  # v may be the caller's own row
        self.pivots.append(c)
        return True

    def contains(self, vec):
        return not any(self._reduce(vec))

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
    if sorted(span.pivots) != list(range(n)):
        raise ValueError("singular matrix")
    cols = span.kernel()
    return [[col[i] for col in cols] for i in range(n)]


def det(a):
    """Determinant of a square rational matrix: the last pivot, signed by
    the order in which the pivot columns were taken and divided by the
    scale factors of the rows."""
    span = SpanBasis(len(a))
    den = 1
    for row in a:
        row, d = _integral(row)
        den *= d
        if not span.add(row):
            return Fraction(0)
    c = span.pivots
    swaps = sum(c[j] > c[i] for i in range(len(c)) for j in range(i))
    last = span.rows[-1][c[-1]] if c else 1
    return Fraction((-1) ** swaps * last, den)


def _reduce_below(v, rows, pivots, k):
    """v with its entries at the pivots of rows[k:] reduced into 0..pivot-1."""
    for row, c in zip(rows[k:], pivots[k:]):
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_basis(vectors):
    """(rows, coords): the reduced Hermite normal form of the Z-span of
    integer vectors, and each vector's integer coordinates in it.

    The rows are echelon with positive pivots, and each entry at a later
    row's pivot lies in 0..pivot-1, which makes them unique.  A vector walks
    the rows in pivot order; at a row with its leading column, Euclid's
    algorithm on the pair leaves their gcd in the row and 0 in the vector,
    and both are reduced modulo the later rows.  A last pass reduces every
    row so; both reductions keep the entries small."""
    rows, pivots = [], []
    for v in vectors:
        k = 0
        while any(v):
            c = next(t for t, x in enumerate(v) if x)
            while k < len(rows) and pivots[k] < c:
                k += 1
            if k == len(rows) or pivots[k] > c:
                v = v if v[c] > 0 else [-a for a in v]
                rows.insert(k, _reduce_below(v, rows, pivots, k))
                pivots.insert(k, c)
                break
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
