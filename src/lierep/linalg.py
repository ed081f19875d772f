"""Exact linear algebra over the rationals.

Matrices are lists of lists holding ints or ``fractions.Fraction``.  Rank of
an integer matrix uses fraction-free (Bareiss) elimination; kernels, pivots,
solving, inversion and ``SpanBasis`` run Gauss-Jordan over ``Fraction``.
"""

from fractions import Fraction


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


def mat_inv(a):
    """Inverse of a square rational matrix: the right half of the reduced
    echelon form of [A | I]."""
    n = len(a)
    ech, pivots = row_echelon([list(row) + e for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in ech]


def row_echelon(rows):
    """Reduce rational rows in place; returns (echelon rows, pivot columns).

    Zero rows are dropped.  Rows are scaled so each pivot is 1.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = Fraction(1, 1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank_int(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Every row below the pivot is rescaled each step, zero leading entry or
    not; that is what keeps the interior divisions exact.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        pc = pr[c]
        for i in range(rank + 1, len(work)):
            ri = work[i]
            fc = ri[c]
            if fc:
                work[i] = [(pc * x - fc * y) // prev for x, y in zip(ri, pr)]
            elif pc != prev:
                work[i] = [(pc * x) // prev for x in ri]
        prev = pc
        rank += 1
        if rank == len(work):
            break
    return rank


def kernel_basis(rows, ncols):
    """Basis of the right kernel {x : M x = 0} as rational column vectors."""
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    ech, pivots = row_echelon([[Fraction(x) for x in r] for r in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def nullity(rows, ncols):
    if not rows:
        return ncols
    if all(isinstance(x, int) for r in rows for x in r):
        return ncols - rank_int(rows)
    _, pivots = row_echelon(rows)
    return ncols - len(pivots)


def solve(a, b):
    """Solve a x = b for square nonsingular rational a."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    ech, pivots = row_echelon(m)
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [ech[i][n] for i in range(n)]


def pivot_columns(rows):
    """Pivot column indices of a rational matrix, scanning columns left to right."""
    if not rows:
        return []
    _, pivots = row_echelon([[Fraction(x) for x in r] for r in rows])
    return pivots


class SpanBasis:
    """Incrementally maintained row space in echelon form, exact arithmetic."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # echelon rows, pivot scaled to 1
        self.pivots = []    # pivot column per row, increasing

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec into the span; True if the dimension grew."""
        v = self.reduce(vec)
        p = next((c for c in range(self.ncols) if v[c] != 0), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv for x in v]
        i = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(i, v)
        self.pivots.insert(i, p)
        # keep fully reduced above the new pivot
        for k in range(len(self.rows)):
            if k != i and self.rows[k][p] != 0:
                f = self.rows[k][p]
                self.rows[k] = [x - f * y for x, y in zip(self.rows[k], v)]
        return True

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))
