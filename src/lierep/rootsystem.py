"""Root systems of the finite simple types A-G, with exact coordinates.

Conventions used throughout the package:

* a weight is stored in the fundamental-weight basis, coordinate i being the
  pairing lambda(h_i) with the i-th simple coroot;
* a root is stored in the simple-root basis with integer coefficients;
* the invariant bilinear form is normalised so short roots have squared
  length 2; everything is exact (ints, else ``fractions.Fraction``).

The Cartan matrix convention is ``cartan[i][j] = alpha_j(h_i)``, so the
fundamental coordinates of alpha_j are the j-th column.

Arguments are checked here: scalars by ``_num`` (TypeError), weights, simple
and positive root indices, and the system of a Weyl element, realization
or Chevalley basis by the ``RootSystem.require_*`` methods (ValueError, or
TypeError for a weight that is not a ``Weight``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .errors import InvariantViolation
from .linalg import det, mat_inv

__all__ = [
    "Weight", "RootVector", "RootSystem", "build_root_system",
    "weyl_order", "parse_weight", "format_weight", "dominance_hull_equiv",
]


def _num(x):
    """An exact scalar, an int (not a bool) or a Fraction, normalised: an
    integral Fraction becomes an int.  Anything else raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"a scalar must be an int or a Fraction, not {x!r}")


@dataclass(frozen=True, slots=True)
class Weight:
    """Vector of exact rationals in the fundamental-weight basis."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_num(c) for c in self.coords))

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords,
                                                  strict=True)))

    def __sub__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords,
                                                  strict=True)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, scalar):
        try:
            scalar = _num(scalar)
        except TypeError:
            return NotImplemented
        return Weight(tuple(scalar * a for a in self.coords))

    @property
    def is_integral(self):
        return all(isinstance(c, int) for c in self.coords)

    @property
    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return format_weight(self)


@dataclass(frozen=True, slots=True)
class RootVector:
    """Integer vector in the simple-root basis, coefficients read by Fraction:
    1.0 passes, 1.5 is a ValueError, an integral str or bool a TypeError."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(c if type(c) is int else Fraction(c)
                       for c in self.coeffs)
        if any(type(c) is not int and c.denominator != 1 for c in coeffs):
            raise ValueError(
                f"root coordinates ({', '.join(map(str, self.coeffs))}) "
                f"must be integers")
        if any(isinstance(c, (str, bool)) for c in self.coeffs):
            raise TypeError(f"root coordinates {self.coeffs!r} must be "
                            "numbers, not str or bool")
        object.__setattr__(self, "coeffs", tuple(map(int, coeffs)))

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __add__(self, other):
        if not isinstance(other, RootVector):
            return NotImplemented
        return RootVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs,
                                                      strict=True)))

    def __sub__(self, other):
        if not isinstance(other, RootVector):
            return NotImplemented
        return RootVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs,
                                                      strict=True)))

    def __neg__(self):
        return RootVector(tuple(-a for a in self.coeffs))

    @property
    def height(self):
        return sum(self.coeffs)

    @property
    def is_positive(self):
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)


def parse_weight(text, rank=None):
    """Parse 'a,b,...' with entries 'p/q' into a Weight."""
    parts = [p.strip() for p in str(text).split(",")]
    coords = []
    for p in parts:
        try:
            coords.append(_num(Fraction(p)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad weight coordinate {p!r}") from exc
    if rank is not None and len(coords) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(coords)}")
    return Weight(tuple(coords))


def format_weight(w):
    return ",".join(str(c) for c in w.coords)


_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def weyl_order(series, rank):
    """Order of the Weyl group, from the classical formulas."""
    if series == "A":
        return math.factorial(rank + 1)
    if series in ("B", "C"):
        return (1 << rank) * math.factorial(rank)
    if series == "D":
        return (1 << (rank - 1)) * math.factorial(rank)
    if series == "G":
        return 12
    if series == "F":
        return 1152
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    raise ValueError(f"unknown series {series!r}")


def _cartan_matrix(series, rank):
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def chain(upto):
        for i in range(upto):
            a[i][i + 1] = -1
            a[i + 1][i] = -1

    if series == "A":
        chain(rank - 1)
    elif series == "B":
        chain(rank - 2)
        a[rank - 2][rank - 1] = -1   # last root short
        a[rank - 1][rank - 2] = -2
    elif series == "C":
        chain(rank - 2)
        a[rank - 2][rank - 1] = -2   # last root long
        a[rank - 1][rank - 2] = -1
    elif series == "D":
        chain(rank - 2)
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    elif series == "E":
        chain(rank - 2)
        a[rank - 4][rank - 1] = -1
        a[rank - 1][rank - 4] = -1
    elif series == "F":
        chain(3)
        a[1][2] = -1
        a[2][1] = -2
    elif series == "G":
        a[0][1] = -3
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def _symmetrizers(cartan):
    """Integers d_i with d_i A[i][j] = d_j A[j][i], minimum 1.

    Then (alpha_i, alpha_j) = d_i A[i][j] and (alpha_i, alpha_i) = 2 d_i.
    """
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    # propagate along the (connected) Dynkin graph
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            if d[i] is None:
                continue
            for j in range(rank):
                if cartan[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    changed = True
    if any(x is None for x in d):
        raise ValueError("disconnected Cartan matrix")
    lo = min(d)
    d = [x / lo for x in d]
    if any(x.denominator != 1 for x in d):
        raise InvariantViolation(f"non-integral symmetrizers {d}")
    return tuple(int(x) for x in d)


class RootSystem:
    """Immutable structural data of one simple type.

    Use :func:`build_root_system`; instances are interned so identity
    comparison and id-keyed caches are safe.  ``characters`` fills three
    memo slots: the partition-function table, replaced whole, and two dicts
    keyed by dominant weight, the intern dict and the Weyl dimensions, each
    write-once per key and as long-lived as the system.
    """

    def __init__(self, series, rank):
        if series not in _VALID_RANKS:
            raise ValueError(f"unknown series {series!r}")
        if not _VALID_RANKS[series](rank):
            raise ValueError(f"rank {rank} invalid for series {series}")
        self.series = series
        self.rank = rank
        self.label = f"{series}{rank}"
        self.cartan = _cartan_matrix(series, rank)
        self.sym = _symmetrizers(self.cartan)
        self._build_roots()
        self._build_form()
        self.rho = Weight((1,) * rank)
        self._check_invariants()
        # the partition-function table (values, strides, box) on the box
        # {0}; characters._pf replaces it whole by a table on a larger box
        self._pf_table = ([1], (1,) * rank, (0,) * rank)
        # dominant weight -> its one key tuple, and -> its Weyl dimension
        self._dominant_keys = {}
        self._weyl_dims = {}

    # -- construction -----------------------------------------------------

    def _build_roots(self):
        rank = self.rank
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            fresh = []
            for c in frontier:
                pair = [sum(self.cartan[i][j] * c[j] for j in range(rank))
                        for i in range(rank)]
                for i in range(rank):
                    img = list(c)
                    img[i] -= pair[i]
                    img = tuple(img)
                    if img not in seen and all(x >= 0 for x in img) and any(img):
                        seen.add(img)
                        fresh.append(img)
            frontier = fresh
        # by height, then coefficients: the simple roots are indices
        # 0..rank-1, alpha_i at index rank - 1 - i
        roots = sorted(seen, key=lambda c: (sum(c), c))
        self.positive_roots = tuple(RootVector(c) for c in roots)
        self.nroots = len(roots)
        self.root_index = {rv.coeffs: k for k, rv in enumerate(self.positive_roots)}
        # fundamental coordinates of each positive root (column combination)
        self.root_weight_coords = tuple(
            tuple(sum(self.cartan[i][j] * rv.coeffs[j] for j in range(rank))
                  for i in range(rank))
            for rv in self.positive_roots)
        # fundamental coordinates of alpha_i: column i of the Cartan matrix
        self.simple_root_coords = tuple(
            tuple(self.cartan[j][i] for j in range(rank))
            for i in range(rank))

    def _build_form(self):
        rank = self.rank
        # C^{-1} = inv_num / inv_den carries weights to root coordinates.
        # (alpha_i, alpha_j) = d_i A[i][j]; the fundamental-weight Gram matrix
        # F satisfies F * A = diag(d) with (w_i, alpha_j) = delta_ij d_j, so
        # F = diag(d) A^{-1} = form_num / form_den
        c_inv = mat_inv([list(row) for row in self.cartan])
        self.inv_den = math.lcm(*(x.denominator for row in c_inv for x in row))
        self.inv_num = tuple(tuple(int(x * self.inv_den) for x in row)
                             for row in c_inv)
        form = [[d * x for x in row] for d, row in zip(self.sym, c_inv)]
        self.form_den = math.lcm(*(x.denominator for row in form for x in row))
        self.form_num = tuple(tuple(int(x * self.form_den) for x in row)
                              for row in form)
        # squared length 2*d_alpha and integer coroot coordinates per root
        norms = []
        coroots = []
        for rv in self.positive_roots:
            c = rv.coeffs
            n = sum(self.sym[i] * self.cartan[i][j] * c[i] * c[j]
                    for i in range(rank) for j in range(rank))
            d_alpha = Fraction(n, 2)
            cv = tuple(_num(Fraction(c[i] * self.sym[i]) / d_alpha) for i in range(rank))
            if not all(isinstance(x, int) for x in cv):
                raise InvariantViolation(f"non-integral coroot {cv}")
            norms.append(_num(n))
            coroots.append(cv)
        self.root_norms = tuple(norms)
        self.coroots = tuple(coroots)
        # <rho, alpha^vee> per positive root (rho = (1, ..., 1)) and their
        # product, the denominator of the Weyl dimension formula
        self.rho_pairings = tuple(sum(cv) for cv in coroots)
        self.weyl_den = math.prod(self.rho_pairings)

    def _check_invariants(self):
        a = self.cartan
        for i in range(self.rank):
            if a[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(self.rank):
                if i != j and a[i][j] > 0:
                    raise ValueError("Cartan off-diagonal must be <= 0")
        # finite type: leading principal minors positive
        for k in range(1, self.rank + 1):
            if det([list(r[:k]) for r in a[:k]]) <= 0:
                raise ValueError("Cartan matrix not of finite type")
        if min(self.root_norms) != 2:
            raise ValueError("short-root normalisation broken")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.form_num[i][j] != self.form_num[j][i]:
                    raise ValueError("invariant form not symmetric")
        for k in range(1, self.rank + 1):
            if det([list(r[:k]) for r in self.form_num[:k]]) <= 0:
                raise ValueError("invariant form not positive definite")
        # closure under simple reflections
        for rv in self.positive_roots:
            for i in range(self.rank):
                img = self.reflect_root(i, rv)
                key = img.coeffs if img.is_positive else (-img).coeffs
                if key not in self.root_index:
                    raise ValueError("positive roots not reflection-closed")

    # -- bookkeeping -------------------------------------------------------

    def __repr__(self):
        return f"RootSystem({self.label})"

    def __reduce__(self):
        return (build_root_system, (self.label,))

    @property
    def weyl_group_order(self):
        return weyl_order(self.series, self.rank)

    def require_rank(self, *weights):
        """Raise ValueError unless every weight has rank coordinates."""
        for w in weights:
            if len(w) != self.rank:
                raise ValueError(
                    f"{','.join(map(str, w))} has {len(w)} coordinates; "
                    f"{self.label} needs {self.rank}")

    def require_weight(self, *weights):
        """Raise TypeError unless every argument is a Weight, and ValueError
        unless each has rank coordinates."""
        for w in weights:
            if not isinstance(w, Weight):
                raise TypeError(f"weight {w!r} must be a Weight, "
                                f"not a {type(w).__name__}")
        self.require_rank(*weights)

    def require_dominant_integral(self, *weights):
        """Raise TypeError unless every argument is a Weight, and ValueError
        unless each is some V(lam)'s highest."""
        self.require_weight(*weights)
        for lam in weights:
            if not all(isinstance(c, int) and c >= 0 for c in lam.coords):
                raise ValueError(f"weight {lam} must be dominant integral")

    def require_root_index(self, k):
        """Raise ValueError unless k indexes a positive root."""
        if not (type(k) is int and 0 <= k < self.nroots):
            raise ValueError(f"root index {k!r} not in 0..{self.nroots - 1}")

    def require_simple_index(self, i):
        """Raise ValueError unless i indexes a simple root."""
        if not (type(i) is int and 0 <= i < self.rank):
            raise ValueError(f"simple root index {i!r} not in "
                             f"0..{self.rank - 1}")

    def require_same_system(self, *objs):
        """Raise ValueError unless each object's ``rs`` is this system, and
        TypeError for an object that carries no root system."""
        for x in objs:
            if not hasattr(x, "rs"):
                raise TypeError(f"{type(x).__name__} carries no root system")
            if x.rs is not self:
                raise ValueError(f"{type(x).__name__} of {x.rs} and {self} "
                                 f"are from different root systems")

    def zero_weight(self):
        return Weight((0,) * self.rank)

    def fundamental(self, i):
        self.require_simple_index(i)
        return Weight(tuple(int(i == j) for j in range(self.rank)))

    def simple_root(self, i):
        self.require_simple_index(i)
        return RootVector(tuple(int(i == j) for j in range(self.rank)))

    # -- coordinate algebra --------------------------------------------------

    def root_to_weight(self, rv):
        c = rv.coeffs if isinstance(rv, RootVector) else tuple(rv)
        self.require_rank(c)
        return Weight(tuple(sum(self.cartan[i][j] * c[j] for j in range(self.rank))
                            for i in range(self.rank)))

    def weight_to_root_coords(self, w):
        """Coordinates of a weight in the simple-root basis (exact rationals)."""
        self.require_rank(w)
        return tuple(_num(Fraction(sum(map(mul, row, w)), self.inv_den))
                     for row in self.inv_num)

    def root_lattice_coords(self, w):
        """Integer root coordinates, or None if w is not in the root lattice."""
        self.require_rank(w)
        den = self.inv_den
        out = []
        for row in self.inv_num:
            v = sum(map(mul, row, w))
            if v % den:
                return None
            out.append(v // den)
        return tuple(out)

    def root_coords(self, x):
        """Integer root coordinates of a root-lattice argument: a RootVector,
        a Weight (None off the root lattice) or a sequence of integers.  A
        wrong length or a non-integer entry raises ValueError."""
        self.require_rank(x)
        if isinstance(x, Weight):
            return self.root_lattice_coords(x)
        if isinstance(x, RootVector):
            return x.coeffs
        return RootVector(x).coeffs

    def root_difference(self, a, b):
        """(k, sign) with r_a - r_b = sign * r_k for positive-root indices a
        and b, or None when the difference is not a root."""
        self.require_root_index(a)
        self.require_root_index(b)
        diff = tuple(map(sub, self.positive_roots[a].coeffs,
                         self.positive_roots[b].coeffs))
        k = self.root_index.get(diff)
        if k is not None:
            return k, 1
        k = self.root_index.get(tuple(-x for x in diff))
        return None if k is None else (k, -1)

    def inner(self, wa, wb):
        """Invariant form on weights, short roots normalised to length^2 = 2."""
        self.require_weight(wa, wb)
        num = 0
        fa, fb = wa.coords, wb.coords
        for i in range(self.rank):
            if fa[i] == 0:
                continue
            row = self.form_num[i]
            num += fa[i] * sum(row[j] * fb[j] for j in range(self.rank))
        return _num(Fraction(num, self.form_den))

    def pairing(self, w, root):
        """w(h_alpha) for a root given as RootVector or root index."""
        self.require_rank(w)
        if isinstance(root, int):
            self.require_root_index(root)
            cv = self.coroots[root]
        else:
            k = self.root_index.get(root.coeffs)
            if k is None:
                raise ValueError(f"root {root.coeffs} is not a positive "
                                 f"root of {self.label}")
            cv = self.coroots[k]
        return _num(sum(cv[i] * w[i] for i in range(self.rank)))

    # -- reflections and orbits ----------------------------------------------

    def reflect(self, i, w):
        """Simple reflection s_i(w) = w - w(h_i) alpha_i on weights."""
        self.require_simple_index(i)
        self.require_rank(w)
        c = w[i]
        if c == 0:
            return w
        return Weight(tuple(w[j] - c * self.cartan[j][i] for j in range(self.rank)))

    def reflect_root(self, i, rv):
        pair = sum(self.cartan[i][j] * rv.coeffs[j] for j in range(self.rank))
        coeffs = list(rv.coeffs)
        coeffs[i] -= pair
        return RootVector(tuple(coeffs))

    def orbit_coords(self, coords):
        """Full W-orbit of raw fundamental coordinates, as a set, by closure
        under simple reflections."""
        start = tuple(coords)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for c, col in zip(v, self.simple_root_coords):
                    if c:
                        img = tuple(x - c * a for x, a in zip(v, col))
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
            frontier = nxt
        return seen

    def orbit(self, w):
        """Full W-orbit of a weight, sorted by coordinates."""
        self.require_weight(w)
        return [Weight(c) for c in sorted(self.orbit_coords(w.coords))]

    def dominant_ascent(self, coords):
        """(dominant orbit representative, reflections applied) for raw
        fundamental coordinates.

        Reflects at the least index with a negative coordinate until none is
        left.  The reflection indices come in the order applied, so the
        element carrying coords to the representative is s_{word[-1]} ...
        s_{word[0]}, and (-1)**len(word) is its sign.
        """
        x = list(coords)
        rank = self.rank
        cartan = self.cartan
        word = []
        while True:
            for i in range(rank):
                c = x[i]
                if c < 0:
                    for j in range(rank):
                        x[j] -= c * cartan[j][i]
                    word.append(i)
                    break
            else:
                return tuple(x), word

    def dominant_in_orbit(self, w):
        """The unique dominant orbit representative (no group element tracked)."""
        self.require_weight(w)
        return Weight(self.dominant_ascent(w.coords)[0])


@lru_cache(maxsize=None)
def _interned(series, rank):
    return RootSystem(series, rank)


def build_root_system(spec):
    """Build (or fetch the interned copy of) a root system from 'A2'-style spec."""
    spec = str(spec).strip()
    if len(spec) < 2 or not spec[0].isalpha():
        raise ValueError(f"bad root system spec {spec!r}")
    series = spec[0].upper()
    try:
        rank = int(spec[1:])
    except ValueError as exc:
        raise ValueError(f"bad rank in spec {spec!r}") from exc
    return _interned(series, rank)


def dominance_hull_equiv(rs, lam, mu):
    """(lam - mu in Z>=0 Pi, conv(W mu) subset of conv(W lam)) for dominant
    integral inputs.

    The two tests agree whenever lam - mu lies in the root lattice; the hull
    test alone is insensitive to the lattice coset.
    """
    rs.require_dominant_integral(lam, mu)
    diff = rs.weight_to_root_coords(lam - mu)
    dom = all(isinstance(x, int) and x >= 0 for x in diff)
    hull = all(x >= 0 for x in diff)
    return dom, hull
