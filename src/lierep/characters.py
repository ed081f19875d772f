"""Weight multiplicities and formal characters.

Two independent routes compute dim V(lambda)_mu: the alternating-sum formula
over the Weyl group driven by the vector partition function, and the
Freudenthal recursion over root strings (which needs no group enumeration).
Full characters expand a dominant table (alternating sum while the group is
enumerable, else Freudenthal) over W-orbits and are validated against the
product dimension formula; the tensor layer works on the dominant tables.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct

from .config import DEFAULT_CAPS, Caps
from .errors import InvariantViolation
from .rootsystem import Weight, RootVector, build_root_system
from .weyl import enumerate_weyl

__all__ = [
    "partition_function", "weight_multiplicity", "kostant_multiplicity",
    "freudenthal_multiplicity", "character_of", "weyl_dimension", "Character",
    "dominant_weight_table", "dominant_drops", "weight_drops",
    "character_table",
]


def partition_function(rs, beta):
    """Number of multisets of positive roots summing to beta.

    beta may be a RootVector, an integer coefficient tuple, or a Weight (in
    which case membership in the root lattice is checked first).  Returns 0
    off the nonnegative cone.
    """
    if isinstance(beta, Weight):
        coords = rs.root_lattice_coords(beta)
        if coords is None:
            return 0
    elif isinstance(beta, RootVector):
        coords = beta.coeffs
    else:
        coords = tuple(int(x) for x in beta)
    if any(c < 0 for c in coords):
        return 0
    return _pf(rs, coords, rs.rank)


def _pf(rs, coords, k):
    """Ways to write coords, a nonnegative root-coordinate vector, as a sum of
    positive roots whose non-simple members are among roots k..end of the
    height-lex order (k >= rank: the simple roots come first).

    Whatever the non-simple roots leave is nonnegative and has exactly one
    expression in simple roots, so only the non-simple roots recurse.
    """
    nroots = rs.nroots
    if k >= nroots:
        return 1
    root = rs.positive_roots[k].coeffs
    most = min(c // r for c, r in zip(coords, root) if r)
    if k + 1 == nroots:
        return most + 1
    memo = rs._pf_memo
    key = (coords, k)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = 0
    for j in range(most + 1):
        total += _pf(rs, tuple(a - j * b for a, b in zip(coords, root)),
                     k + 1)
    memo[key] = total
    return total


def rho_shifts(rs, els, x_coords):
    """(sign of w, root coordinates of w(x + rho) - (x + rho)) for each w in
    els, x given by fundamental coordinates.

    An alternating-sum term p(w(x + rho) - (y + rho)) has the argument
    drop + shift, where drop = x - y in root coordinates.
    """
    y = [c + 1 for c in x_coords]
    rank, den = rs.rank, rs.inv_den
    out = []
    for w in els:
        m = w.matrix
        diff = [sum(m[i][j] * y[j] for j in range(rank)) - y[i]
                for i in range(rank)]
        out.append((w.sign, tuple(sum(r * d for r, d in zip(row, diff)) // den
                                  for row in rs.inv_num)))
    return out


def signed_partition_sum(rs, shifts, drop):
    """Sum of sign * p(drop + shift) over shifts from rho_shifts; arguments
    with a negative coordinate, where p vanishes, are skipped."""
    total = 0
    start = rs.rank
    for sgn, shift in shifts:
        arg = tuple(d + s for d, s in zip(drop, shift))
        if min(arg) >= 0:
            total += sgn * _pf(rs, arg, start)
    return total


def partition_function_bruteforce(rs, beta, bound=None):
    """Independent enumeration oracle for the partition function (small beta)."""
    coords = beta.coeffs if isinstance(beta, RootVector) else tuple(beta)
    if any(c < 0 for c in coords):
        return 0
    roots = [rv.coeffs for rv in rs.positive_roots]
    ranges = []
    for r in roots:
        m = min((coords[i] // r[i] for i in range(len(coords)) if r[i]), default=0)
        ranges.append(range(m + 1))
    count = 0
    for combo in iproduct(*ranges):
        tot = [0] * len(coords)
        for c, r in zip(combo, roots):
            for i, x in enumerate(r):
                tot[i] += c * x
        if tuple(tot) == coords:
            count += 1
    return count


def weyl_dimension(rs, lam):
    """Product formula for dim V(lambda)."""
    _require_dominant_integral(lam)
    shifted = [c + 1 for c in lam.coords]
    num = den = 1
    for cv in rs.coroots:
        num *= sum(a * b for a, b in zip(cv, shifted))
        den *= sum(cv)
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(f"Weyl dimension of {lam} is {num}/{den}")
    return dim


def _require_dominant_integral(lam):
    if not (lam.is_integral and lam.is_dominant):
        raise ValueError(f"weight {lam} must be dominant integral")


def dominant_drops(rs, lam_coords):
    """(drop, nu) for every dominant nu = lam - sum_j drop_j alpha_j with
    integral drop >= 0, in lexicographic drop order: the dominant weights of
    V(lam), lam dominant integral.

    A dominant nu has nonnegative root coordinates, so drop_j is at most the
    j-th root coordinate of lam.  A prefix of the drop is abandoned once some
    coordinate stays negative after the largest rise the later simple roots
    can still give it.
    """
    rank = rs.rank
    span = [sum(r * c for r, c in zip(row, lam_coords)) // rs.inv_den
            for row in rs.inv_num]
    cols = rs.simple_root_coords
    # rise[j][i]: the most coordinate i can gain from drops at levels >= j
    rise = [[0] * rank for _ in range(rank + 1)]
    for j in range(rank - 1, -1, -1):
        for i in range(rank):
            rise[j][i] = rise[j + 1][i] + max(0, -cols[j][i] * span[j])
    out = []

    def rec(j, nu, drop):
        if j == rank:
            out.append((drop, nu))
            return
        col, later = cols[j], rise[j + 1]
        for d in range(span[j] + 1):
            nu2 = tuple(x - d * c for x, c in zip(nu, col))
            if nu2[j] + later[j] < 0:
                break  # coordinate j only falls as d grows
            if all(x + r >= 0 for x, r in zip(nu2, later)):
                rec(j + 1, nu2, drop + (d,))

    rec(0, tuple(lam_coords), ())
    return tuple(out)


def weight_drops(rs, lam_coords):
    """Every drop z with lam - sum_j z_j alpha_j a weight of V(lam), lam
    dominant integral: the W-orbits of its dominant weights, so that a weight
    test is one set lookup."""
    drops = set()
    for _, nu in dominant_drops(rs, lam_coords):
        for x in rs.orbit_coords(nu):
            drops.add(rs.root_lattice_coords(
                tuple(a - b for a, b in zip(lam_coords, x))))
    return frozenset(drops)


@lru_cache(maxsize=None)
def _dominant_table(rs_id, lam_coords):
    """dict dominant-weight-coords -> multiplicity in V(lam), via Freudenthal."""
    rs = build_root_system(rs_id)
    rank = rs.rank
    form = rs.form_num

    def norm(x):
        """(x + rho, x + rho), scaled by form_den like every inner product
        below, so the scale cancels in the recursion."""
        y = [c + 1 for c in x]
        return sum(y[i] * form[i][j] * y[j]
                   for i in range(rank) for j in range(rank))

    # each positive root with the form row giving (x, alpha) = x . f_alpha
    roots = [(a, tuple(sum(form[i][j] * a[j] for j in range(rank))
                       for i in range(rank)))
             for a in rs.root_weight_coords]
    norm_top = norm(lam_coords)
    table = {}
    for depth, mu in sorted((sum(d), nu)
                            for d, nu in dominant_drops(rs, lam_coords)):
        if depth == 0:
            table[mu] = 1
            continue
        acc = 0
        for alpha, f_alpha in roots:
            nu = mu
            while True:
                nu = tuple(x + a for x, a in zip(nu, alpha))
                m = table.get(rs.dominant_ascent(nu)[0], 0)
                if m == 0:
                    break
                acc += m * sum(x * f for x, f in zip(nu, f_alpha))
        val, rem = divmod(2 * acc, norm_top - norm(mu))
        if rem or val < 0:
            raise InvariantViolation(
                f"Freudenthal value at {mu} in V({lam_coords}) is "
                f"{2 * acc}/{norm_top - norm(mu)}")
        table[mu] = val
    return table


def dominant_weight_table(rs, lam):
    """Multiplicities of V(lambda) on dominant weights (Freudenthal)."""
    _require_dominant_integral(lam)
    return _dominant_table(rs.label, lam.coords)


@lru_cache(maxsize=None)
def _dominant_table_fast(rs_id, lam_coords):
    """Same table as the Freudenthal route, via the alternating sum over the
    Weyl group; much faster for thin high weights.  Only used when the group
    is enumerable; cross-checked against Freudenthal in the test suite and by
    the total-dimension audit on every character."""
    rs = build_root_system(rs_id)
    shifts = rho_shifts(rs, enumerate_weyl(rs), lam_coords)
    table = {}
    for drop, mu in dominant_drops(rs, lam_coords):
        total = signed_partition_sum(rs, shifts, drop)
        if total:
            table[mu] = total
    return table


def freudenthal_multiplicity(rs, lam, mu):
    """dim V(lambda)_mu by the Freudenthal recursion; no Weyl enumeration."""
    _require_dominant_integral(lam)
    if not mu.is_integral:
        return 0
    if rs.root_lattice_coords(lam - mu) is None:
        return 0
    dom = rs.dominant_in_orbit(mu)
    return dominant_weight_table(rs, lam).get(dom.coords, 0)


def kostant_multiplicity(rs, lam, mu, caps=Caps()):
    """dim V(lambda)_mu as the signed partition-function sum over W."""
    _require_dominant_integral(lam)
    if not mu.is_integral:
        return 0
    drop = rs.root_lattice_coords(lam - mu)
    if drop is None:
        return 0
    shifts = rho_shifts(rs, enumerate_weyl(rs, caps), lam.coords)
    total = signed_partition_sum(rs, shifts, drop)
    if total < 0:
        raise InvariantViolation(
            f"alternating sum for V({lam})_{mu} is negative: {total}")
    return total


def weight_multiplicity(rs, lam, mu, caps=Caps()):
    """dim V(lambda)_mu.  Uses the alternating-sum formula while the Weyl
    group is enumerable under caps.max_weyl, falling back to Freudenthal
    past it."""
    if rs.weyl_group_order <= caps.max_weyl:
        return kostant_multiplicity(rs, lam, mu, caps)
    return freudenthal_multiplicity(rs, lam, mu)


@dataclass
class Character:
    """Finite weight -> multiplicity map.

    kind is "formal" for the full character of one module (W-invariant) or
    "decomposition" for highest weights with multiplicities (dominant support).
    """

    entries: dict
    kind: str = "formal"
    highest: tuple = field(default=None)

    def mult(self, w):
        key = w.coords if isinstance(w, Weight) else tuple(w)
        return self.entries.get(key, 0)

    def support(self):
        return [Weight(c) for c in sorted(self.entries)]

    def total(self):
        return sum(self.entries.values())

    def to_json(self):
        from .rootsystem import format_weight
        return {format_weight(Weight(k)): v for k, v in sorted(self.entries.items())}


def _table(rs, lam_coords):
    # a route choice, not a cap: the alternating sum needs the whole group
    if rs.weyl_group_order <= DEFAULT_CAPS.max_weyl:
        return _dominant_table_fast(rs.label, lam_coords)
    return _dominant_table(rs.label, lam_coords)


def table_mult(rs, table, coords):
    """Multiplicity at integral fundamental coordinates in the module whose
    dominant table this is: multiplicities are W-invariant, and a weight off
    the module's root-lattice coset has its dominant representative off the
    table too."""
    return table.get(rs.dominant_ascent(coords)[0], 0)


@lru_cache(maxsize=None)
def _character_cached(rs_id, lam_coords):
    rs = build_root_system(rs_id)
    dim = weyl_dimension(rs, Weight(lam_coords))
    entries = {}
    for dom_coords, m in _table(rs, lam_coords).items():
        for x in rs.orbit_coords(dom_coords):
            entries[x] = m
    total = sum(entries.values())
    if total != dim:
        raise InvariantViolation(
            f"character of {Weight(lam_coords)}: mass {total} "
            f"!= Weyl dimension {dim}")
    return Character(entries, "formal", lam_coords)


def _check_char_cap(rs, lam, caps):
    _require_dominant_integral(lam)
    caps.check("max_char", weyl_dimension(rs, lam), f"dim V({lam})")


def character_of(rs, lam, caps=Caps()):
    """Full formal character of V(lambda); sparse, validated against the
    dimension formula."""
    _check_char_cap(rs, lam, caps)
    return _character_cached(rs.label, lam.coords)


def character_table(rs, lam, caps=Caps()):
    """The dominant part of character_of(rs, lam, caps), under the same cap:
    the multiplicities of V(lambda) on its dominant weights."""
    _check_char_cap(rs, lam, caps)
    return _table(rs, lam.coords)
