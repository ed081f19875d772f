"""Weight multiplicities and formal characters.

Two independent routes compute dim V(lambda)_mu: the alternating-sum formula
over the Weyl group driven by the vector partition function, and the
Freudenthal recursion over root strings (which needs no group enumeration).
Full characters use the Freudenthal table plus orbit expansion and are
validated against the product dimension formula.
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
    return _pf(rs, coords, 0)


def partition_weight_coords(rs, coords):
    """Partition function on integer fundamental coordinates (fast path)."""
    den = rs.inv_den
    root = []
    for row in rs.inv_num:
        v = sum(row[j] * coords[j] for j in range(rs.rank))
        if v % den or v < 0:
            return 0
        root.append(v // den)
    return _pf(rs, tuple(root), 0)


def _pf(rs, coords, k):
    """Ways to express coords using roots k..end of the fixed height-lex order."""
    if not any(coords):
        return 1
    if k >= rs.nroots:
        return 0
    memo = rs._pf_memo
    key = (coords, k)
    hit = memo.get(key)
    if hit is not None:
        return hit
    root = rs.positive_roots[k].coeffs
    total = 0
    cur = coords
    while True:
        total += _pf(rs, cur, k + 1)
        nxt = tuple(a - b for a, b in zip(cur, root))
        if any(x < 0 for x in nxt):
            break
        cur = nxt
    memo[key] = total
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
    cols = [tuple(rs.cartan[i][j] for i in range(rank)) for j in range(rank)]
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
        for x in rs.orbit(Weight(nu)):
            drops.add(rs.root_lattice_coords(
                tuple(a - b for a, b in zip(lam_coords, x.coords))))
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
    lam = Weight(lam_coords)
    shifted = [(w.sign, w.apply(lam + rs.rho).coords) for w in enumerate_weyl(rs)]
    table = {}
    for _, mu in dominant_drops(rs, lam_coords):
        total = 0
        for sgn, top in shifted:
            arg = tuple(t - m - 1 for t, m in zip(top, mu))
            total += sgn * partition_weight_coords(rs, arg)
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
    if not mu.is_integral or rs.root_lattice_coords(lam - mu) is None:
        return 0
    rho = rs.rho
    target = mu + rho
    total = 0
    for w in enumerate_weyl(rs, caps):
        arg = w.apply(lam + rho) - target
        total += w.sign * partition_function(rs, arg)
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


@lru_cache(maxsize=None)
def _character_cached(rs_id, lam_coords):
    rs = build_root_system(rs_id)
    lam = Weight(lam_coords)
    dim = weyl_dimension(rs, lam)
    # a route choice, not a cap: the alternating sum needs the whole group
    if rs.weyl_group_order <= DEFAULT_CAPS.max_weyl:
        table = _dominant_table_fast(rs.label, lam.coords)
    else:
        table = dominant_weight_table(rs, lam)
    entries = {}
    for dom_coords, m in table.items():
        for w in rs.orbit(Weight(dom_coords)):
            entries[w.coords] = m
    total = sum(entries.values())
    if total != dim:
        raise InvariantViolation(
            f"character of {lam}: mass {total} != Weyl dimension {dim}")
    return Character(entries, "formal", lam_coords)


def character_of(rs, lam, caps=Caps()):
    """Full formal character of V(lambda); sparse, validated against the
    dimension formula."""
    _require_dominant_integral(lam)
    caps.check("max_char", weyl_dimension(rs, lam), f"dim V({lam})")
    return _character_cached(rs.label, lam.coords)
