"""Weight multiplicities and formal characters.

Two independent routes compute dim V(lambda)_mu: the alternating-sum formula
over the Weyl group driven by the vector partition function, and the
Freudenthal recursion over root strings (which needs no group enumeration).
Full characters expand a dominant table (alternating sum while the group is
enumerable, else Freudenthal) over W-orbits and are validated against the
product dimension formula; the tensor layer works on the dominant tables,
which both routes list in dominant_drops order (it extends dominance).
freudenthal_multiplicity alone reads the Freudenthal table on every type.

The partition function is one dense table per root system over a box of
root coordinates, built by a coin-change pass per non-simple root and a
prefix sum per simple root.  No caller sizes it: partition_function and
signed_partition_sums ask for the box they read, the latter one box for all
of its drops, and a request past the table's box gets a table on its own.
kostant_partitions lists the partitions it counts: the lowering monomials
of the Shapovalov and Verma models.

Dominant tables are memoised per (root system, highest weight), each memo
entry the read-only view that callers get.  Their keys are the one tuple per
dominant weight that dominant_drops hands out, so tables that share a weight
share its key.  W-orbits are memoised per
(root system, dominant weight), where every character, the tensor layer and
the realizations share them.  No full character is kept: character_of
expands a table over those orbits on each call.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import floor
from operator import add, ge, le, mul
from types import MappingProxyType

from .config import DEFAULT_CAPS, Caps
from .errors import InvariantViolation
from .rootsystem import Weight
from .weyl import shift_maps

__all__ = [
    "partition_function", "kostant_partitions", "weight_multiplicity",
    "kostant_multiplicity", "freudenthal_multiplicity", "character_of",
    "weyl_dimension", "Character",
    "dominant_weight_table", "dominant_drops", "weight_drops",
    "character_table", "dominant_orbit",
]


def partition_function(rs, beta):
    """Number of multisets of positive roots summing to beta.

    beta is read by rs.root_coords: a RootVector, an integer coefficient
    tuple, or a Weight.  Returns 0 off the root lattice and off the
    nonnegative cone; a wrong length or a non-integer coefficient raises
    ValueError.
    """
    coords = rs.root_coords(beta)
    if coords is None or any(c < 0 for c in coords):
        return 0
    values, strides, _ = _pf_covering(rs, coords)
    return values[sum(map(mul, coords, strides))]


def kostant_partitions(rs, beta):
    """The partitions that partition_function counts: exponent tuples over
    the positive roots (height-lex order) whose roots sum to beta, a tuple
    of nonnegative root coordinates, in lex order.

    The non-simple roots' exponents are enumerated first, as _pf counts
    them; whatever they leave of beta is nonnegative and is the simple
    roots' exponents, so no branch is a dead end.
    """
    roots = [rv.coeffs for rv in rs.positive_roots]
    rank = rs.rank
    # (non-simple exponents so far, what they leave of beta), root by root
    out = [((), tuple(beta))]
    for root in roots[rank:]:
        out = [(mono + (e,), tuple(b - e * r for b, r in zip(rest, root)))
               for mono, rest in out for e in range(1 + min(
                   b // r for b, r in zip(rest, root) if r))]
    # the simple roots lead the exponent tuple: position k holds the simple
    # root whose one nonzero coordinate is axes[k]
    axes = [root.index(1) for root in roots[:rank]]
    return sorted(tuple([rest[i] for i in axes]) + mono
                  for mono, rest in out if min(rest) >= 0)


def _pf_covering(rs, need):
    """The partition-function table of rs, (values, strides, box), whose box
    covers the root-coordinate vector need: the published one, else a new
    one on the box of need itself, so a table is never larger than the
    largest single request.  A reader keeps the snapshot it was handed.
    """
    table = rs._pf_table
    if all(map(le, need, table[2])):
        return table
    return _pf(rs, need)


def _pf(rs, box):
    """Build and publish the table of P, the partition function of rs, on
    the box 0 <= x <= box of root coordinates: (values, strides, box) with
    P(x) = values[sum(x_i * strides_i)], the last axis contiguous.

    First Q(x), the number of ways to write x as a sum of non-simple roots,
    by one coin-change pass per non-simple root.  What the non-simple roots
    leave of x is nonnegative and has exactly one expression in simple
    roots, so P(x) is the sum of Q(y) over 0 <= y <= x: one prefix-sum pass
    per simple-root axis turns Q into P.
    """
    rank = rs.rank
    strides = [1] * rank
    for i in range(rank - 1, 0, -1):
        strides[i - 1] = strides[i] * (box[i] + 1)
    values = [0] * (strides[0] * (box[0] + 1))
    values[0] = 1
    for root in rs.positive_roots[rank:]:
        r = root.coeffs
        # t is the last axis where r is nonzero: the cells x >= r that share
        # x_0..x_{t-1} form one contiguous run, and the cell x - r that each
        # adds has a smaller prefix (a non-simple root has two nonzero
        # coordinates), so it already counts this root
        t = max(i for i in range(rank) if r[i])
        off = sum(map(mul, r, strides))
        lo, hi = r[t] * strides[t], (box[t] + 1) * strides[t]
        for base in _offsets(strides, [range(r[i], box[i] + 1)
                                       for i in range(t)]):
            a, b = base + lo, base + hi
            values[a:b] = map(add, values[a:b], values[a - off:b - off])
    # prefix sums: along axis i < rank - 1 in blocks of strides[i] cells,
    # along the last axis one row at a time
    for i in range(rank - 1):
        block = strides[i]
        for start in _offsets(strides, [range(box[j] + 1) for j in range(i)]):
            for a in range(start + block, start + (box[i] + 1) * block,
                           block):
                values[a:a + block] = map(add, values[a:a + block],
                                          values[a - block:a])
    row = box[-1] + 1
    for a in range(0, len(values), row):
        values[a:a + row] = accumulate(values[a:a + row])
    table = (values, tuple(strides), tuple(box))
    rs._pf_table = table
    return table


def _offsets(strides, ranges):
    """Flat offsets, in increasing order, of the coordinate prefixes whose
    i-th coordinate runs over ranges[i]."""
    out = [0]
    for stride, rng in zip(strides, ranges):
        out = [base + x * stride for base in out for x in rng]
    return out


def rho_shifts(maps, x_coords):
    """(sign of w, root coordinates of w(x + rho) - (x + rho)) for each
    (sign of w, S_w) in maps, from weyl.shift_maps; x is given by
    fundamental coordinates.

    An alternating-sum term p(w(x + rho) - (y + rho)) has the argument
    drop + shift, where drop = x - y in root coordinates.
    """
    y = [c + 1 for c in x_coords]
    return [(sgn, tuple([sum(map(mul, row, y)) for row in m]))
            for sgn, m in maps]


def signed_partition_sums(rs, shifts, drops):
    """[sum of sign * p(drop + shift) over shifts] for each drop, every
    shift <= 0 (as rho_shifts gives at a dominant x), so the table covering
    every drop covers every argument.  Each shift's flat offset and least
    admissible drop, -shift, are taken once; below it p vanishes, so a shift
    whose least drop exceeds every drop in some coordinate is left out."""
    top = [max(col) for col in zip(*drops)]
    values, strides, _ = _pf_covering(rs, [max(0, x) for x in top])
    terms = [(sgn, sum(map(mul, s, strides)), least) for sgn, s in shifts
             if all(map(le, least := tuple(-c for c in s), top))]
    out = []
    for drop in drops:
        base = sum(map(mul, drop, strides))
        total = 0
        for sgn, off, least in terms:
            if all(map(ge, drop, least)):
                total += sgn * values[base + off]
        out.append(total)
    return out


def weyl_dimension(rs, lam):
    """Product formula for dim V(lambda)."""
    rs.require_dominant_integral(lam)
    return _weyl_dim(rs, lam.coords)


def _weyl_dim(rs, coords):
    """dim V(lambda) from the fundamental coordinates of lambda, a tuple the
    caller has checked to be rank nonnegative integers: the product of
    <lambda + rho, alpha^vee> over the positive roots, over the product of
    the <rho, alpha^vee>.  Computed once per weight, into rs._weyl_dims."""
    dim = rs._weyl_dims.get(coords)
    if dim is not None:
        return dim
    num = 1
    for cv, r in zip(rs.coroots, rs.rho_pairings):
        num *= sum(map(mul, cv, coords)) + r
    dim, rem = divmod(num, rs.weyl_den)
    if rem:
        raise InvariantViolation(
            f"Weyl dimension of {coords} is {num}/{rs.weyl_den}")
    return rs._weyl_dims.setdefault(coords, dim)


def dominant_drops(rs, lam_coords):
    """(drop, nu) for every dominant nu = lam - sum_j drop_j alpha_j with
    integral drop >= 0, in lexicographic drop order: the dominant weights of
    V(lam), lam dominant integral.  Each nu is the one tuple for that weight
    in rs._dominant_keys, so every table and orbit memo keyed by it shares
    one object per weight; the first call to reach a weight stores it.

    The order extends dominance: a weight above nu has a componentwise
    smaller drop, so a lexicographically smaller one.  The Freudenthal
    recursion and the tensor layer's peeling read it unsorted.

    A dominant nu has nonnegative root coordinates, so drop_j is at most the
    j-th root coordinate of lam.  A prefix of the drop is abandoned once some
    coordinate stays negative after the largest rise the later simple roots
    can still give it.  At the last level nothing rises later, so the
    admissible drops form one interval, read from the signs of the simple
    root's column.
    """
    rank = rs.rank
    span = [floor(x) for x in rs.weight_to_root_coords(lam_coords)]
    cols = rs.simple_root_coords
    # rise[j][i]: the most coordinate i can gain from drops at levels >= j
    rise = [[0] * rank for _ in range(rank + 1)]
    for j in range(rank - 1, -1, -1):
        for i in range(rank):
            rise[j][i] = rise[j + 1][i] + max(0, -cols[j][i] * span[j])
    out = []
    last = rank - 1
    key = rs._dominant_keys.setdefault

    def rec(j, nu, drop):
        col, later = cols[j], rise[j + 1]
        if j == last:
            # x - d * c >= 0 for every coordinate x, c of nu and col; the
            # level above kept x >= 0 where c = 0, as rise[last] is 0 there
            lo, hi = 0, span[j]
            for x, c in zip(nu, col):
                if c > 0:
                    hi = min(hi, x // c)
                elif c < 0:
                    lo = max(lo, -(x // -c))
            for d in range(lo, hi + 1):
                nu2 = tuple([x - d * c for x, c in zip(nu, col)])
                out.append((drop + (d,), key(nu2, nu2)))
            return
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
        for x in dominant_orbit(rs, nu):
            drops.add(rs.root_lattice_coords(
                tuple(a - b for a, b in zip(lam_coords, x))))
    return frozenset(drops)


@lru_cache(maxsize=None)
def _dominant_table(rs, lam_coords):
    """Read-only map dominant-weight-coords -> multiplicity in V(lam), via
    Freudenthal in dominant_drops order: what mu reads lies above mu."""
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
    for drop, mu in dominant_drops(rs, lam_coords):
        if not any(drop):
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
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _dominant_table_fast(rs, lam_coords):
    """Same table as the Freudenthal route, in its order, via the alternating
    sum over the Weyl group; much faster for thin high weights.  Only used
    when the group is enumerable; cross-checked against Freudenthal in the
    test suite and by the total-dimension audit on every character."""
    drops = dominant_drops(rs, lam_coords)
    sums = signed_partition_sums(rs, rho_shifts(shift_maps(rs), lam_coords),
                                 [drop for drop, _ in drops])
    table = {}
    for (_, mu), total in zip(drops, sums):
        if total < 0:
            raise InvariantViolation(
                f"alternating sum for V({lam_coords})_{mu} is negative: {total}")
        if total:
            table[mu] = total
    return MappingProxyType(table)


def freudenthal_multiplicity(rs, lam, mu):
    """dim V(lambda)_mu by the Freudenthal recursion; no Weyl enumeration."""
    rs.require_dominant_integral(lam)
    rs.require_weight(mu)
    if not mu.is_integral:
        return 0
    return table_mult(rs, _dominant_table(rs, lam.coords), mu.coords)


def kostant_multiplicity(rs, lam, mu, caps=Caps()):
    """dim V(lambda)_mu as the signed partition-function sum over W."""
    rs.require_dominant_integral(lam)
    rs.require_weight(mu)
    if not mu.is_integral:
        return 0
    drop = rs.root_lattice_coords(lam - mu)
    if drop is None:
        return 0
    (total,) = signed_partition_sums(
        rs, rho_shifts(shift_maps(rs, caps), lam.coords), [drop])
    if total < 0:
        raise InvariantViolation(
            f"alternating sum for V({lam})_{mu} is negative: {total}")
    return total


def _enumerable(rs):
    # a route choice, not a cap: the alternating sum needs the whole group
    return rs.weyl_group_order <= DEFAULT_CAPS.max_weyl


def weight_multiplicity(rs, lam, mu, caps=Caps()):
    """dim V(lambda)_mu.  Uses the alternating-sum formula while the Weyl
    group is enumerable, falling back to Freudenthal past it; a
    caps.max_weyl below the group order refuses, it does not reroute."""
    if _enumerable(rs):
        return kostant_multiplicity(rs, lam, mu, caps)
    return freudenthal_multiplicity(rs, lam, mu)


@dataclass(frozen=True)
class Character:
    """Finite weight -> multiplicity map: the full formal character of one
    module (W-invariant), on read-only entries."""

    entries: Mapping

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
    """The read-only dominant table of V(lam): by the alternating sum while
    the group is enumerable, else by Freudenthal."""
    if _enumerable(rs):
        return _dominant_table_fast(rs, lam_coords)
    return _dominant_table(rs, lam_coords)


def dominant_weight_table(rs, lam):
    """Multiplicities of V(lambda) on its dominant weights, as a read-only
    mapping; the object character_table hands out, without its cap."""
    rs.require_dominant_integral(lam)
    return _table(rs, lam.coords)


def table_mult(rs, table, coords):
    """Multiplicity at integral fundamental coordinates in the module whose
    dominant table this is: multiplicities are W-invariant, and a weight off
    the module's root-lattice coset has its dominant representative off the
    table too."""
    return table.get(rs.dominant_ascent(coords)[0], 0)


@lru_cache(maxsize=None)
def dominant_orbit(rs, dom_coords):
    """The W-orbit of the weight with fundamental coordinates dom_coords, as
    a tuple.  Memoised per (root system, coordinates), where every caller
    shares it; callers pass the dominant representative, so that an orbit
    has one entry."""
    return tuple(rs.orbit_coords(dom_coords))


def _char_table(rs, coords, caps):
    """character_table on the checked coordinates of lambda, the tensor
    layer's kernel; a refusal names lambda as a Weight, built only then."""
    dim = _weyl_dim(rs, coords)
    if dim > caps.max_char:
        caps.check("max_char", dim, "dim V({})", Weight(coords))
    return _table(rs, coords)


def character_of(rs, lam, caps=Caps()):
    """Full formal character of V(lambda); sparse, validated against the
    dimension formula, with read-only entries.  Built on each call from the
    dominant table and the shared orbits; nothing keeps it."""
    rs.require_dominant_integral(lam)
    entries = {x: m for dom, m in _char_table(rs, lam.coords, caps).items()
               for x in dominant_orbit(rs, dom)}
    total, dim = sum(entries.values()), _weyl_dim(rs, lam.coords)
    if total != dim:
        raise InvariantViolation(
            f"character of {lam}: mass {total} != Weyl dimension {dim}")
    return Character(MappingProxyType(entries))


def character_table(rs, lam, caps=Caps()):
    """The dominant part of character_of(rs, lam, caps), under the same cap:
    the multiplicities of V(lambda) on its dominant weights, read-only."""
    rs.require_dominant_integral(lam)
    return _char_table(rs, lam.coords, caps)
