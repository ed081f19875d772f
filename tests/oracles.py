"""Reference implementations that tests compare the library against: each
is the plain, slower or older form of a computation that the library does
another way."""

from itertools import product as iproduct
from math import floor

from lierep.characters import dominant_weight_table, weyl_dimension
from lierep.rootsystem import RootVector


def partition_function_bruteforce(rs, beta):
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


def dominant_drops_by_recursion(rs, lam_coords):
    """dominant_drops with every level, the last included, searched one drop
    at a time: the pruned recursion the interval form of its last level
    replaced."""
    rank = rs.rank
    span = [floor(x) for x in rs.weight_to_root_coords(lam_coords)]
    cols = rs.simple_root_coords
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
                break
            if all(x + r >= 0 for x, r in zip(nu2, later)):
                rec(j + 1, nu2, drop + (d,))

    rec(0, tuple(lam_coords), ())
    return tuple(out)


def character_by_closure(rs, lam):
    """The weight -> multiplicity dict of V(lam): its dominant table spread
    over each W-orbit found by closure under simple reflections, audited
    against the Weyl dimension."""
    entries = {}
    for dom, m in dominant_weight_table(rs, lam).items():
        for x in rs.orbit_coords(dom):
            entries[x] = m
    total, dim = sum(entries.values()), weyl_dimension(rs, lam)
    if total != dim:
        raise AssertionError(f"V({lam}): mass {total} != dimension {dim}")
    return entries
