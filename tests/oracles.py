"""Reference implementations that tests compare the library against: each
is the plain, slower or older form of a computation that the library does
another way."""

from fractions import Fraction
from itertools import product as iproduct
from math import floor
from operator import add

from lierep.characters import dominant_weight_table, weyl_dimension
from lierep.enveloping import PBWAlgebra
from lierep.hpoly import HPoly
from lierep.linalg import mat_mul
from lierep.rootsystem import RootVector


def mul_by_exponents(p, q):
    """p * q for HPolys in one ring, term by term on exponent tuples with
    Fraction coefficients: no packing and no lcm scaling, so it shares no
    code with hpoly.product."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + Fraction(c1) * c2
    return HPoly(p.nvars, out)


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


def kostant_partitions_by_prefix_walk(rs, beta):
    """kostant_partitions walking every root in order, the simple roots
    first, and dropping the dead ends at the end: the enumeration that
    reading the simple roots' exponents off the rest replaced."""
    out = [((), tuple(beta))]
    for root in (rv.coeffs for rv in rs.positive_roots):
        out = [(mono + (e,), tuple(b - e * r for b, r in zip(rest, root)))
               for mono, rest in out for e in range(1 + min(
                   (b // r for b, r in zip(rest, root) if r), default=0))]
    return [mono for mono, rest in out if not any(rest)]


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


def power_rows_by_step_walk(rs, real, key, nu, sign):
    """irreps._power_rows by walking each chain one step at a time, with a
    product per step, and dropping the chain at the first step that leaves
    the module: the walk that reading the chain's end off the realization's
    weights replaced."""
    mats = real.e_mats if sign == "+" else real.f_mats
    stacked = []
    for i, a in enumerate(rs.simple_root_coords):
        mat, cur = None, key
        for _ in range(nu[i] + 1):
            step = mats.get((i, cur))
            if not step:
                break
            mat = step if mat is None else mat_mul(step, mat)
            cur = tuple(x + y if sign == "+" else x - y
                        for x, y in zip(cur, a))
        else:
            stacked.extend(mat)
    return stacked


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


def straighten_by_exponents(alg, word, memo):
    """PBW normal form of a word of Lie basis indices in the algebra `alg`,
    as an {exponent tuple: coeff} dict: the memoised recursion on exponent
    tuples that interned monomial ids replaced.  It reads only the bracket
    table and the order of `alg`; `memo` is the caller's dict of normal
    forms already found in `alg`."""
    pos = alg.pos

    def rec(word):
        hit = memo.get(word)
        if hit is not None:
            return hit
        desc = next((k for k in range(len(word) - 1)
                     if pos[word[k]] > pos[word[k + 1]]), None)
        if desc is None:
            exps = [0] * alg.dim
            for b in word:
                exps[pos[b]] += 1
            result = {tuple(exps): 1}
        else:
            x, y = word[desc], word[desc + 1]
            result = dict(rec(word[:desc] + (y, x) + word[desc + 2:]))
            for z, c in alg.table.bracket(x, y).items():
                sub = rec(word[:desc] + (z,) + word[desc + 2:])
                for e, c2 in sub.items():
                    result[e] = result.get(e, 0) + c * c2
            result = {e: c for e, c in result.items() if c != 0}
        memo[word] = result
        return result

    return rec(tuple(word))


def transpose_by_straightening(basis, u):
    """transpose(basis, u) as an {exponent tuple: coeff} dict, by its
    definition as an anti-involution: each monomial's word reversed, every
    f_k swapped with e_k, and the word straightened in u's algebra."""
    alg = u.algebra
    swap = {basis.idx_f(k): basis.idx_e(k) for k in range(basis.m)}
    swap.update({e: f for f, e in swap.items()})
    out = {}
    for exps, c in u.terms.items():
        word = [swap.get(b, b) for b in reversed(alg.monomial_word(exps))]
        for i, c2 in alg.straighten(word).items():
            key = alg._exps[i]
            out[key] = out.get(key, 0) + c * c2
    return {e: c for e, c in out.items() if c}


def hc_projection_by_exponents(basis, u, w):
    """Cartan part of u along the w-Borel decomposition: each monomial of u
    straightened by straighten_by_exponents in a new algebra whose order
    puts the root vectors of w(R-) first, the Cartan block next and those of
    w(R+) last."""
    rs, m, rank = basis.rs, basis.m, basis.rank
    winv = w.inverse()
    lower, upper = [], []
    for k in range(m):
        f_lower = winv.apply_root(rs.positive_roots[k]).is_positive
        lower.append(basis.idx_f(k) if f_lower else basis.idx_e(k))
        upper.append(basis.idx_e(k) if f_lower else basis.idx_f(k))
    alg = PBWAlgebra(basis.table,
                     lower + [basis.idx_h(i) for i in range(rank)] + upper)
    poly, memo = {}, {}
    for exps, c in u.terms.items():
        word = u.algebra.monomial_word(exps)
        for e, c2 in straighten_by_exponents(alg, word, memo).items():
            if not any(e[:m]) and not any(e[m + rank:]):
                key = e[m:m + rank]
                poly[key] = poly.get(key, 0) + c * c2
    return HPoly(rank, poly)


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and a x + b y = g, recursively."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def hermite_basis(vectors):
    """Reduced Hermite normal form of the Z-span of integer vectors, by the
    textbook elimination, column by column: extended gcds fold the rows not
    yet used into one whose entry there is their gcd, the rest are left zero
    there, and the rows above are reduced modulo the new pivot."""
    work = [list(v) for v in vectors]
    out = []
    for c in range(len(work[0]) if work else 0):
        piv, rest = None, []
        for row in work:
            if row[c] and piv is None:
                piv = row
                continue
            if row[c]:
                g, x, y = _xgcd(piv[c], row[c])
                a, b = piv[c] // g, row[c] // g
                piv, row = ([x * p + y * r for p, r in zip(piv, row)],
                            [a * r - b * p for p, r in zip(piv, row)])
            rest.append(row)
        work = rest
        if piv is None:
            continue
        if piv[c] < 0:
            piv = [-x for x in piv]
        out = [[x - (r[c] // piv[c]) * p for x, p in zip(r, piv)]
               for r in out]
        out.append(piv)
    return out
