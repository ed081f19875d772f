"""Explicit realizations of the finite-dimensional irreducibles.

The workhorse is a per-highest-weight Verma engine: each weight level of
M(mu) carries the lowering monomials as a basis, raising/lowering operators
as integer matrices built level-by-level from the bracket table, and the
contravariant Gram matrix computed recursively from one level up.  V(mu) is
the quotient by the Gram radical; its per-weight bases are the pivot
monomial columns, which keeps everything deterministic.
"""

from fractions import Fraction
from functools import lru_cache

from .config import Caps
from .errors import InvariantViolation
from .linalg import (SpanBasis, kernel_basis, nullity, pivot_columns,
                     rank_int, solve)
from .rootsystem import Weight
from .characters import dominant_weight_table, weyl_dimension
from .enveloping import chevalley_basis

__all__ = [
    "VermaEngine", "IrrepRealization", "realize", "v_extremes",
    "v_extremes_dim", "zero_weight_spectrum", "kprv_multiplicity",
    "TensorModule", "generated_submodule",
]


def _monomials(rs, beta, k=0):
    """Exponent tuples over the positive roots summing to beta, lex order."""
    if not any(beta):
        return [(0,) * (rs.nroots - k)]
    if k >= rs.nroots:
        return []
    out = []
    root = rs.positive_roots[k].coeffs
    maxexp = min((beta[i] // root[i] for i in range(len(beta)) if root[i]),
                 default=0)
    for e in range(maxexp + 1):
        rest = tuple(b - e * r for b, r in zip(beta, root))
        if any(x < 0 for x in rest):
            break
        for tail in _monomials(rs, rest, k + 1):
            out.append((e,) + tail)
    return out


class VermaEngine:
    """Levelwise exact model of the Verma module M(mu), integral mu.

    Levels are indexed by the depth beta (root coordinates of mu - weight).
    All operator matrices and Gram matrices have integer entries.
    """

    def __init__(self, rs, mu):
        if not mu.is_integral:
            raise ValueError("Verma engine expects an integral highest weight")
        self.rs = rs
        self.mu = mu
        self.basis = chevalley_basis(rs)
        self._levels = {}
        self._fmat = {}
        self._emat = {}
        self._gram = {}
        self._fins = {}

    # -- level bookkeeping ---------------------------------------------------

    def level(self, beta):
        """Sorted lowering monomials of depth beta (exponents over R+)."""
        hit = self._levels.get(beta)
        if hit is None:
            monos = sorted(_monomials(self.rs, beta))
            hit = self._levels[beta] = (monos, {m: i for i, m in enumerate(monos)})
        return hit

    def level_dim(self, beta):
        return len(self.level(beta)[0])

    def weight_at(self, beta):
        return self.mu - self.rs.root_to_weight(beta)

    def _f_insert(self, k, mono):
        """f_{r_k} * mono as a combination of monomials (one level down)."""
        key = (k, mono)
        hit = self._fins.get(key)
        if hit is not None:
            return hit
        rs = self.rs
        first = next((i for i, e in enumerate(mono) if e), None)
        if first is None or k <= first:
            out = {_bump(mono, k): 1}
        else:
            # f_k f_first X = f_first f_k X + [f_k, f_first] X
            tail = _bump(mono, first, -1)
            out = {}
            for m2, c in self._f_insert(k, tail).items():
                out[_bump(m2, first)] = out.get(_bump(m2, first), 0) + c
            s = tuple(a + b for a, b in zip(rs.positive_roots[k].coeffs,
                                            rs.positive_roots[first].coeffs))
            g = rs.root_index.get(s)
            if g is not None:
                n = self._npp(k, first)
                if n:
                    for m2, c in self._f_insert(g, tail).items():
                        out[m2] = out.get(m2, 0) - n * c
            out = {m: c for m, c in out.items() if c}
        self._fins[key] = out
        return out

    def _npp(self, a, b):
        cb = self.basis
        entry = cb.table.bracket(cb.idx_f(a), cb.idx_f(b))
        if not entry:
            return 0
        (idx, val), = entry.items()
        # [f_a, f_b] = -N(a,b) f_{a+b}
        return -val

    def f_matrix(self, k, beta):
        """Matrix of f_{r_k}: level beta -> level beta + r_k (columns map)."""
        key = (k, beta)
        hit = self._fmat.get(key)
        if hit is not None:
            return hit
        monos, _ = self.level(beta)
        tgt_beta = tuple(a + b for a, b in
                         zip(beta, self.rs.positive_roots[k].coeffs))
        _, tindex = self.level(tgt_beta)
        rows = len(tindex)
        mat = [[0] * len(monos) for _ in range(rows)]
        for j, mono in enumerate(monos):
            for m2, c in self._f_insert(k, mono).items():
                mat[tindex[m2]][j] = c
        self._fmat[key] = mat
        return mat

    def e_matrix(self, k, beta):
        """Matrix of e_{r_k}: level beta -> level beta - r_k."""
        key = (k, beta)
        hit = self._emat.get(key)
        if hit is not None:
            return hit
        rs = self.rs
        monos, _ = self.level(beta)
        tgt_beta = tuple(a - b for a, b in zip(beta, rs.positive_roots[k].coeffs))
        if any(x < 0 for x in tgt_beta):
            mat = [[0] * len(monos) for _ in range(0)]
            self._emat[key] = mat
            return mat
        _, tindex = self.level(tgt_beta)
        mat = [[0] * len(monos) for _ in range(len(tindex))]
        for j, mono in enumerate(monos):
            for m2, c in self._e_apply(k, mono):
                mat[tindex[m2]][j] += c
        self._emat[key] = mat
        return mat

    def _e_apply(self, k, mono):
        """e_{r_k} acting on (mono . highest vector): list of (mono', coeff)."""
        rs = self.rs
        first = next((i for i, e in enumerate(mono) if e), None)
        if first is None:
            return []
        tail = _bump(mono, first, -1)
        out = {}
        # f_first passes through
        for m2, c in self._e_apply(k, tail):
            for m3, c2 in self._f_insert(first, m2).items():
                out[m3] = out.get(m3, 0) + c * c2
        # bracket term [e_k, f_first]
        if k == first:
            wt = self.weight_at(_depth(rs, tail))
            scal = rs.pairing(wt, k)
            if scal:
                out[tail] = out.get(tail, 0) + scal
        else:
            diff = tuple(a - b for a, b in zip(rs.positive_roots[k].coeffs,
                                               rs.positive_roots[first].coeffs))
            d = rs.root_index.get(diff)
            if d is not None:
                val = self._mixed(k, first)
                if val:
                    for m2, c in self._e_apply(d, tail):
                        out[m2] = out.get(m2, 0) + val * c
            else:
                d = rs.root_index.get(tuple(-x for x in diff))
                if d is not None:
                    val = self._mixed(k, first)
                    if val:
                        for m3, c2 in self._f_insert(d, tail).items():
                            out[m3] = out.get(m3, 0) + val * c2
        return [(m, c) for m, c in out.items() if c]

    def _mixed(self, a, b):
        """Coefficient in [e_a, f_b] = val * (e or f of the difference root)."""
        cb = self.basis
        entry = cb.table.bracket(cb.idx_e(a), cb.idx_f(b))
        if not entry:
            return 0
        (_, val), = entry.items()
        return val

    def gram(self, beta):
        """Contravariant Gram matrix on the depth-beta monomials, evaluated
        at the engine's highest weight.  Integer entries."""
        hit = self._gram.get(beta)
        if hit is not None:
            return hit
        monos, index = self.level(beta)
        n = len(monos)
        if not any(beta):
            g = [[1]]
            self._gram[beta] = g
            return g
        g = [[0] * n for _ in range(n)]
        sgn = self.basis.iota_signs
        for i, mono in enumerate(monos):
            first = next(t for t, e in enumerate(mono) if e)
            sub_beta = tuple(a - b for a, b in
                             zip(beta, self.rs.positive_roots[first].coeffs))
            _, sub_index = self.level(sub_beta)
            gsub = self.gram(sub_beta)
            i2 = sub_index[_bump(mono, first, -1)]
            emat = self.e_matrix(first, beta)
            grow = gsub[i2]
            s = sgn[first]
            for j in range(n):
                acc = 0
                for t in range(len(grow)):
                    if emat[t][j]:
                        acc += grow[t] * emat[t][j]
                g[i][j] = s * acc
        self._gram[beta] = g
        return g

    def radical_dim(self, beta):
        g = self.gram(beta)
        return len(g) - rank_int(g) if g else 0

    def e_power_matrix(self, k, beta, power):
        """Composite e_{r_k}^power from level beta downward; None when the
        power walks off the top of the module (so the map is zero)."""
        monos, _ = self.level(beta)
        root = self.rs.positive_roots[k].coeffs
        reach = min((beta[i] // root[i] for i in range(len(root)) if root[i]),
                    default=0)
        if power > reach:
            return None
        cur = None
        b = beta
        for _ in range(power):
            m = self.e_matrix(k, b)
            cur = m if cur is None else _int_mat_mul(m, cur)
            b = tuple(x - y for x, y in zip(b, root))
        return cur if cur is not None else _int_eye(len(monos))


def _bump(mono, k, delta=1):
    lst = list(mono)
    lst[k] += delta
    return tuple(lst)


def _depth(rs, mono):
    n = rs.rank
    tot = [0] * n
    for k, e in enumerate(mono):
        if e:
            for i, c in enumerate(rs.positive_roots[k].coeffs):
                tot[i] += e * c
    return tuple(tot)


def _int_mat_mul(a, b):
    if not a or not b:
        return []
    cols = len(b[0])
    out = []
    for row in a:
        nz = [(k, v) for k, v in enumerate(row) if v]
        acc = [0] * cols
        for k, v in nz:
            brow = b[k]
            for c in range(cols):
                if brow[c]:
                    acc[c] += v * brow[c]
        out.append(acc)
    return out


def _int_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def _engine(rs_label, mu_coords):
    from .rootsystem import build_root_system
    rs = build_root_system(rs_label)
    return VermaEngine(rs, Weight(mu_coords))


def verma_engine(rs, mu):
    return _engine(rs.label, mu.coords)


def v_extremes_dim(rs, mu, gamma, nu, sign="+"):
    """dim V^{+/-}(mu; gamma, nu) computed inside the Verma model.

    The +"joint kernel of e_i^{nu(h_i)+1}" on the simple quotient equals
    dim{x in M(mu)_gamma : e_i^{k_i} x in radical for all i} minus the
    radical dimension at gamma.  The - version counts f-kernels and is
    evaluated through the symmetry with the longest element.
    """
    if not (nu.is_integral and nu.is_dominant):
        raise ValueError("nu must be dominant integral")
    if sign == "-":
        from .weyl import longest_element
        w0 = longest_element(rs)
        return v_extremes_dim(rs, mu, w0.apply(gamma), -w0.apply(nu), "+")
    diff = rs.root_lattice_coords(mu - gamma)
    if diff is None or any(c < 0 for c in diff):
        return 0
    eng = verma_engine(rs, mu)
    beta = diff
    n = eng.level_dim(beta)
    stacked = []
    for i in range(rs.rank):
        k = rs.root_index[rs.simple_root(i).coeffs]
        power = nu[i] + 1
        em = eng.e_power_matrix(k, beta, power)
        if em is None:
            continue  # e^power annihilates the whole Verma level
        tgt_beta = tuple(a - power * b for a, b in
                         zip(beta, rs.positive_roots[k].coeffs))
        gram = eng.gram(tgt_beta)
        stacked.extend(_int_mat_mul(gram, em))
    kernel = nullity(stacked, n)
    return kernel - eng.radical_dim(beta)


class IrrepRealization:
    """Weight-graded model of V(mu) with exact generator matrices.

    weights: dict coords -> list of pivot monomials.
    e_mats/f_mats: dict (simple index, coords) -> matrix between weight blocks.
    """

    def __init__(self, rs, mu, weights, e_mats, f_mats, engine, gram_pivot):
        self.rs = rs
        self.highest = mu
        self.weights = weights
        self.e_mats = e_mats
        self.f_mats = f_mats
        self.engine = engine
        self._gram_pivot = gram_pivot
        self.dimension = sum(len(v) for v in weights.values())

    def weight_dim(self, w):
        key = w.coords if isinstance(w, Weight) else tuple(w)
        return len(self.weights.get(key, ()))

    def weight_list(self):
        return [Weight(c) for c in sorted(self.weights)]

    def action_matrix(self, kind, i, wcoords):
        """Matrix of e_i/f_i from the block at wcoords (empty if either
        block is missing)."""
        mats = self.e_mats if kind == "e" else self.f_mats
        return mats.get((i, wcoords), [])

    def express(self, wcoords, combo):
        """Coordinates of a monomial combination in the pivot basis at a
        weight block; combo maps monomial -> coefficient."""
        beta = self.rs.root_lattice_coords(self.highest - Weight(wcoords))
        monos, index = self.engine.level(beta)
        pivots, gp = self._gram_pivot[wcoords]
        gram = self.engine.gram(beta)
        rhs = []
        for p in pivots:
            acc = 0
            for mono, c in combo.items():
                acc += gram[p][index[mono]] * c
            rhs.append(acc)
        return solve(gp, rhs)

    def root_vector_matrix(self, kind, root_idx, wcoords):
        """Exact matrix of e_alpha or f_alpha (any positive root) on one
        weight block of the quotient."""
        rs = self.rs
        beta = rs.root_lattice_coords(self.highest - Weight(wcoords))
        root = rs.positive_roots[root_idx].coeffs
        if kind == "e":
            tgt_beta = tuple(a - b for a, b in zip(beta, root))
            op = self.engine.e_matrix(root_idx, beta)
        else:
            tgt_beta = tuple(a + b for a, b in zip(beta, root))
            op = self.engine.f_matrix(root_idx, beta)
        tgt_w = (self.highest - rs.root_to_weight(tgt_beta)).coords
        if any(x < 0 for x in tgt_beta) or tgt_w not in self.weights:
            return [[] for _ in range(0)], tgt_w
        monos, _ = self.engine.level(beta)
        pivots, _ = self._gram_pivot[wcoords]
        cols = []
        tgt_monos, tgt_index = self.engine.level(tgt_beta)
        for p in pivots:
            img = {}
            for t in range(len(op)):
                if op[t][p]:
                    img[tgt_monos[t]] = op[t][p]
            cols.append(self.express(tgt_w, img))
        nrows = len(self.weights[tgt_w])
        return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)], tgt_w


def _realizable_dim(rs, mu, caps):
    """dim V(mu) for dominant integral mu, refused past caps.max_dim."""
    dim = weyl_dimension(rs, mu)
    caps.check("max_dim", dim, f"dim V({mu})")
    return dim


def realize(rs, mu, caps=Caps()):
    """Build V(mu) with per-weight pivot-monomial bases and exact simple
    generator matrices."""
    return _build_realization(rs, mu, _realizable_dim(rs, mu, caps))


def _build_realization(rs, mu, dim):
    engine = verma_engine(rs, mu)
    table = dominant_weight_table(rs, mu)
    weight_mults = {}
    for dom, m in table.items():
        for w in rs.orbit_coords(dom):
            weight_mults[w] = m
    weights = {}
    gram_pivot = {}
    for wcoords, mult in weight_mults.items():
        beta = rs.root_lattice_coords(mu - Weight(wcoords))
        monos, _ = engine.level(beta)
        gram = engine.gram(beta)
        piv = pivot_columns(gram)
        if len(piv) != mult:
            raise InvariantViolation(
                f"Gram rank {len(piv)} != multiplicity {mult} at {wcoords}")
        weights[wcoords] = [monos[p] for p in piv]
        gp = [[Fraction(gram[p][q]) for q in piv] for p in piv]
        gram_pivot[wcoords] = (piv, gp)
    real = IrrepRealization(rs, mu, weights, {}, {}, engine, gram_pivot)
    if real.dimension != dim:
        raise InvariantViolation("realization dimension mismatch")
    for wcoords in weights:
        for i in range(rs.rank):
            k = rs.root_index[rs.simple_root(i).coeffs]
            em, tgt = real.root_vector_matrix("e", k, wcoords)
            if em:
                real.e_mats[(i, wcoords)] = em
            fm, tgt = real.root_vector_matrix("f", k, wcoords)
            if fm:
                real.f_mats[(i, wcoords)] = fm
    return real


@lru_cache(maxsize=None)
def _realize_cached(label, mu_coords):
    from .rootsystem import build_root_system
    rs, mu = build_root_system(label), Weight(mu_coords)
    return _build_realization(rs, mu, weyl_dimension(rs, mu))


def realize_cached(rs, mu, caps=Caps()):
    _realizable_dim(rs, mu, caps)
    return _realize_cached(rs.label, mu.coords)


def v_extremes(rs, realization, gamma, nu, sign="+"):
    """(dimension, basis vectors) of V^{+/-}(mu; gamma, nu) in the realization.

    Basis vectors are coordinate lists over the pivot basis at gamma.
    """
    if not (nu.is_integral and nu.is_dominant):
        raise ValueError("nu must be dominant integral")
    key = gamma.coords
    n = realization.weight_dim(gamma)
    if n == 0:
        return 0, []
    stacked = []
    for i in range(rs.rank):
        power = nu[i] + 1
        mat = None
        cur = key
        alive = True
        for _ in range(power):
            step = realization.e_mats.get((i, cur)) if sign == "+" else \
                realization.f_mats.get((i, cur))
            if step is None or not step:
                alive = False
                break
            mat = step if mat is None else _rat_mat_mul(step, mat)
            delta = realization.rs.simple_root_weight(i)
            cur = (Weight(cur) + delta).coords if sign == "+" else \
                (Weight(cur) - delta).coords
        if alive and mat is not None:
            stacked.extend(mat)
    basis = kernel_basis(stacked, n)
    return len(basis), basis


def _rat_mat_mul(a, b):
    if not a or not b:
        return []
    cols = len(b[0])
    return [[sum(a[i][k] * b[k][c] for k in range(len(b))) for c in range(cols)]
            for i in range(len(a))]


def zero_weight_spectrum(rs, realization, root_idx):
    """Multiplicities of the j(j+1) eigenvalues of f_alpha e_alpha on the
    zero weight space; returns ({j: m_j for m_j > 0}, m_mu = sum_{j>0} m_j)."""
    zero = (0,) * rs.rank
    d0 = realization.weight_dim(Weight(zero))
    if d0 == 0:
        return {}, 0
    emat, _ = realization.root_vector_matrix("e", root_idx, zero)
    if not emat:
        # e_alpha kills the whole zero space: f e = 0
        return {0: d0}, 0
    alpha_w = rs.root_to_weight(rs.positive_roots[root_idx]).coords
    fmat, _ = realization.root_vector_matrix("f", root_idx, alpha_w)
    fe = _rat_mat_mul(fmat, emat)
    jmax = 0
    for wc in realization.weights:
        pair = rs.pairing(Weight(wc), root_idx)
        jmax = max(jmax, abs(pair))
    jmax //= 2
    spectrum = {}
    found = 0
    for j in range(jmax + 1):
        lam = j * (j + 1)
        mat = [[fe[r][c] - (lam if r == c else 0) for c in range(d0)]
               for r in range(d0)]
        m = nullity(mat, d0)
        if m:
            spectrum[j] = m
            found += m
    if found != d0:
        from .errors import InvariantViolation
        raise InvariantViolation(
            "zero-weight spectrum has a non-j(j+1) eigenvalue")
    return spectrum, sum(m for j, m in spectrum.items() if j > 0)


# --------------------------------------------------------------------------
# tensor products with the diagonal action

class TensorModule:
    """V(lam) (x) V(mu) with the diagonal action, weight-graded exact basis."""

    def __init__(self, rs, real1, real2, caps=Caps()):
        dim = real1.dimension * real2.dimension
        caps.check("max_dim", dim, "tensor dimension")
        self.rs = rs
        self.r1 = real1
        self.r2 = real2
        self.dimension = dim
        self.blocks = {}   # weight coords -> list of (w1, i1, w2, i2)
        self.index = {}
        for w1, b1 in real1.weights.items():
            for w2, b2 in real2.weights.items():
                tot = (Weight(w1) + Weight(w2)).coords
                blk = self.blocks.setdefault(tot, [])
                for i1 in range(len(b1)):
                    for i2 in range(len(b2)):
                        self.index[(w1, i1, w2, i2)] = (tot, len(blk))
                        blk.append((w1, i1, w2, i2))

    def apply_simple(self, kind, i, wcoords, vec):
        """Apply e_i or f_i (diagonal action) to a vector in one weight block;
        returns (target coords, vector) or None if it maps out of the module."""
        rs = self.rs
        delta = rs.simple_root_weight(i)
        tgt = (Weight(wcoords) + delta).coords if kind == "e" else \
            (Weight(wcoords) - delta).coords
        blk = self.blocks.get(tgt)
        if blk is None:
            return None
        out = [Fraction(0)] * len(blk)
        src = self.blocks[wcoords]
        tindex = {q: t for t, q in enumerate(blk)}
        for pos, c in enumerate(vec):
            if c == 0:
                continue
            w1, i1, w2, i2 = src[pos]
            mats = self.r1.e_mats if kind == "e" else self.r1.f_mats
            m1 = mats.get((i, w1))
            if m1:
                t1 = (Weight(w1) + delta).coords if kind == "e" else \
                    (Weight(w1) - delta).coords
                for r in range(len(m1)):
                    if m1[r][i1]:
                        out[tindex[(t1, r, w2, i2)]] += c * m1[r][i1]
            mats = self.r2.e_mats if kind == "e" else self.r2.f_mats
            m2 = mats.get((i, w2))
            if m2:
                t2 = (Weight(w2) + delta).coords if kind == "e" else \
                    (Weight(w2) - delta).coords
                for r in range(len(m2)):
                    if m2[r][i2]:
                        out[tindex[(w1, i1, t2, r)]] += c * m2[r][i2]
        return tgt, out

    def extremal_vector(self, w):
        """v_lam (x) v'_{w mu}: the canonical generator used by the
        generated-submodule constructions."""
        lam = self.r1.highest
        wmu = w.apply(self.r2.highest)
        w1 = lam.coords
        w2 = wmu.coords
        if len(self.r1.weights[w1]) != 1 or len(self.r2.weights[w2]) != 1:
            raise InvariantViolation(
                f"extremal weights {w1}, {w2} are not multiplicity-free")
        tot, pos = self.index[(w1, 0, w2, 0)]
        vec = [Fraction(0)] * len(self.blocks[tot])
        vec[pos] = Fraction(1)
        return tot, vec


def generated_submodule(tensor, seeds):
    """Closure of weight-homogeneous seed vectors under all e_i, f_i.

    Returns dict weight coords -> SpanBasis.
    """
    spans = {}
    frontier = []
    for wc, vec in seeds:
        span = spans.setdefault(wc, SpanBasis(len(tensor.blocks[wc])))
        if span.add(vec):
            frontier.append((wc, vec))
    while frontier:
        wc, vec = frontier.pop()
        for kind in ("e", "f"):
            for i in range(tensor.rs.rank):
                res = tensor.apply_simple(kind, i, wc, vec)
                if res is None:
                    continue
                tgt, img = res
                if all(x == 0 for x in img):
                    continue
                span = spans.setdefault(tgt, SpanBasis(len(tensor.blocks[tgt])))
                if span.add(img):
                    frontier.append((tgt, img))
    return spans


def highest_weight_count(tensor, spans, eta):
    """Number of independent highest-weight vectors of weight eta inside the
    generated submodule."""
    key = eta.coords
    span = spans.get(key)
    if span is None or span.dim == 0:
        return 0
    ncols = span.dim
    # kernel of the stacked e_i restricted to the span, columns indexed by the
    # span's echelon basis, rows in ambient coordinates of the target blocks
    stacked = []
    basis = _span_vectors(span)
    for i in range(tensor.rs.rank):
        images = []
        for vec in basis:
            res = tensor.apply_simple("e", i, key, vec)
            images.append(res[1] if res is not None else None)
        if all(img is None for img in images):
            continue
        width = next(len(img) for img in images if img is not None)
        for r in range(width):
            stacked.append([img[r] if img is not None else 0 for img in images])
    return nullity(stacked, ncols) if stacked else ncols


def _span_vectors(span):
    return [list(row) for row in span.rows]


def kprv_multiplicity(rs, lam, mu, w, caps=Caps()):
    """Multiplicity of V(dominant(lam + w mu)) inside the submodule of
    V(lam) (x) V(mu) generated by v_lam (x) v'_{w mu}."""
    real1 = realize_cached(rs, lam, caps)
    real2 = realize_cached(rs, mu, caps)
    tensor = TensorModule(rs, real1, real2, caps)
    seeds = [tensor.extremal_vector(w)]
    spans = generated_submodule(tensor, seeds)
    eta = rs.dominant_in_orbit(lam + w.apply(mu))
    return highest_weight_count(tensor, spans, eta)
