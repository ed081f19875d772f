"""Explicit realizations of the finite-dimensional irreducibles.

V(mu) is built top down, one weight space at a time, from the simple
generators alone (de Graaf, J. Pure Appl. Algebra 164, 2001): V(mu)_nu is
spanned by the f_i images of the blocks above it, and a vector below the
top is determined by its e-images.  Each block has a basis of f-words and
exact e_i/f_i matrices; one lazily grown module per (system, mu) serves
both ``realize``, which builds every block, and ``v_extremes_dim``, which
builds only the blocks at and above the weight it asks about.

``VermaEngine`` is the levelwise model of the Verma module M(mu): lowering
monomials as a basis, operator and contravariant Gram matrices level by
level.  Its levels have P(beta) monomials, not weight multiplicities, so no
computation of V(mu) uses it; it is the independent model the tests check
the builder against, and the Verma model at non-dominant weights.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .config import Caps
from .errors import InvariantViolation
from .linalg import (SpanBasis, kernel_basis, mat_inv, mat_mul, nullity,
                     rank)
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
            val = self._mixed(k, first)
            if val:
                d, sign = rs.root_difference(k, first)
                if sign > 0:
                    for m2, c in self._e_apply(d, tail):
                        out[m2] = out.get(m2, 0) + val * c
                else:
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
        return len(g) - rank(g)


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


def _add(a, b):
    return tuple(map(add, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


def _exact(rows):
    """The matrix with every integral Fraction entry made an int."""
    return [[x.numerator if type(x) is Fraction and x.denominator == 1 else x
             for x in row] for row in rows]


class IrrepRealization:
    """Weight-graded model of V(mu) with exact generator matrices, built top
    down from the simple generators one weight space at a time.

    weights: dict coords -> f-word labels; the label (i_1, ..., i_h) names
    the basis vector f_{i_1} ... f_{i_h} v_mu.  Only nonzero blocks appear.
    e_mats/f_mats: dict (simple index, coords) -> matrix of e_i/f_i from the
    block at coords to the block at coords +/- alpha_i, present when both
    blocks are nonzero.

    ``build_to`` builds the blocks at and above one depth; ``realize`` builds
    them all and sets ``dimension``, which is None until then.
    """

    def __init__(self, rs, mu):
        if not mu.is_integral:
            raise ValueError("V(mu) is built for an integral highest weight")
        self.rs = rs
        self.highest = mu
        self.weights = {mu.coords: [()]}
        self.e_mats = {}
        self.f_mats = {}
        self.dimension = None
        self._built = {(0,) * rs.rank}   # depths whose block is built
        self._roots = {}                 # root_vector_matrix memo

    def weight_dim(self, w):
        key = w.coords if isinstance(w, Weight) else tuple(w)
        return len(self.weights.get(key, ()))

    def build_to(self, beta):
        """Build the block at depth beta (root coordinates of mu - weight)
        and every block above it, each after the blocks it is built from."""
        todo = [] if beta in self._built else [beta]
        seen = set(todo)
        for b in todo:
            for i, x in enumerate(b):
                if not x:
                    continue
                up = _bump(b, i, -1)
                if up not in self._built and up not in seen:
                    seen.add(up)
                    todo.append(up)
        for b in sorted(todo, key=sum):
            self._build(b)

    def _build(self, beta):
        """The block at depth beta > 0 from the blocks one and two above.

        Its vectors are determined by their e-images, because a vector of
        V(mu) below the top that every e_k kills would generate a proper
        submodule.  Candidate f_i b (b in the basis at w + alpha_i) has the
        image e_k f_i b = f_i e_k b + delta_ik (w + alpha_i)_i b at w + alpha_k;
        a maximal independent set of candidates is the basis, their images
        are the e-blocks, and the f-blocks into w express every candidate in
        it through one inverse on the pivot rows of the chosen images."""
        self._built.add(beta)
        alpha = self.rs.simple_root_coords
        w = self.highest.coords
        for j, x in enumerate(beta):
            w = _sub(w, tuple(x * a for a in alpha[j]))
        ups = {}
        for i, x in enumerate(beta):
            up = _add(w, alpha[i])
            if x and up in self.weights:
                ups[i] = up
        cands, images = [], []
        for i, wi in ups.items():
            di = len(self.weights[wi])
            segs = []
            for k, wk in ups.items():
                em = self.e_mats.get((k, wi))
                fm = self.f_mats.get((i, _add(wi, alpha[k])))
                seg = _exact(mat_mul(fm, em)) if em and fm else \
                    [[0] * di for _ in self.weights[wk]]
                if k == i:
                    for b in range(di):
                        seg[b][b] += wi[i]
                segs.extend(seg)
            for b in range(di):
                cands.append((i, b))
                images.append([row[b] for row in segs])
        if not cands:
            return
        span = SpanBasis(len(images[0]))
        chosen = [j for j, img in enumerate(images) if span.add(img)]
        if not chosen:
            return
        self.weights[w] = [(i,) + self.weights[ups[i]][b]
                           for i, b in (cands[j] for j in chosen)]
        top = 0
        for k, wk in ups.items():
            rows = range(top, top + len(self.weights[wk]))
            self.e_mats[(k, w)] = [[images[j][r] for j in chosen] for r in rows]
            top = rows.stop
        inv = mat_inv([[images[j][p] for j in chosen] for p in span.pivots])
        coords = _exact(mat_mul(inv, [[img[p] for img in images]
                                      for p in span.pivots]))
        first = 0
        for i, wi in ups.items():
            cols = range(first, first + len(self.weights[wi]))
            self.f_mats[(i, wi)] = [[row[c] for c in cols] for row in coords]
            first = cols.stop

    def root_vector_matrix(self, kind, root_idx, wcoords):
        """Exact matrix of e_alpha or f_alpha (kind "e"/"f", any positive
        root) on one block, and the target coords; the matrix is empty when
        the target is not a weight.  A non-simple root is reached through
        its minimal decomposition, x_g = [x_a, x_b] / c with [x_a, x_b] =
        c x_g in the Chevalley bracket table."""
        rs = self.rs
        shift = rs.root_weight_coords[root_idx]
        tgt = _add(wcoords, shift) if kind == "e" else _sub(wcoords, shift)
        root = rs.positive_roots[root_idx]
        if root.height == 1:
            i = root.coeffs.index(1)
            mats = self.e_mats if kind == "e" else self.f_mats
            return mats.get((i, wcoords), []), tgt
        key = (kind, root_idx, wcoords)
        hit = self._roots.get(key)
        if hit is not None:
            return hit, tgt
        # read before the early return, so that a root system past the
        # bracket table's rank limit is refused even on an empty block
        cb = chevalley_basis(rs)
        idx = cb.idx_e if kind == "e" else cb.idx_f
        a, b = cb.special[root_idx]
        (c,) = cb.table.bracket(idx(a), idx(b)).values()
        if wcoords not in self.weights or tgt not in self.weights:
            return [], tgt
        out = [[0] * len(self.weights[wcoords]) for _ in self.weights[tgt]]
        for first, second, sgn in ((b, a, 1), (a, b, -1)):
            m1, mid = self.root_vector_matrix(kind, first, wcoords)
            m2 = self.root_vector_matrix(kind, second, mid)[0] if m1 else []
            if m2:
                for row, term in zip(out, mat_mul(m2, m1)):
                    for t, x in enumerate(term):
                        row[t] += sgn * x
        out = _exact([[Fraction(x, c) for x in row] for row in out])
        self._roots[key] = out
        return out, tgt


@lru_cache(maxsize=None)
def _module(rs, mu):
    return IrrepRealization(rs, mu)


def v_extremes_dim(rs, mu, gamma, nu):
    """dim V^+(mu; gamma, nu), the joint kernel of the e_i^{nu(h_i)+1}
    on V(mu)_gamma, built only down to gamma."""
    if not (nu.is_integral and nu.is_dominant):
        raise ValueError("nu must be dominant integral")
    diff = rs.root_lattice_coords(mu - gamma)
    if diff is None or any(c < 0 for c in diff):
        return 0
    real = _module(rs, mu)
    real.build_to(diff)
    n = real.weight_dim(gamma)
    return nullity(_power_rows(rs, real, gamma.coords, nu, "+"), n) if n else 0


def realize(rs, mu, caps=Caps()):
    """V(mu) with per-weight f-word bases and exact simple generator
    matrices, built once per (system, mu) and checked block by block against
    the dominant table of V(mu) expanded over W-orbits; refused past
    caps.max_dim before the memo is consulted."""
    caps.check("max_dim", weyl_dimension(rs, mu), "dim V({})", mu)
    real = _module(rs, mu)
    if real.dimension is None:
        mults = {x: m for dom, m in dominant_weight_table(rs, mu).items()
                 for x in rs.orbit_coords(dom)}
        for w in mults:
            real.build_to(rs.root_lattice_coords(mu - Weight(w)))
        for w, m in mults.items():
            if real.weight_dim(w) != m:
                raise InvariantViolation(
                    f"block dimension {real.weight_dim(w)} != multiplicity "
                    f"{m} at {w}")
        if len(real.weights) != len(mults):
            raise InvariantViolation("a block outside the weight table")
        dim = sum(len(b) for b in real.weights.values())
        if dim != weyl_dimension(rs, mu):
            raise InvariantViolation("realization dimension mismatch")
        real.dimension = dim
    return real


def _power_rows(rs, real, key, nu, sign):
    """The e_i^{nu(h_i)+1} (f_i for sign "-") on the block at key, stacked
    over i; a power that leaves the module is zero and adds no rows."""
    mats = real.e_mats if sign == "+" else real.f_mats
    stacked = []
    for i, a in enumerate(rs.simple_root_coords):
        mat = None
        cur = key
        for _ in range(nu[i] + 1):
            step = mats.get((i, cur))
            if not step:
                break
            mat = step if mat is None else mat_mul(step, mat)
            cur = _add(cur, a) if sign == "+" else _sub(cur, a)
        else:
            stacked.extend(mat)
    return stacked


def v_extremes(rs, realization, gamma, nu, sign="+"):
    """(dimension, basis vectors) of V^{+/-}(mu; gamma, nu) in the realization.

    Basis vectors are coordinate lists over the f-word basis at gamma.
    """
    if not (nu.is_integral and nu.is_dominant):
        raise ValueError("nu must be dominant integral")
    n = realization.weight_dim(gamma)
    if n == 0:
        return 0, []
    basis = kernel_basis(_power_rows(rs, realization, gamma.coords, nu, sign),
                         n)
    return len(basis), basis


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
    fe = mat_mul(fmat, emat)
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
        self._ops = {}     # (kind, i) -> _integral_op
        for w1, b1 in real1.weights.items():
            for w2, b2 in real2.weights.items():
                tot = _add(w1, w2)
                blk = self.blocks.setdefault(tot, [])
                for i1 in range(len(b1)):
                    for i2 in range(len(b2)):
                        self.index[(w1, i1, w2, i2)] = (tot, len(blk))
                        blk.append((w1, i1, w2, i2))

    def _integral_op(self, kind, i):
        """(d, mats1, mats2): e_i or f_i on each factor's blocks, keyed by
        weight, as integer matrices d times the exact ones, with d the lcm
        of their denominators.  Made once per generator."""
        hit = self._ops.get((kind, i))
        if hit is None:
            facs = [{w: m for (j, w), m in
                     (r.e_mats if kind == "e" else r.f_mats).items() if j == i}
                    for r in (self.r1, self.r2)]
            d = lcm(1, *(x.denominator for fac in facs for m in fac.values()
                         for row in m for x in row))
            hit = self._ops[(kind, i)] = (d, *(
                {w: [[int(x * d) for x in row] for row in m]
                 for w, m in fac.items()} for fac in facs))
        return hit

    def _apply_scaled(self, kind, i, wcoords, vec):
        """(target coords, d times the image, d) of a vector in one weight
        block under e_i or f_i, d from ``_integral_op``, so an integer vector
        has an integer image; None if it maps out of the module."""
        delta = self.rs.simple_root_coords[i]
        shift = _add if kind == "e" else _sub
        tgt = shift(wcoords, delta)
        blk = self.blocks.get(tgt)
        if blk is None:
            return None
        d, mats1, mats2 = self._integral_op(kind, i)
        index = self.index
        src = self.blocks[wcoords]
        out = [0] * len(blk)
        for pos, c in enumerate(vec):
            if c == 0:
                continue
            w1, i1, w2, i2 = src[pos]
            m1 = mats1.get(w1)
            if m1:
                t1 = shift(w1, delta)
                for r, row in enumerate(m1):
                    if row[i1]:
                        out[index[(t1, r, w2, i2)][1]] += c * row[i1]
            m2 = mats2.get(w2)
            if m2:
                t2 = shift(w2, delta)
                for r, row in enumerate(m2):
                    if row[i2]:
                        out[index[(w1, i1, t2, r)][1]] += c * row[i2]
        return tgt, out, d

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
        vec = [0] * len(self.blocks[tot])
        vec[pos] = 1
        return tot, vec


def generated_submodule(tensor, seeds):
    """Closure of weight-homogeneous seed vectors under all e_i, f_i.

    Images are taken with ``_apply_scaled`` and divided by the gcd of their
    entries: a constant multiple of a vector has the same span, and integer
    seeds keep every vector integral and small.
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
                res = tensor._apply_scaled(kind, i, wc, vec)
                if res is None:
                    continue
                tgt, img, _ = res
                g = gcd(*img)
                if g == 0:
                    continue
                if g > 1:
                    img = [x // g for x in img]
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
    # span's echelon basis, rows in ambient coordinates of the target blocks;
    # the rows of each e_i share one scale, which leaves the kernel alone
    stacked = []
    for i in range(tensor.rs.rank):
        images = []
        for vec in span.rows:
            res = tensor._apply_scaled("e", i, key, vec)
            images.append(res[1] if res is not None else None)
        if all(img is None for img in images):
            continue
        width = next(len(img) for img in images if img is not None)
        for r in range(width):
            stacked.append([img[r] if img is not None else 0 for img in images])
    return nullity(stacked, ncols)


def kprv_multiplicity(rs, lam, mu, w, caps=Caps()):
    """Multiplicity of V(dominant(lam + w mu)) inside the submodule of
    V(lam) (x) V(mu) generated by v_lam (x) v'_{w mu}."""
    rs.require_weyl_element(w)
    real1 = realize(rs, lam, caps)
    real2 = realize(rs, mu, caps)
    tensor = TensorModule(rs, real1, real2, caps)
    seeds = [tensor.extremal_vector(w)]
    spans = generated_submodule(tensor, seeds)
    eta = rs.dominant_in_orbit(lam + w.apply(mu))
    return highest_weight_count(tensor, spans, eta)
