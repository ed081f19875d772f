"""Explicit realizations of the finite-dimensional irreducibles.

V(mu) is built top down, one weight space at a time, from the simple
generators alone (de Graaf, J. Pure Appl. Algebra 164, 2001): V(mu)_nu is
spanned by the f_i images of the blocks above it, and a vector below the
top is determined by its e-images.  The Z-span L of the f-words
f_{i_1} ... f_{i_h} v_mu is stable under every e_i and f_i, as
e_k f_i = f_i e_k + delta_ik h_i (Kostant's Z-form, 1966, without divided
powers), so each block takes a Z-basis of L_nu, read from the Hermite
normal form of its e-images, and every e_i/f_i matrix is an integer matrix.
One lazily grown module per (system, mu) serves both ``realize``, which
builds every block, and ``v_extremes_dim``, which builds only the blocks at
and above the weight it asks about.

``VermaEngine`` is the levelwise model of the Verma module M(mu): lowering
monomials (``characters.kostant_partitions``) as a basis, operator and
contravariant Gram matrices level by level.  Its levels have P(beta)
monomials, not weight multiplicities, so no computation of V(mu) uses it;
it is the independent model the tests check the builder against, and the
Verma model at non-dominant weights.

The Verma engine takes its U(g) products from the PBW product table of
the Chevalley basis: a column of e_alpha or f_alpha is the normal form of
x f^mono with every term that has an e-factor dropped and the h-block
evaluated at mu.  ``root_vector_matrix`` on a non-simple root alone reads
the bracket table.  Both import ``enveloping`` where they run: building
V(mu), its kernels and the KPRV count load no U(g).

``TensorModule`` is V(lam) (x) V(mu) with the diagonal action.
``generated_submodule`` closes seed vectors under every e_i and f_i;
``kprv_multiplicity`` closes v = v_lam (x) v'_{w mu} under the e_i, then
under the f_i at the weights >= eta only (U(g) = U(n^-) U(h) U(n^+)).
Both run one closure loop, ``_close``.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, sub

from .config import Caps
from .errors import InvariantViolation
from .linalg import (SpanBasis, kernel_basis, lattice_basis, mat_mul,
                     nullity, rank)
from .rootsystem import Weight, _num
from .characters import (_table, dominant_orbit, kostant_partitions,
                         weyl_dimension)

__all__ = [
    "VermaEngine", "IrrepRealization", "realize", "v_extremes",
    "v_extremes_dim", "zero_weight_spectrum", "kprv_multiplicity",
    "TensorModule", "generated_submodule",
]


class VermaEngine:
    """Levelwise exact model of the Verma module M(mu), integral mu.

    Levels are indexed by the depth beta (root coordinates of mu - weight).
    All operator matrices and Gram matrices have integer entries.
    """

    def __init__(self, rs, mu):
        from .enveloping import chevalley_basis
        if not mu.is_integral:
            raise ValueError("Verma engine expects an integral highest weight")
        self.rs = rs
        self.mu = mu
        self.basis = chevalley_basis(rs)
        self._levels = {}
        self._ops = {}
        self._gram = {(0,) * rs.rank: [[1]]}

    def level(self, beta):
        """Sorted lowering monomials of depth beta (exponents over R+)."""
        hit = self._levels.get(beta)
        if hit is None:
            monos = kostant_partitions(self.rs, beta)
            hit = self._levels[beta] = (monos, {m: i for i, m in enumerate(monos)})
        return hit

    def level_dim(self, beta):
        return len(self.level(beta)[0])

    def _act(self, x, mono):
        """x f^mono v_mu as a list of (lowering monomial, coeff): the PBW
        normal form of x * f^mono (f-block, h-block, e-block) with every
        term that has an e-factor dropped, as it kills v_mu, and the h-block
        evaluated at mu."""
        m, top = self.basis.m, self.basis.m + self.rs.rank
        out = {}
        for exps, c in (x * self.basis.lowering(mono)).terms.items():
            if not any(exps[top:]):
                for h, e in zip(self.mu.coords, exps[m:top]):
                    c *= h ** e
                out[exps[:m]] = out.get(exps[:m], 0) + c
        return [(f, c) for f, c in out.items() if c]

    def f_matrix(self, k, beta):
        """Matrix of f_{r_k}: level beta -> level beta + r_k (columns map)."""
        return self._matrix(k, beta, 1)

    def e_matrix(self, k, beta):
        """Matrix of e_{r_k}: level beta -> level beta - r_k."""
        return self._matrix(k, beta, -1)

    def _matrix(self, k, beta, sign):
        """Matrix of f_{r_k} (sign 1) or e_{r_k} (sign -1) from level beta
        to level beta + sign r_k; [] when that level is off M(mu)."""
        key = (k, beta, sign)
        hit = self._ops.get(key)
        if hit is not None:
            return hit
        tgt_beta = tuple(a + sign * b for a, b in
                         zip(beta, self.rs.positive_roots[k].coeffs))
        mat = []
        if min(tgt_beta) >= 0:
            monos, (_, tindex) = self.level(beta)[0], self.level(tgt_beta)
            mat = [[0] * len(monos) for _ in tindex]
            for j, mono in enumerate(monos):
                col = self._e_apply(k, mono) if sign < 0 else \
                    self._act(self.basis.f_root(k), mono)
                for m2, c in col:
                    mat[tindex[m2]][j] = c
        self._ops[key] = mat
        return mat

    def _e_apply(self, k, mono):
        """e_{r_k} acting on (mono . highest vector): list of (mono', coeff)."""
        return self._act(self.basis.e_root(k), mono)

    def gram(self, beta):
        """Contravariant Gram matrix on the depth-beta monomials, evaluated
        at the engine's highest weight.  Integer entries.

        With f^{mono_i} = f_{r_t} f^tail, r_t the first root of mono_i,
        entry (i, j) is <f^tail v_mu, e_{r_t} f^{mono_j} v_mu>: the tail's
        row of the Gram matrix one level up times the e_{r_t} matrix."""
        hit = self._gram.get(beta)
        if hit is not None:
            return hit
        g = []
        for mono in self.level(beta)[0]:
            first = next(t for t, e in enumerate(mono) if e)
            sub_beta = tuple(a - b for a, b in
                             zip(beta, self.rs.positive_roots[first].coeffs))
            grow = self.gram(sub_beta)[
                self.level(sub_beta)[1][_bump(mono, first, -1)]]
            g.append([sum(map(mul, grow, col))
                      for col in zip(*self.e_matrix(first, beta))])
        self._gram[beta] = g
        return g

    def radical_dim(self, beta):
        g = self.gram(beta)
        return len(g) - rank(g)


def _bump(mono, k, delta):
    return mono[:k] + (mono[k] + delta,) + mono[k + 1:]


def _add(a, b):
    return tuple(map(add, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


class IrrepRealization:
    """Weight-graded model of V(mu) with integer generator matrices, built
    top down from the simple generators one weight space at a time.

    Each block below the top has a Z-basis of L_nu, the Z-span of the
    f-words f_{i_1} ... f_{i_h} v_mu at nu: the one whose e-images, stacked
    over the e_k, are the reduced Hermite basis of their lattice.
    weights: dict coords -> block dimension; only nonzero blocks appear.
    e_mats/f_mats: dict (simple index, coords) -> integer matrix of e_i/f_i
    from the block at coords to the block at coords +/- alpha_i, present
    when both blocks are nonzero.

    ``build_to`` builds the blocks at and above one depth; ``realize`` builds
    them all and sets ``dimension``, which is None until then; both check mu.
    """

    def __init__(self, rs, mu):
        self.rs = rs
        self.highest = mu
        self.weights = {mu.coords: 1}
        self.e_mats = {}
        self.f_mats = {}
        self.dimension = None
        self._built = {(0,) * rs.rank}   # depths whose block is built
        self._roots = {}                 # root_vector_matrix memo

    def weight_dim(self, w):
        key = w.coords if isinstance(w, Weight) else tuple(w)
        return self.weights.get(key, 0)

    def build_to(self, beta):
        """Build the block at depth beta (root coordinates of mu - weight)
        and every block above it, each after the blocks it is built from."""
        todo = [] if beta in self._built else [beta]
        seen = set(todo)
        for b in todo:
            for i, x in enumerate(b):
                up = _bump(b, i, -1)
                if x and up not in self._built and up not in seen:
                    seen.add(up)
                    todo.append(up)
        for b in sorted(todo, key=sum):
            self._build(b)

    def _build(self, beta):
        """The block at depth beta > 0 from the blocks one and two above.

        A vector of V(mu) below the top that every e_k kills would generate
        a proper submodule, so the e-image map is injective.  Candidate f_i b
        (b in the basis at w + alpha_i) has the integer image e_k f_i b =
        f_i e_k b + delta_ik (w + alpha_i)_i b at w + alpha_k.  The
        candidates span L_w, so the Hermite basis of their images' lattice
        is the image of a basis of L_w: its rows are the e-blocks, and each
        candidate's coordinates in it are a column of the f-blocks into w."""
        self._built.add(beta)
        alpha = self.rs.simple_root_coords
        w = (self.highest - self.rs.root_to_weight(beta)).coords
        ups = {i: up for i, x in enumerate(beta)
               if x and (up := _add(w, alpha[i])) in self.weights}
        images = []
        for i, wi in ups.items():
            di = self.weights[wi]
            segs = []
            for k, wk in ups.items():
                em = self.e_mats.get((k, wi))
                fm = self.f_mats.get((i, _add(wi, alpha[k])))
                seg = mat_mul(fm, em) if em and fm else \
                    [[0] * di for _ in range(self.weights[wk])]
                if k == i:
                    for b in range(di):
                        seg[b][b] += wi[i]
                segs.extend(seg)
            images.extend(map(list, zip(*segs)))
        rows, coords = lattice_basis(images)
        if not rows:
            return
        self.weights[w] = len(rows)
        top = 0
        for k, wk in ups.items():
            seg = range(top, top + self.weights[wk])
            self.e_mats[(k, w)] = [[row[r] for row in rows] for r in seg]
            self.f_mats[(k, wk)] = [list(col) for col in
                                    zip(*(coords[c] for c in seg))]
            top = seg.stop

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
        from .enveloping import chevalley_basis
        # read before the early return, so that a root system past the
        # bracket table's rank limit is refused even on an empty block
        cb = chevalley_basis(rs)
        idx = cb.idx_e if kind == "e" else cb.idx_f
        a, b = cb.special[root_idx]
        (c,) = cb.table.bracket(idx(a), idx(b)).values()
        if wcoords not in self.weights or tgt not in self.weights:
            return [], tgt
        out = [[0] * self.weights[wcoords] for _ in range(self.weights[tgt])]
        for first, second, sgn in ((b, a, 1), (a, b, -1)):
            m1, mid = self.root_vector_matrix(kind, first, wcoords)
            m2 = self.root_vector_matrix(kind, second, mid)[0] if m1 else []
            if m2:
                for row, term in zip(out, mat_mul(m2, m1)):
                    for t, x in enumerate(term):
                        row[t] += sgn * x
        out = [[_num(Fraction(x, c)) for x in row] for row in out]
        self._roots[key] = out
        return out, tgt


@lru_cache(maxsize=None)
def _module(rs, mu):
    return IrrepRealization(rs, mu)


def v_extremes_dim(rs, mu, gamma, nu):
    """dim V^+(mu; gamma, nu), the joint kernel of the e_i^{nu(h_i)+1}
    on V(mu)_gamma, built only down to gamma."""
    rs.require_dominant_integral(mu, nu)
    rs.require_weight(gamma)
    return _v_extremes_dim(rs, mu, gamma.coords, nu.coords)


def _v_extremes_dim(rs, mu, gamma, nu):
    """v_extremes_dim on checked arguments, gamma and nu as coordinates."""
    diff = rs.root_lattice_coords(_sub(mu.coords, gamma))
    if diff is None or min(diff) < 0:
        return 0
    real = _module(rs, mu)
    real.build_to(diff)
    return nullity(_power_rows(rs, real, gamma, nu, "+"),
                   real.weights.get(gamma, 0))


def realize(rs, mu, caps=Caps()):
    """V(mu) with per-weight integral lattice bases and integer simple
    generator matrices, built once per (system, mu) and checked block by
    block against the dominant table of V(mu) expanded over W-orbits;
    refused past caps.max_dim before the memo is consulted."""
    dim = weyl_dimension(rs, mu)
    caps.check("max_dim", dim, "dim V({})", mu)
    real = _module(rs, mu)
    if real.dimension is None:
        mults = {x: m for dom, m in _table(rs, mu.coords).items()
                 for x in dominant_orbit(rs, dom)}
        for w in mults:
            real.build_to(rs.root_lattice_coords(_sub(mu.coords, w)))
        if real.weights != mults or sum(mults.values()) != dim:
            raise InvariantViolation(
                f"the blocks of V({mu}) differ from its weight table")
        real.dimension = dim
    return real


def _power_rows(rs, real, key, nu, sign):
    """The e_i^{nu(h_i)+1} (f_i for sign "-") on the block at key, stacked
    over i; a power that leaves the module is zero and adds no rows.  The
    weights of V(mu) form unbroken alpha_i-strings, so a chain is multiplied
    out only if it ends at a weight (for e_i one of the blocks built above
    key), and then every step on the way has its matrix."""
    mats, step = (real.e_mats, _add) if sign == "+" else (real.f_mats, _sub)
    stacked = []
    for i, a in enumerate(rs.simple_root_coords):
        mat, cur = mats.get((i, key)), key
        if not mat or step(key, [(nu[i] + 1) * x for x in a]) \
                not in real.weights:
            continue
        for _ in range(nu[i]):
            cur = step(cur, a)
            mat = mat_mul(mats[(i, cur)], mat)
        stacked.extend(mat)
    return stacked


def v_extremes(rs, realization, gamma, nu, sign="+"):
    """(dimension, basis vectors) of V^{+/-}(mu; gamma, nu) in the realization.

    Basis vectors are coordinate lists over the realization's basis at
    gamma, a Z-basis of the f-words' lattice there (``IrrepRealization``).
    """
    if sign not in ("+", "-"):
        raise ValueError(f"unknown sign {sign!r}")
    rs.require_same_system(realization)
    rs.require_dominant_integral(nu)
    rs.require_weight(gamma)
    basis = kernel_basis(_power_rows(rs, realization, gamma.coords, nu, sign),
                         realization.weight_dim(gamma))
    return len(basis), basis


def zero_weight_spectrum(rs, realization, root_idx):
    """Multiplicities of the j(j+1) eigenvalues of f_alpha e_alpha on the
    zero weight space; returns ({j: m_j for m_j > 0}, m_mu = sum_{j>0} m_j).

    Nullities of f_alpha e_alpha - j(j+1) on the realization: the route
    independent of ``determinants.prv_det``, which reads the same numbers
    from the dominant table."""
    rs.require_same_system(realization)
    rs.require_root_index(root_idx)
    zero = (0,) * rs.rank
    d0 = realization.weight_dim(Weight(zero))
    if d0 == 0:
        return {}, 0
    emat, alpha_w = realization.root_vector_matrix("e", root_idx, zero)
    if not emat:
        # e_alpha kills the whole zero space: f e = 0
        return {0: d0}, 0
    fmat, _ = realization.root_vector_matrix("f", root_idx, alpha_w)
    fe = mat_mul(fmat, emat)
    jmax = max(abs(rs.pairing(Weight(wc), root_idx))
               for wc in realization.weights) // 2
    spectrum = {}
    for j in range(jmax + 1):
        m = nullity([[fe[r][c] - j * (j + 1) * (r == c) for c in range(d0)]
                     for r in range(d0)], d0)
        if m:
            spectrum[j] = m
    if sum(spectrum.values()) != d0:
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
        for w1, n1 in real1.weights.items():
            for w2, n2 in real2.weights.items():
                tot = _add(w1, w2)
                blk = self.blocks.setdefault(tot, [])
                for i1 in range(n1):
                    for i2 in range(n2):
                        self.index[(w1, i1, w2, i2)] = (tot, len(blk))
                        blk.append((w1, i1, w2, i2))

    def _apply(self, kind, i, wcoords, vec):
        """(target coords, image) of a vector in one weight block under e_i
        or f_i, None if it maps out of the module; an integer vector has an
        integer image, as both factors' generator matrices are integral."""
        delta = self.rs.simple_root_coords[i]
        shift = _add if kind == "e" else _sub
        tgt = shift(wcoords, delta)
        blk = self.blocks.get(tgt)
        if blk is None:
            return None
        mats1, mats2 = ((r.e_mats if kind == "e" else r.f_mats)
                        for r in (self.r1, self.r2))
        index = self.index
        src = self.blocks[wcoords]
        out = [0] * len(blk)
        for pos, c in enumerate(vec):
            if c == 0:
                continue
            w1, i1, w2, i2 = src[pos]
            m1 = mats1.get((i, w1))
            if m1:
                t1 = shift(w1, delta)
                for r, row in enumerate(m1):
                    if row[i1]:
                        out[index[(t1, r, w2, i2)][1]] += c * row[i1]
            m2 = mats2.get((i, w2))
            if m2:
                t2 = shift(w2, delta)
                for r, row in enumerate(m2):
                    if row[i2]:
                        out[index[(w1, i1, t2, r)][1]] += c * row[i2]
        return tgt, out

    def extremal_vector(self, w):
        """v_lam (x) v'_{w mu}: the canonical generator used by the
        generated-submodule constructions."""
        w1 = self.r1.highest.coords
        w2 = w.apply(self.r2.highest).coords
        if self.r1.weights[w1] != 1 or self.r2.weights[w2] != 1:
            raise InvariantViolation(
                f"extremal weights {w1}, {w2} are not multiplicity-free")
        tot, pos = self.index[(w1, 0, w2, 0)]
        vec = [0] * len(self.blocks[tot])
        vec[pos] = 1
        return tot, vec


def _close(tensor, spans, kinds, keep=None):
    """Grow spans (weight coords -> SpanBasis) to their closure under e_i
    and/or f_i (kinds, a string of "e" and "f"); with keep, a set of weight
    coords, an image at any other weight is dropped.  The spans' rows start
    the frontier, and every image that grows a span joins it.

    Images are divided by the gcd of their entries: a constant multiple of
    a vector has the same span, and integer seeds keep every vector
    integral and small."""
    rank = tensor.rs.rank
    frontier = [(wc, row) for wc, span in spans.items() for row in span.rows]
    for wc, vec in frontier:
        for kind in kinds:
            for i in range(rank):
                res = tensor._apply(kind, i, wc, vec)
                if res is None:
                    continue
                tgt, img = res
                if keep is not None and tgt not in keep:
                    continue
                g = gcd(*img)
                if g == 0:
                    continue
                if g > 1:
                    img = [x // g for x in img]
                span = spans.get(tgt)
                if span is None:
                    span = spans[tgt] = SpanBasis(len(tensor.blocks[tgt]))
                if span.add(img):
                    frontier.append((tgt, img))
    return spans


def _seeded(tensor, seeds, kinds):
    """Spans (weight coords -> SpanBasis) of the closure of the seeds under
    kinds."""
    spans = {}
    for wc, vec in seeds:
        spans.setdefault(wc, SpanBasis(len(tensor.blocks[wc]))).add(vec)
    return _close(tensor, spans, kinds)


def generated_submodule(tensor, seeds):
    """Closure of weight-homogeneous seed vectors under all e_i, f_i: the
    whole submodule they generate.  Returns dict weight coords ->
    SpanBasis."""
    return _seeded(tensor, seeds, "ef")


def highest_weight_count(tensor, basis, eta):
    """Number of independent highest-weight vectors of weight eta in the
    span of basis, independent integer vectors of the block at eta: the
    nullity of the e_i stacked on the basis, in ambient coordinates of the
    target blocks."""
    key = eta.coords
    stacked = []
    for i in range(tensor.rs.rank):
        images = [tensor._apply("e", i, key, vec) for vec in basis]
        if images and images[0] is not None:
            stacked.extend(zip(*(img for _, img in images)))
    return nullity(stacked, len(basis))


def _generated_above(tensor, seed, eta):
    """The submodule generated by the weight vector seed at every weight
    >= eta, as dict weight coords -> SpanBasis: the seed is closed under
    the e_i, then what that reaches at weights >= eta under the f_i, at
    weights >= eta (see ``kprv_multiplicity``)."""
    rs = tensor.rs
    above = {wc for wc in tensor.blocks
             if min(rs.root_lattice_coords(_sub(wc, eta.coords))) >= 0}
    spans = {wc: span for wc, span in _seeded(tensor, [seed], "e").items()
             if wc in above}
    return _close(tensor, spans, "f", above)


def kprv_multiplicity(rs, lam, mu, w, caps=Caps()):
    """Multiplicity of V(eta), eta = dominant(lam + w mu), inside the
    submodule of V(lam) (x) V(mu) generated by v = v_lam (x) v'_{w mu}.

    Only the weight spaces at and above eta are built.  By the triangular
    decomposition U(g) = U(n^-) U(h) U(n^+), and since v is a weight vector,
    U(g) v = U(n^-) E with E = U(n^+) v, the closure of v under the e_i.
    An f-word carries a vector of weight nu to a weight >= eta only when
    nu >= eta (nu - eta in the nonnegative root lattice), and every weight
    it passes on the way is >= eta too.  So the part of E at weights >= eta,
    closed under the f_i with images kept only at weights >= eta, is the
    generated submodule at every weight >= eta; the highest-weight count
    reads it at eta and at the eta + alpha_i."""
    rs.require_same_system(w)
    real1 = realize(rs, lam, caps)
    real2 = realize(rs, mu, caps)
    tensor = TensorModule(rs, real1, real2, caps)
    eta = rs.dominant_in_orbit(lam + w.apply(mu))
    spans = _generated_above(tensor, tensor.extremal_vector(w), eta)
    return highest_weight_count(tensor, spans[eta.coords].rows, eta)
