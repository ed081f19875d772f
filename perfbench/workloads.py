"""The in-process workloads: seeded inputs, the ops that run them through
lierep's public functions, and an oracle for every op.

An op is a callable taking `span(name)`, a context-manager factory the
runner uses to time the public calls inside the op.  It returns normally
when its oracle accepts the answer and raises Mismatch when it does not.
"""

import math
import random
from fractions import Fraction
from itertools import cycle

from lierep import (HCParams, Weight, build_root_system, casimir,
                    character_of, chevalley_basis, decompose, equivalent,
                    hc_projection, kprv_multiplicity, prv_det,
                    shapovalov_det, weyl_dimension)
from lierep.characters import weight_multiplicity
from lierep.enveloping import casimir_eigenvalue, twisted_poly
from lierep.selfcheck import PRODUCT_DIM_CAP, dominant_weights_by_dim
from lierep.tensor import METHODS
from lierep.weyl import bruhat_leq, enumerate_weyl, from_word, \
    simple_reflection

class Mismatch(Exception):
    """An answer that its oracle rejects."""


class Op:
    __slots__ = ("family", "stratum", "fn")

    def __init__(self, family, stratum, fn):
        self.family = family
        self.stratum = stratum
        self.fn = fn

    def __call__(self, span):
        self.fn(span)


def _check(ok, detail):
    if not ok:
        raise Mismatch(detail)


def _pairs(rs, dim_cap):
    """Dominant pairs (lam, mu), mu listed no later than lam, whose tensor
    product has dimension at most dim_cap; in order of dim V(lam), then of
    dim V(mu).  That is roughly the order of what decomposing them costs,
    which the character of the larger factor leads."""
    ws = dominant_weights_by_dim(rs, dim_cap)
    return [(lam, mu) for i, (lam, dl) in enumerate(ws)
            for mu, dm in ws[:i + 1] if dl * dm <= dim_cap]


def _stratified(rng, items, k):
    """A seeded sample of k of `items`, which are ordered by cost: one item
    from each of k runs of neighbours, so that the samples of two seeds cost
    nearly the same.  All items when there are no more than k.  Returned in
    random order."""
    n = len(items)
    if k >= n:
        picked = list(items)
    else:
        picked = [items[rng.randrange(i * n // k, (i + 1) * n // k)]
                  for i in range(k)]
    rng.shuffle(picked)
    return picked


def _stream(rng, strata, count):
    """At least `count` ops in blocks holding one op from every stratum,
    shuffled within the block.

    Each stratum is a list of ops consumed in order and reused from its
    start once exhausted, so a small stratum is taken whole.
    """
    iters = [cycle(ops) for ops in strata]
    out = []
    for _ in range(math.ceil(count / len(strata))):
        block = [next(it) for it in iters]
        rng.shuffle(block)
        out.extend(block)
    return out


# -- tensor-corpus ------------------------------------------------------------

TENSOR_TYPES = ("A1", "A2", "B2", "G2")


def _tensor_op(rs, lam, mu):
    def run(span):
        with span("characters.character_of"):
            ch_lam = character_of(rs, lam)
            ch_mu = character_of(rs, mu)
        entries = {}
        for method in METHODS:
            with span(f"tensor.decompose.{method}"):
                entries[method] = decompose(rs, lam, mu, method).entries
        where = f"{rs.label} {lam.coords} x {mu.coords}"
        d_lam, d_mu = weyl_dimension(rs, lam), weyl_dimension(rs, mu)
        _check(ch_lam.total() == d_lam and ch_mu.total() == d_mu,
               f"{where}: character totals differ from the dimensions")
        first = entries[METHODS[0]]
        _check(all(e == first for e in entries.values()),
               f"{where}: methods disagree")
        total = sum(m * weyl_dimension(rs, Weight(nu))
                    for nu, m in first.items())
        _check(total == d_lam * d_mu, f"{where}: dimension count {total}")
        if rs.label == "A1":
            a, b = lam.coords[0], mu.coords[0]
            want = {(k,): 1 for k in range(abs(a - b), a + b + 1, 2)}
            _check(first == want, f"{where}: not the Clebsch-Gordan series")
    return Op("tensor", rs.label, run)


def tensor_corpus(seed, count):
    """A seeded, stratified sample of `count` ops from the method-agreement
    corpus: equal shares of A1, A2, B2 and G2 pairs in random order, each
    share spread evenly over its type's pairs from cheap to dear."""
    rng = random.Random(seed)
    share = math.ceil(count / len(TENSOR_TYPES))
    strata = []
    for label in TENSOR_TYPES:
        rs = build_root_system(label)
        pairs = _stratified(rng, _pairs(rs, PRODUCT_DIM_CAP), share)
        strata.append([_tensor_op(rs, lam, mu) for lam, mu in pairs])
    return _stream(rng, strata, count)


# -- module-algebra -----------------------------------------------------------

KPRV_TYPES = ("A1", "A2", "B2")
KPRV_DIM_CAP = 100
SHAPOVALOV_HEIGHTS = (("A2", 6), ("B2", 5), ("G2", 5))
CASIMIR_TYPES = ("A2", "B2", "G2", "A3", "B3", "C3")
CASIMIR_MAX_POWER = 3
CASIMIR_POINTS = 8
PRV_DET_DIM_CAPS = (("A2", 64), ("B2", 64), ("G2", 27))
BRUHAT_TYPE = "F4"
BRUHAT_MAX_LENGTH = 10
EQUIV_TYPES = ("A2", "B2", "G2")
# one stratum per type of each family, and two for Bruhat
MODULE_STRATA = (len(KPRV_TYPES) + len(SHAPOVALOV_HEIGHTS)
                 + len(CASIMIR_TYPES) + len(PRV_DET_DIM_CAPS) + 2
                 + len(EQUIV_TYPES))


def _kprv_op(rs, lam, mu, w):
    def run(span):
        with span("irreps.kprv_multiplicity"):
            got = kprv_multiplicity(rs, lam, mu, w)
        _check(got == 1, f"{rs.label} kprv {lam.coords} {mu.coords} "
                         f"w={w.word}: {got}")
    return Op("kprv_multiplicity", rs.label, run)


def _shapovalov_op(rs, depth, cap):
    def run(span):
        with span("determinants.shapovalov_det"):
            direct = shapovalov_det(rs, depth, "direct", cap)
            formula = shapovalov_det(rs, depth, "formula", cap)
        ratio = direct.ratio_to(formula)
        _check(ratio is not None and ratio != 0,
               f"{rs.label} depth {depth}: direct/formula is not a scalar")
    return Op("shapovalov_det", rs.label, run)


def _casimir_op(rs, power, lam):
    def run(span):
        basis = chevalley_basis(rs)
        with span("enveloping.casimir_power"):
            u = casimir(basis) ** power
        with span("enveloping.hc_projection"):
            proj = hc_projection(basis, u)
        where = f"{rs.label} Casimir^{power}"
        # invariance under every simple reflection is invariance under W
        for i in range(rs.rank):
            _check(twisted_poly(rs, simple_reflection(rs, i), proj) == proj,
                   f"{where}: projection not dot-invariant under s{i + 1}")
        want = casimir_eigenvalue(rs, lam) ** power
        _check(proj.evaluate(list(lam.coords)) == want,
               f"{where}: value at {lam.coords} is not {want}")
    return Op("hc_projection", rs.label, run)


def _prv_det_op(rs, mu):
    def run(span):
        with span("determinants.prv_det"):
            _det, _lead, spectra = prv_det(rs, mu)
        zero = weight_multiplicity(rs, mu, rs.zero_weight())
        _check(len(spectra) == rs.nroots and
               all(sum(s.values()) == zero for s in spectra.values()),
               f"{rs.label} prv_det {mu.coords}: spectra do not fill the "
               f"zero weight space of dimension {zero}")
    return Op("prv_det", rs.label, run)


def _bruhat_op(u, w, want):
    def run(span):
        with span("weyl.bruhat_leq"):
            got = bruhat_leq(u, w)
        _check(got is want, f"bruhat {u.word} <= {w.word}: {got}")
    return Op("bruhat_leq", "true" if want else "false", run)


def _equivalent_op(rs, p, q):
    def run(span):
        with span("hcmodules.equivalent"):
            ok, w = equivalent(rs, p, q)
        _check(ok and w.twisted(p.lam) == q.lam and w.apply(p.nu) == q.nu,
               f"{rs.label} {p} ~ {q}: no valid witness")
    return Op("equivalent", rs.label, run)


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _permuted(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _balanced(rng, items, k):
    """k items drawn from `items` in turn, so each is drawn equally often,
    in random order."""
    return _permuted(rng, [items[i % len(items)] for i in range(k)])


def module_algebra(seed, count):
    """A seeded mix of `count` explicit-module ops: one op of every family
    and type per block, in random order within the block.

    Where a family's inputs are few enough, its stratum is every input in a
    seeded order, so that runs on different seeds do the same work in a
    different order.  The kprv pairs and the Bruhat targets are samples
    spread evenly from cheap to dear, with Weyl elements drawn equally
    often; the equivalence stratum is a random sample.
    """
    rng = random.Random(seed)
    share = math.ceil(count / MODULE_STRATA)
    strata = []

    for label in KPRV_TYPES:
        rs = build_root_system(label)
        pairs = _stratified(rng, _pairs(rs, KPRV_DIM_CAP), share)
        els = _balanced(rng, enumerate_weyl(rs), len(pairs))
        strata.append([_kprv_op(rs, lam, mu, w)
                       for (lam, mu), w in zip(pairs, els)])

    for label, cap in SHAPOVALOV_HEIGHTS:
        rs = build_root_system(label)
        depths = [(a, b) for a in range(cap + 1) for b in range(cap + 1)
                  if 0 < a + b <= cap]
        strata.append([_shapovalov_op(rs, depth, cap)
                       for depth in _permuted(rng, depths)])

    for label in CASIMIR_TYPES:
        rs = build_root_system(label)
        strata.append(_permuted(rng, [
            _casimir_op(rs, power, Weight(tuple(rng.randint(0, 3)
                                                for _ in range(rs.rank))))
            for power in range(1, CASIMIR_MAX_POWER + 1)
            for _ in range(CASIMIR_POINTS)]))

    for label, cap in PRV_DET_DIM_CAPS:
        rs = build_root_system(label)
        weights = [w for w, _d in dominant_weights_by_dim(rs, cap)
                   if not w.is_zero and rs.root_lattice_coords(w) is not None]
        strata.append([_prv_det_op(rs, mu) for mu in _permuted(rng, weights)])

    rs = build_root_system(BRUHAT_TYPE)
    els = enumerate_weyl(rs)
    by_matrix = {w.matrix: w for w in els}
    by_length = {}
    for w in els:
        by_length.setdefault(w.length, []).append(w)
    targets = sorted((w for w in els if 0 < w.length <= BRUHAT_MAX_LENGTH),
                     key=lambda w: w.length)
    simple = [simple_reflection(rs, i).matrix for i in range(rs.rank)]
    below, incomparable = [], []
    for w in _stratified(rng, targets, share):
        # every subword of a reduced word multiplies to an element below w
        m = from_word(rs, ()).matrix
        for i in w.word:
            if rng.random() < 0.5:
                m = _mat_mul(m, simple[i])
        below.append(_bruhat_op(by_matrix[m], w, True))
        # distinct elements of equal length are incomparable
        u = rng.choice([x for x in by_length[w.length] if x != w])
        incomparable.append(_bruhat_op(u, w, False))
    strata += [below, incomparable]

    for label in EQUIV_TYPES:
        rs = build_root_system(label)
        els = enumerate_weyl(rs)
        ops = []
        for _ in range(share):
            lam = Weight(tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                               for _ in range(rs.rank)))
            nu = Weight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            p = HCParams(lam, nu)
            w = rng.choice(els)
            ops.append(_equivalent_op(rs, p, HCParams(w.twisted(lam),
                                                      w.apply(nu))))
        strata.append(ops)

    assert len(strata) == MODULE_STRATA
    return _stream(rng, strata, count)


WORKLOADS = {"tensor-corpus": tensor_corpus, "module-algebra": module_algebra}
