from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from lierep.config import Caps
from lierep.errors import CapExceeded
from lierep import characters, irreps
from lierep.rootsystem import RootSystem, Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element
from lierep.characters import (character_of, dominant_weight_table,
                               weyl_dimension, freudenthal_multiplicity)
from lierep.enveloping import casimir_eigenvalue
from lierep.irreps import (TensorModule, VermaEngine, _generated_above,
                           _module, generated_submodule, highest_weight_count,
                           kprv_multiplicity, realize, v_extremes,
                           v_extremes_dim, zero_weight_spectrum)
from lierep.linalg import mat_mul, nullity, rank
from lierep.tensor import decompose

from oracles import power_rows_by_step_walk
from test_linalg import reference_echelon, reference_solve


def test_trivial_module(rs):
    real = realize(rs, rs.zero_weight())
    assert real.dimension == 1
    assert real.e_mats == {} and real.f_mats == {}


def test_sl2_matches_divided_power_action(a1):
    # with v_{n-2i} = f^i/i! v_n the generators act as
    # e v_{n-2i} = (n-i+1) v_{n-2i+2}, f v_{n-2i} = (i+1) v_{n-2i-2};
    # the realization uses plain powers f^i, so conjugate by i!.
    n = 5
    real = realize(a1, Weight((n,)))
    for i in range(n + 1):
        wc = (n - 2 * i,)
        if i < n:
            fm = real.f_mats[(0, wc)]
            # f . (f^i v) = f^{i+1} v: paper coefficient (i+1) after scaling
            scaled = fm[0][0] * factorial(i + 1) / factorial(i)
            assert scaled == i + 1
        if i > 0:
            em = real.e_mats[(0, wc)]
            scaled = em[0][0] * factorial(i - 1) / factorial(i)
            assert scaled == n - i + 1


def _module_set():
    """(system, mu) for every mu with coordinates <= 7 and dim V(mu) <= 400
    in A2, B2 and G2, <= 200 in A3 and B3."""
    out = []
    for label, cap in (("A2", 400), ("B2", 400), ("G2", 400), ("A3", 200),
                       ("B3", 200)):
        rs = build_root_system(label)
        out += [(rs, Weight(c)) for c in product(range(8), repeat=rs.rank)
                if weyl_dimension(rs, Weight(c)) <= cap]
    return out


def test_generator_matrices_are_integral():
    # the f-words' Z-span is stable under every e_i and f_i, so its Hermite
    # basis carries integer e_i/f_i blocks, also where the f-word basis had
    # none (146 of these 173 modules)
    modules = _module_set()
    assert len(modules) == 173
    for rs, mu in modules:
        real = realize(rs, mu)
        for mats in (real.e_mats, real.f_mats):
            assert all(type(x) is int for m in mats.values()
                       for row in m for x in row), (rs.label, mu)


def test_dimensions_match_weight_table(rs):
    lam = rs.rho
    real = realize(rs, lam)
    assert real.dimension == weyl_dimension(rs, lam)
    table = dominant_weight_table(rs, lam)
    for dom, mult in table.items():
        assert real.weight_dim(Weight(dom)) == mult


def test_realize_pins_no_character():
    # an uninterned system, so that V(2,1) is realized here for the first
    # time; realizing it, expanding its character and peeling its square
    # keep one orbit per dominant weight and one table per highest weight,
    # and no full character
    rs = RootSystem("A", 2)
    memos = {name: f for name, f in vars(characters).items()
             if hasattr(f, "cache_info")}
    before = {name: f.cache_info().currsize for name, f in memos.items()}
    lam = Weight((2, 1))
    assert realize(rs, lam).dimension == 15
    assert character_of(rs, lam).total() == 15
    dec = decompose(rs, lam, lam, "character")
    grown = {name: f.cache_info().currsize - before[name]
             for name, f in memos.items()}
    assert grown.pop("dominant_orbit") \
        <= len(dominant_weight_table(rs, lam))
    # V(2,1), V(4,2) for the product, and each component peeled
    tops = {lam.coords, (lam + lam).coords, *dec.entries}
    assert grown.pop("_dominant_table_fast") == len(tops)
    assert all(n == 0 for n in grown.values()), grown


def test_a2_fundamental_dimension(a2):
    assert realize(a2, Weight((1, 0))).dimension == 3


def test_serre_relations_on_realization(rs):
    lam = rs.rho
    real = realize(rs, lam)

    def matmul(a, b):
        if not a or not b:
            return []
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    for wc in real.weights:
        nb = real.weight_dim(wc)
        for i in range(rs.rank):
            delta = Weight(rs.simple_root_coords[i])
            fm = real.f_mats.get((i, wc))
            em_lo = real.e_mats.get((i, (Weight(wc) - delta).coords))
            ef = matmul(em_lo, fm) if fm and em_lo else None
            em = real.e_mats.get((i, wc))
            fm_hi = real.f_mats.get((i, (Weight(wc) + delta).coords))
            fe = matmul(fm_hi, em) if em and fm_hi else None
            for r in range(nb):
                for c in range(nb):
                    lhs = (ef[r][c] if ef else 0) - (fe[r][c] if fe else 0)
                    assert lhs == (wc[i] if r == c else 0)


def test_highest_vector_killed_and_radical_generators_vanish(a2):
    lam = Weight((2, 1))
    real = realize(a2, lam)
    top = lam.coords
    for i in range(2):
        assert (i, top) not in real.e_mats
    # f_i^{lam(h_i)+1} annihilates the highest vector in the quotient
    for i in range(2):
        wc = top
        vec = [Fraction(1)]
        alive = True
        for _ in range(lam[i] + 1):
            fm = real.f_mats.get((i, wc))
            if fm is None:
                alive = False
                break
            vec = [sum(fm[r][c] * vec[c] for c in range(len(vec)))
                   for r in range(len(fm))]
            wc = (Weight(wc) - Weight(a2.simple_root_coords[i])).coords
        assert not alive or all(x == 0 for x in vec)


def _casimir_block_matrix(rs, real, wcoords):
    """2*(h-part + sum_k d_k (2 f_k e_k + h_k)) restricted to one block."""
    from lierep.linalg import mat_inv
    gamma = Weight(wcoords)
    n = real.weight_dim(gamma)
    rank = rs.rank
    bmat = [[Fraction(rs.cartan[i][j], rs.sym[j]) for j in range(rank)]
            for i in range(rank)]
    binv = mat_inv(bmat)
    h_part = sum(binv[j][i] * gamma[j] * gamma[i]
                 for i in range(rank) for j in range(rank))
    acc = [[Fraction(2) * h_part if r == c else Fraction(0)
            for c in range(n)] for r in range(n)]
    for k in range(rs.nroots):
        d_k = Fraction(rs.root_norms[k], 2)
        diag = 2 * d_k * rs.pairing(gamma, k)
        for r in range(n):
            acc[r][r] += diag
        em, tgt = real.root_vector_matrix("e", k, wcoords)
        if not em:
            continue
        fm, _ = real.root_vector_matrix("f", k, tgt)
        if not fm:
            continue
        for r in range(n):
            for c in range(n):
                acc[r][c] += 4 * d_k * sum(
                    fm[r][t] * em[t][c] for t in range(len(em)))
    return acc


def test_casimir_scalar_on_every_block(a2, b2):
    for rsys, lam_c in ((a2, (1, 1)), (b2, (1, 0))):
        lam = Weight(lam_c)
        real = realize(rsys, lam)
        expect = casimir_eigenvalue(rsys, lam)
        for wcoords in real.weights:
            block = _casimir_block_matrix(rsys, real, wcoords)
            n = len(block)
            for r in range(n):
                for c in range(n):
                    assert block[r][c] == (expect if r == c else 0), \
                        (rsys.label, wcoords)


def test_cap(a2):
    with pytest.raises(CapExceeded):
        realize(a2, Weight((10, 10)), Caps(max_dim=100))


def test_extreme_subspace_trivial(rs):
    lam = rs.rho
    real = realize(rs, lam)
    dim, basis = v_extremes(rs, real, lam, rs.zero_weight())
    assert dim == 1 and len(basis) == 1


def test_extreme_subspace_clebsch_example(a1):
    # the middle component of V(2) (x) V(1)
    assert v_extremes_dim(a1, Weight((1,)), Weight((-1,)), Weight((2,))) == 1
    real = realize(a1, Weight((1,)))
    assert v_extremes(a1, real, Weight((-1,)), Weight((2,)))[0] == 1


def test_extreme_subspace_outside_the_module_is_zero(a2):
    # gamma above mu, and gamma off mu's root-lattice coset
    mu = Weight((1, 1))
    for gamma in (Weight((2, 2)), Weight((1, 0))):
        assert v_extremes_dim(a2, mu, gamma, Weight((0, 0))) == 0


def test_extreme_subspace_symmetry(a2):
    w0 = longest_element(a2)
    mu = Weight((1, 1))
    real = realize(a2, mu)
    for gamma_c in [(0, 0), (1, 1), (-1, 2), (2, -1), (1, -2)]:
        for nu_c in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            gamma, nu = Weight(gamma_c), Weight(nu_c)
            plus = v_extremes(a2, real, gamma, nu, "+")[0]
            minus = v_extremes(a2, real, w0.apply(gamma), -w0.apply(nu),
                               "-")[0]
            assert plus == minus
            assert plus == v_extremes_dim(a2, mu, gamma, nu)


def test_verma_gram_positive_at_dominant(a2):
    eng = VermaEngine(a2, Weight((3, 2)))
    # radical vanishes strictly below the first wall crossings
    assert eng.radical_dim((1, 0)) == 0
    assert eng.radical_dim((1, 1)) == 0


def test_zero_weight_spectrum_sl2(a1):
    for n in (2, 4, 6):
        real = realize(a1, Weight((n,)))
        spec, msum = zero_weight_spectrum(a1, real, 0)
        assert spec == {n // 2: 1} and msum == 1
    real = realize(a1, Weight((3,)))
    assert zero_weight_spectrum(a1, real, 0) == ({}, 0)


def test_zero_weight_spectrum_a2_adjoint(a2):
    real = realize(a2, Weight((1, 1)))
    for k in range(a2.nroots):
        spec, msum = zero_weight_spectrum(a2, real, k)
        assert spec == {0: 1, 1: 1} and msum == 1


def test_zero_weight_spectrum_sums_to_dimension(g2):
    real = realize(g2, Weight((0, 1)))
    d0 = freudenthal_multiplicity(g2, Weight((0, 1)), Weight((0, 0)))
    for k in range(g2.nroots):
        spec, _ = zero_weight_spectrum(g2, real, k)
        assert sum(spec.values()) == d0


def test_generated_submodule_identity_gives_cartan_component(a1):
    els = enumerate_weyl(a1)
    assert kprv_multiplicity(a1, Weight((2,)), Weight((1,)), els[0]) == 1


def test_kprv_rejects_a_foreign_element(a2, b2):
    with pytest.raises(ValueError, match="different root systems"):
        kprv_multiplicity(a2, a2.rho, a2.rho, longest_element(b2))


def test_generated_submodule_longest_is_everything(a1):
    lam, mu = Weight((2,)), Weight((1,))
    w0 = longest_element(a1)
    real1 = realize(a1, lam)
    real2 = realize(a1, mu)
    tensor = TensorModule(a1, real1, real2)
    spans = generated_submodule(tensor, [tensor.extremal_vector(w0)])
    assert sum(s.dim for s in spans.values()) == tensor.dimension
    assert kprv_multiplicity(a1, lam, mu, w0) == 1


def test_generated_submodule_a2_reflection(a2):
    rho = Weight((1, 1))
    w = enumerate_weyl(a2)[1]  # s1
    assert kprv_multiplicity(a2, rho, rho, w) == 1


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_triangular_route_matches_full_closure(label):
    # the kprv corpus (tensor dimension <= 100), every Weyl element: at every
    # weight >= eta the e-then-f closure spans what the full closure spans,
    # and the count at eta is the full closure's
    from lierep.selfcheck import _pair_corpus
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    for lam, mu in _pair_corpus(label, 100):
        tensor = TensorModule(rs, realize(rs, lam), realize(rs, mu))
        for w in els:
            eta = rs.dominant_in_orbit(lam + w.apply(mu))
            seed = tensor.extremal_vector(w)
            full = generated_submodule(tensor, [seed])
            part = _generated_above(tensor, seed, eta)
            above = [wc for wc in full if min(
                rs.root_lattice_coords(Weight(wc) - eta)) >= 0]
            assert sorted(part) == sorted(above)
            for wc in above:
                assert part[wc].dim == full[wc].dim
                assert all(full[wc].contains(row) for row in part[wc].rows)
                assert all(part[wc].contains(row) for row in full[wc].rows)
            assert highest_weight_count(tensor, part[eta.coords].rows,
                                        eta) == \
                highest_weight_count(tensor, full[eta.coords].rows, eta)
            assert kprv_multiplicity(rs, lam, mu, w) == 1


@pytest.mark.parametrize("label, lam, mu", [("A2", (3, 3), (3, 3)),
                                            ("B2", (2, 2), (1, 1))])
def test_kprv_on_large_tensor_products(label, lam, mu):
    # tensor dimensions 4,096 and 1,296, past the reach of the full closure
    rs = build_root_system(label)
    lam, mu = Weight(lam), Weight(mu)
    for w in enumerate_weyl(rs):
        assert kprv_multiplicity(rs, lam, mu, w, Caps(max_dim=100000)) == 1


def test_closure_rows_keep_small_entries(a2):
    # the closure at w0 reaches the zero weight, the largest block; the
    # cost of every insertion and of the count grows with the row entries
    lam = Weight((3, 3))
    caps = Caps(max_dim=100000)
    real = realize(a2, lam, caps)
    tensor = TensorModule(a2, real, real, caps)
    w0 = longest_element(a2)
    eta = a2.dominant_in_orbit(lam + w0.apply(lam))
    spans = _generated_above(tensor, tensor.extremal_vector(w0), eta)
    assert eta.coords in spans
    assert all(len(str(abs(x))) <= 10 for span in spans.values()
               for row in span.rows for x in row)


def test_generated_submodule_containment(a2):
    from lierep.weyl import bruhat_leq
    lam = mu = Weight((1, 1))
    real = realize(a2, lam)
    tensor = TensorModule(a2, real, real)
    els = enumerate_weyl(a2)
    spans = {w: generated_submodule(tensor, [tensor.extremal_vector(w)])
             for w in els}
    for u in els:
        for w in els:
            if bruhat_leq(u, w):
                for wc, span in spans[u].items():
                    target = spans[w].get(wc)
                    assert target is not None
                    for row in span.rows:
                        assert target.contains(row)


class VermaQuotient:
    """The Verma-level model of V(mu) that the builder replaced: M(mu) modulo
    the radical of its Gram matrix, with the pivot monomials of each level as
    basis.  A block of e_alpha/f_alpha is column s -> the solution x of
    G_PP x = G_P. (op column s), P the pivot columns of the target level's
    Gram matrix G, found by the Fraction reference elimination."""

    def __init__(self, rs, mu):
        self.rs = rs
        self.mu = mu
        self.eng = VermaEngine(rs, mu)
        self._pivots = {}
        self._blocks = {}

    def depth(self, wc):
        beta = self.rs.root_lattice_coords(self.mu - Weight(wc))
        return beta if beta is not None and min(beta) >= 0 else None

    def pivots(self, wc):
        if wc not in self._pivots:
            beta = self.depth(wc)
            self._pivots[wc] = [] if beta is None else \
                reference_echelon(self.eng.gram(beta))[1]
        return self._pivots[wc]

    def block(self, kind, k, wc):
        """(matrix, target coords); the matrix is [] off the module."""
        if (kind, k, wc) not in self._blocks:
            self._blocks[(kind, k, wc)] = self._solve(kind, k, wc)
        return self._blocks[(kind, k, wc)]

    def _solve(self, kind, k, wc):
        rs, eng = self.rs, self.eng
        beta = self.depth(wc)
        root = rs.positive_roots[k].coeffs
        sign = -1 if kind == "e" else 1
        tgt_beta = tuple(b + sign * r for b, r in zip(beta, root))
        tgt = (self.mu - rs.root_to_weight(tgt_beta)).coords
        if min(tgt_beta) < 0 or not self.pivots(tgt):
            return [], tgt
        op = (eng.e_matrix if kind == "e" else eng.f_matrix)(k, beta)
        gram = eng.gram(tgt_beta)
        tp = self.pivots(tgt)
        rhs = [[sum(gram[p][t] * op[t][s] for t in range(len(op)))
                for s in self.pivots(wc)] for p in tp]
        return reference_solve([[gram[p][q] for q in tp] for p in tp],
                               rhs), tgt


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _basis_vectors(rs, real, oracle):
    """P_w for every block: the columns are the realization's basis vectors
    at w in the oracle's pivot-monomial coordinates, found top down.  The
    candidates f_i b, b in the basis at w + alpha_i, are the columns of
    C_w = P_w F_w, C_w from the oracle's f-blocks and the P above, F_w the
    realization's f-blocks into w side by side, of full row rank; so P_w
    solves C_w = P_w F_w on independent columns of F_w, and C_w = P_w F_w
    is checked on all of them."""
    change = {}
    for wc in sorted(real.weights, key=lambda wc: sum(oracle.depth(wc))):
        if wc == real.highest.coords:
            change[wc] = [[Fraction(1)]]
            continue
        cands, fblocks = [], []
        for i in range(rs.rank):
            up = tuple(x + a for x, a in zip(wc, rs.simple_root_coords[i]))
            if (i, up) in real.f_mats:
                k = rs.root_index[rs.root_lattice_coords(
                    Weight(rs.simple_root_coords[i]))]
                cands.append(_matmul(oracle.block("f", k, up)[0], change[up]))
                fblocks.append(real.f_mats[(i, up)])
        c = [sum(rows, []) for rows in zip(*cands)]
        f = [sum(rows, []) for rows in zip(*fblocks)]
        cols = reference_echelon(f)[1]
        assert len(cols) == len(f)
        p = reference_solve([[row[j] for row in f] for j in cols],
                            [[row[j] for row in c] for j in cols])
        change[wc] = [list(row) for row in zip(*p)]
        assert _matmul(change[wc], f) == c, wc
    return change


def _small_weights(rs, cap):
    return [Weight(c) for c in product(range(cap), repeat=rs.rank)
            if weyl_dimension(rs, Weight(c)) <= cap]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_blocks_solve_their_pivot_gram_systems(label):
    # every e_alpha/f_alpha block of V(mu), dim <= 64, alpha any positive
    # root, is the oracle's block (the solution of its pivot Gram system)
    # written in the realization's basis: with P_w its basis vectors at w in
    # pivot-monomial coordinates, of full rank,
    # oracle block . P_w = P_tgt . block
    rs = build_root_system(label)
    for mu in _small_weights(rs, 64):
        real = realize(rs, mu)
        oracle = VermaQuotient(rs, mu)
        change = _basis_vectors(rs, real, oracle)
        for wc, p in change.items():
            assert len(oracle.pivots(wc)) == len(p) == rank(p)
        for wc in real.weights:
            for k in range(rs.nroots):
                for kind in ("e", "f"):
                    old, tgt = oracle.block(kind, k, wc)
                    new, _ = real.root_vector_matrix(kind, k, wc)
                    if tgt not in real.weights:
                        assert not old and not new
                        continue
                    assert _matmul(old, change[wc]) == \
                        _matmul(change[tgt], new), (label, mu, wc, kind, k)


def _op(rs, real, kind, i, wc):
    """Matrix of e_i/f_i from the block at wc, zero when the pair is absent,
    and the target coords."""
    a = rs.simple_root_coords[i]
    tgt = tuple(x + (y if kind == "e" else -y) for x, y in zip(wc, a))
    mat = (real.e_mats if kind == "e" else real.f_mats).get((i, wc))
    if mat is None:
        mat = [[0] * real.weight_dim(wc) for _ in range(real.weight_dim(tgt))]
    return mat, tgt


def _word(rs, real, word, wc):
    """Matrix of a product of generators, applied in the order listed."""
    n = real.weight_dim(wc)
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    for kind, i in word:
        step, wc = _op(rs, real, kind, i, wc)
        mat = _matmul(step, mat) if step and mat else \
            [[0] * n for _ in range(real.weight_dim(wc))]
    return mat, wc


def _check_relations(rs, real):
    """[e_i, f_j] = delta_ij <nu, alpha_i^vee> and both Serre relations
    (ad x_i)^{1 - a_ij} x_j = 0 on every block."""
    for wc in real.weights:
        n = real.weight_dim(wc)
        for i in range(rs.rank):
            for j in range(rs.rank):
                ef, tgt = _word(rs, real, [("f", j), ("e", i)], wc)
                fe, _ = _word(rs, real, [("e", i), ("f", j)], wc)
                for r in range(real.weight_dim(tgt)):
                    for c in range(n):
                        want = wc[i] if i == j and r == c else 0
                        assert ef[r][c] - fe[r][c] == want, (wc, i, j)
                if i == j:
                    continue
                top = 1 - rs.simple_root_coords[j][i]
                for kind in ("e", "f"):
                    total = None
                    for t in range(top + 1):
                        word = [(kind, i)] * t + [(kind, j)] + \
                            [(kind, i)] * (top - t)
                        mat, _ = _word(rs, real, word, wc)
                        sgn = (-1) ** t * comb(top, t)
                        total = [[sgn * x for x in row] for row in mat] \
                            if total is None else \
                            [[a + sgn * x for a, x in zip(ra, rm)]
                             for ra, rm in zip(total, mat)]
                    assert all(x == 0 for row in total for x in row), \
                        (wc, kind, i, j)


def _oracle_spectrum(rs, oracle, k, jmax):
    zero = (0,) * rs.rank
    d0 = len(oracle.pivots(zero))
    em, tgt = oracle.block("e", k, zero)
    if not em:
        return {0: d0}
    fe = _matmul(oracle.block("f", k, tgt)[0], em)
    spec = {}
    for j in range(jmax + 1):
        m = nullity([[fe[r][c] - (j * (j + 1) if r == c else 0)
                      for c in range(d0)] for r in range(d0)], d0)
        if m:
            spec[j] = m
    return spec


_SAMPLE = {"A3": [(1, 0, 1), (0, 2, 0), (0, 1, 2)],
           "B3": [(0, 1, 0), (2, 0, 0), (0, 0, 2)],
           "C3": [(0, 1, 0), (2, 0, 0), (1, 0, 1)]}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_builder_against_verma_oracle(label):
    # blocks match the dominant table, the defining relations hold on every
    # block, and every positive root's zero-weight spectrum is the Verma
    # quotient's: every mu of dim <= 64 in rank 2, a sample in rank 3
    rs = build_root_system(label)
    mus = [Weight(c) for c in _SAMPLE[label]] if label in _SAMPLE \
        else _small_weights(rs, 64)
    for mu in mus:
        real = realize(rs, mu)
        for dom, mult in dominant_weight_table(rs, mu).items():
            for wc in rs.orbit_coords(dom):
                assert real.weight_dim(wc) == mult
        _check_relations(rs, real)
        if (0,) * rs.rank not in real.weights:
            continue
        oracle = VermaQuotient(rs, mu)
        jmax = max(abs(rs.pairing(Weight(wc), k)) for wc in real.weights
                   for k in range(rs.nroots)) // 2
        for k in range(rs.nroots):
            spec, _ = zero_weight_spectrum(rs, real, k)
            assert spec == _oracle_spectrum(rs, oracle, k, jmax), \
                (label, mu, k)


def _verma_extremes_dim(eng, rs, gamma, nu):
    """The Verma-level count: dim{x in M(mu)_beta : e_i^{nu_i+1} x in the
    radical for all i} minus the radical dimension at beta."""
    beta = rs.root_lattice_coords(eng.mu - gamma)
    if beta is None or min(beta) < 0:
        return 0
    stacked = []
    for i in range(rs.rank):
        k = rs.root_index[rs.root_lattice_coords(
                    Weight(rs.simple_root_coords[i]))]
        root = rs.positive_roots[k].coeffs
        if any(b < (nu[i] + 1) * r for b, r in zip(beta, root)):
            continue  # e_i^{nu_i+1} walks off the top of M(mu): the zero map
        em, b = None, beta
        for _ in range(nu[i] + 1):
            step = eng.e_matrix(k, b)
            em = step if em is None else _matmul(step, em)
            b = tuple(x - r for x, r in zip(b, root))
        stacked.extend(_matmul(eng.gram(b), em))
    return nullity(stacked, eng.level_dim(beta)) - eng.radical_dim(beta)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_v_extremes_dim_against_verma_levels(label):
    # both kernel expressions of each candidate multiplicity, on every
    # seventh corpus pair whose smaller factor has dimension <= 27
    from lierep.selfcheck import PRODUCT_DIM_CAP, _pair_corpus
    from lierep.tensor import _candidates
    rs = build_root_system(label)
    w0 = longest_element(rs)
    pairs = [(lam, mu) for lam, mu in _pair_corpus(label, PRODUCT_DIM_CAP)
             if weyl_dimension(rs, mu) <= 27][::7]
    engines = {}

    def verma(mu):
        return engines.setdefault(mu.coords, VermaEngine(rs, mu))

    assert pairs
    for lam, mu in pairs:
        for coords in _candidates(rs, lam, mu, Caps()):
            nu = Weight(coords)
            for args in ((mu, nu - lam, lam),
                         (nu, lam + w0.apply(mu), -w0.apply(mu))):
                assert v_extremes_dim(rs, *args) == \
                    _verma_extremes_dim(verma(args[0]), rs, *args[1:]), \
                    (label, lam, mu, nu)


def test_v_extremes_dim_builds_only_what_it_needs(g2):
    # a shallow gamma in a large V(mu) builds only the blocks above gamma
    mu = Weight((7, 5))
    gamma = mu - Weight(g2.simple_root_coords[0]) \
        - Weight(g2.simple_root_coords[1])
    assert v_extremes_dim(g2, mu, gamma, Weight((0, 0))) == 0
    real = _module(g2, mu)
    assert real.dimension is None
    assert sorted(real._built) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sorted(real.weights) == sorted(
        (mu - g2.root_to_weight(b)).coords for b in real._built)


def test_power_rows_match_the_step_walk(monkeypatch):
    # both routes, for both signs, on every block that the v_extremes and
    # v_extremes_dim tests above hand to _power_rows
    fast, seen = irreps._power_rows, []

    def both(rs, real, key, nu, sign):
        for s in "+-":
            assert fast(rs, real, key, nu, s) == \
                power_rows_by_step_walk(rs, real, key, nu, s), (key, nu, s)
        seen.append(key)
        return fast(rs, real, key, nu, sign)

    monkeypatch.setattr(irreps, "_power_rows", both)
    for label in ("A1", "A2", "B2", "G2"):
        test_extreme_subspace_trivial(build_root_system(label))
        test_v_extremes_dim_against_verma_levels(label)
    a1, a2, g2 = (build_root_system(x) for x in ("A1", "A2", "G2"))
    test_extreme_subspace_clebsch_example(a1)
    test_extreme_subspace_symmetry(a2)
    test_v_extremes_dim_builds_only_what_it_needs(g2)
    assert len(seen) > 1000


def test_power_rows_multiply_only_chains_that_complete(monkeypatch, a2):
    # a chain is multiplied out, one product per step after the first, only
    # when the weight it ends at is a weight of the module
    real = realize(a2, Weight((2, 1)))
    products = []

    def counted(a, b):
        products.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(irreps, "mat_mul", counted)
    leaving = 0
    for key in real.weights:
        for nu in product(range(3), repeat=2):
            for sign in (1, -1):
                products.clear()
                irreps._power_rows(a2, real, key, nu, "+" if sign > 0 else "-")
                complete = 0
                for i, a in enumerate(a2.simple_root_coords):
                    end = tuple(x + sign * (nu[i] + 1) * y
                                for x, y in zip(key, a))
                    if end in real.weights:
                        complete += nu[i]
                    else:
                        leaving += 1
                assert len(products) == complete, (key, nu, sign)
    assert leaving > 100


def test_former_outliers(g2):
    b3 = build_root_system("B3")
    for rs, lam, mu, cap in ((g2, (3, 3), (2, 2), 100000),
                             (b3, (1, 1, 1), (1, 1, 1), 1000000)):
        lam, mu, caps = Weight(lam), Weight(mu), Caps(max_dim=cap)
        assert decompose(rs, lam, mu, "prv", caps).entries == \
            decompose(rs, lam, mu, "klimyk", caps).entries
    real = realize(g2, Weight((2, 2)), Caps(max_dim=1000))
    assert real.dimension == 729
    for dom, mult in dominant_weight_table(g2, Weight((2, 2))).items():
        for wc in g2.orbit_coords(dom):
            assert real.weight_dim(wc) == mult


def _apply_simple_reference(tensor, kind, i, wcoords, vec):
    """TensorModule.apply_simple as it was, on Weight arithmetic with the
    target index rebuilt on each call."""
    rs = tensor.rs
    delta = Weight(rs.simple_root_coords[i])
    tgt = (Weight(wcoords) + delta).coords if kind == "e" else \
        (Weight(wcoords) - delta).coords
    blk = tensor.blocks.get(tgt)
    if blk is None:
        return None
    out = [Fraction(0)] * len(blk)
    src = tensor.blocks[wcoords]
    tindex = {q: t for t, q in enumerate(blk)}
    for pos, c in enumerate(vec):
        if c == 0:
            continue
        w1, i1, w2, i2 = src[pos]
        mats = tensor.r1.e_mats if kind == "e" else tensor.r1.f_mats
        m1 = mats.get((i, w1))
        if m1:
            t1 = (Weight(w1) + delta).coords if kind == "e" else \
                (Weight(w1) - delta).coords
            for r in range(len(m1)):
                if m1[r][i1]:
                    out[tindex[(t1, r, w2, i2)]] += c * m1[r][i1]
        mats = tensor.r2.e_mats if kind == "e" else tensor.r2.f_mats
        m2 = mats.get((i, w2))
        if m2:
            t2 = (Weight(w2) + delta).coords if kind == "e" else \
                (Weight(w2) - delta).coords
            for r in range(len(m2)):
                if m2[r][i2]:
                    out[tindex[(w1, i1, t2, r)]] += c * m2[r][i2]
    return tgt, out


def _apply_unscaled(tensor, kind, i, wcoords, vec):
    """TensorModule._apply, the action on integer generator matrices."""
    return tensor._apply(kind, i, wcoords, vec)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_apply_simple_against_reference(label):
    # the kprv corpus (tensor dimension <= 100), every Weyl element: every
    # vector of each generated submodule, under every e_i and f_i
    from lierep.selfcheck import _pair_corpus
    rs = build_root_system(label)
    els = enumerate_weyl(rs)
    for lam, mu in _pair_corpus(label, 100):
        tensor = TensorModule(rs, realize(rs, lam), realize(rs, mu))
        for w in els:
            spans = generated_submodule(tensor, [tensor.extremal_vector(w)])
            for wc, span in spans.items():
                for vec in span.rows:
                    for kind in ("e", "f"):
                        for i in range(rs.rank):
                            assert _apply_unscaled(tensor, kind, i, wc,
                                                   vec) == \
                                _apply_simple_reference(tensor, kind, i, wc,
                                                        vec)
