from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from lierep.config import Caps
from lierep.errors import CapExceeded
from lierep.rootsystem import Weight, build_root_system
from lierep.weyl import enumerate_weyl, longest_element
from lierep.characters import (dominant_weight_table, weyl_dimension,
                               freudenthal_multiplicity)
from lierep.enveloping import casimir_eigenvalue
from lierep.irreps import (TensorModule, generated_submodule,
                           highest_weight_count, kprv_multiplicity, realize,
                           v_extremes, v_extremes_dim, verma_engine,
                           zero_weight_spectrum)

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


def test_dimensions_match_weight_table(rs):
    lam = rs.rho
    real = realize(rs, lam)
    assert real.dimension == weyl_dimension(rs, lam)
    table = dominant_weight_table(rs, lam)
    for dom, mult in table.items():
        assert real.weight_dim(Weight(dom)) == mult


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
        nb = len(real.weights[wc])
        for i in range(rs.rank):
            delta = rs.simple_root_weight(i)
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
            wc = (Weight(wc) - a2.simple_root_weight(i)).coords
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
    eng = verma_engine(a2, Weight((3, 2)))
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


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_blocks_solve_their_pivot_gram_systems(label):
    # every e_i/f_i block of V(mu), dim <= 64: column s is the solution of
    # G_PP x = G_P. (op column s), P the pivot columns of the target level's
    # Gram matrix G, both found by the Fraction reference elimination
    rs = build_root_system(label)
    for coords in product(range(64), repeat=rs.rank):
        mu = Weight(coords)
        if weyl_dimension(rs, mu) > 64:
            continue
        real = realize(rs, mu)
        eng = verma_engine(rs, mu)
        pivots = {}
        for wc in real.weights:
            beta = rs.root_lattice_coords(mu - Weight(wc))
            pivots[wc] = reference_echelon(eng.gram(beta))[1]
            assert real.weights[wc] == [eng.level(beta)[0][p]
                                        for p in pivots[wc]]
        for wc in real.weights:
            beta = rs.root_lattice_coords(mu - Weight(wc))
            for i in range(rs.rank):
                k = rs.root_index[rs.simple_root(i).coeffs]
                root = rs.positive_roots[k].coeffs
                delta = rs.simple_root_weight(i)
                for mats, sign, op_of in ((real.e_mats, -1, eng.e_matrix),
                                          (real.f_mats, 1, eng.f_matrix)):
                    tgt = (Weight(wc) - sign * delta).coords
                    if tgt not in real.weights:
                        assert (i, wc) not in mats
                        continue
                    op = op_of(k, beta)
                    gram = eng.gram(tuple(b + sign * r
                                          for b, r in zip(beta, root)))
                    tp = pivots[tgt]
                    rhs = [[sum(gram[p][t] * op[t][s] for t in range(len(op)))
                            for s in pivots[wc]] for p in tp]
                    gp = [[gram[p][q] for q in tp] for p in tp]
                    assert mats[(i, wc)] == reference_solve(gp, rhs), \
                        (label, coords, wc, i)
