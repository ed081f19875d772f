"""Acceptance suite: every promised property, runnable as a corpus.

Each criterion is a function returning a CheckResult; `run` executes a
selection and is shared by the CLI selftest command and the pytest
acceptance module.  All checks are exact; failures carry a counterexample
description.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as iproduct
from operator import ge, mul

from .rootsystem import Weight, build_root_system, dominance_hull_equiv
from .weyl import (bruhat_leq, coset_fibers, enumerate_weyl, hc_inf_character,
                   longest_element, twisted_orbit_id)
from .characters import (dominant_drops, dominant_orbit,
                         freudenthal_multiplicity, weight_drops,
                         weyl_dimension)
from .enveloping import (casimir, casimir_eigenvalue, chevalley_basis,
                         hc_projection, twisted_poly)
from .hpoly import HPoly
from .irreps import (TensorModule, generated_submodule, highest_weight_count,
                     realize, v_extremes, v_extremes_dim)
from .tensor import decompose, decompose_all, extreme_types
from .centralchar import sl2_omega
from .determinants import DetPolynomial, prv_det, shapovalov_det
from .hcmodules import (HCParams, class_zero, equivalent, finite_dimensional,
                        invariants, isoclass_count)

__all__ = ["CheckResult", "run", "CRITERIA"]

METHOD_TYPES = ("A1", "A2", "B2", "G2")
PRODUCT_DIM_CAP = 2000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class CheckFailure(Exception):
    pass


def _fail(msg):
    raise CheckFailure(msg)


# -- corpus helpers ---------------------------------------------------------

def dominant_weights_by_dim(rs, dim_cap):
    """All dominant integral weights with dim V <= dim_cap, by coordinate
    scan with monotone pruning."""
    out = []

    def rec(prefix):
        k = len(prefix)
        if k == rs.rank:
            d = weyl_dimension(rs, Weight(prefix))
            if d <= dim_cap:
                out.append((Weight(prefix), d))
            return
        c = 0
        while True:
            probe = prefix + (c,) + (0,) * (rs.rank - k - 1)
            if weyl_dimension(rs, Weight(probe)) > dim_cap:
                break
            rec(prefix + (c,))
            c += 1

    rec(())
    out.sort(key=lambda t: (t[1], t[0].coords))
    return out


@lru_cache(maxsize=None)
def _pair_corpus(label, dim_cap):
    rs = build_root_system(label)
    ws = dominant_weights_by_dim(rs, dim_cap)
    pairs = []
    for i, (lam, dl) in enumerate(ws):
        for mu, dm in islice(ws, i + 1):
            if dl * dm > dim_cap:
                break  # ws is sorted by dimension: no later mu qualifies
            pairs.append((lam, mu))
    return pairs


@lru_cache(maxsize=None)
def _corpus_decomposition(label, lam_coords, mu_coords):
    rs = build_root_system(label)
    decs = decompose_all(rs, Weight(lam_coords), Weight(mu_coords))
    return decs["character"]


# -- criteria ---------------------------------------------------------------

def check_clebsch_gordan():
    """sl2: V(lam) (x) V(mu) = V(lam+mu) + V(lam+mu-2) + ... + V(lam-mu)."""
    rs = build_root_system("A1")
    count = 0
    for lam in range(21):
        for mu in range(lam + 1):
            dec = decompose(rs, Weight((lam,)), Weight((mu,)), "character")
            want = {(k,): 1 for k in range(lam - mu, lam + mu + 1, 2)}
            if dec.entries != want:
                _fail(f"CG failed at ({lam},{mu}): {dec.entries}")
            count += 1
    return f"{count} pairs exact"


def check_method_agreement():
    """character == steinberg == klimyk == extremes on the full corpus."""
    total = 0
    for label in METHOD_TYPES:
        for lam, mu in _pair_corpus(label, PRODUCT_DIM_CAP):
            _corpus_decomposition(label, lam.coords, mu.coords)
            total += 1
    return f"{total} pairs, 4 methods each"


def check_extreme_subspace_identity():
    """Both kernel expressions for each multiplicity, plus the +/- symmetry,
    on every triple from the agreement corpus."""
    triples = 0
    for label in METHOD_TYPES:
        rs = build_root_system(label)
        w0 = longest_element(rs)
        for lam, mu in _pair_corpus(label, PRODUCT_DIM_CAP):
            dec = _corpus_decomposition(label, lam.coords, mu.coords)
            small = mu if weyl_dimension(rs, mu) <= weyl_dimension(rs, lam) \
                else lam
            big = lam if small is mu else mu
            real = realize(rs, small)
            for nu_c, m in dec.entries.items():
                nu = Weight(nu_c)
                m1 = v_extremes_dim(rs, small, nu - big, big)
                m2 = v_extremes_dim(rs, nu, big + w0.apply(small),
                                    -w0.apply(small))
                if not (m == m1 == m2):
                    _fail(f"{label} ({lam},{mu})->{nu}: {m} {m1} {m2}")
                gamma = nu - big
                plus, _ = v_extremes(rs, real, gamma, big, "+")
                minus, _ = v_extremes(rs, real, w0.apply(gamma),
                                      -w0.apply(big), "-")
                if plus != m or minus != m:
                    _fail(f"{label} symmetry at ({lam},{mu})->{nu}: "
                          f"{plus} vs {minus} vs {m}")
                triples += 1
    return f"{triples} triples exact"


def check_extreme_components_bound():
    """Every Weyl translate target occurs with multiplicity at least
    max(1, coset fiber); dominant targets are simple."""
    checked = 0
    for label in METHOD_TYPES:
        rs = build_root_system(label)
        els = enumerate_weyl(rs)
        for lam, mu in _pair_corpus(label, PRODUCT_DIM_CAP):
            dec = _corpus_decomposition(label, lam.coords, mu.coords)
            for t, bound in coset_fibers(rs, lam, mu).items():
                m = dec.entries.get(t, 0)
                if m < max(1, bound):
                    _fail(f"{label} ({lam},{mu}) target {t}: "
                          f"mult {m} < bound {bound}")
            for w in els:
                tgt = rs.dominant_in_orbit(lam + w.apply(mu))
                if (lam + w.apply(mu)).is_dominant \
                        and dec.entries.get(tgt.coords, 0) != 1:
                    _fail(f"{label} dominant target {tgt} not simple")
            checked += 1
    return f"{checked} pairs, all Weyl translates"


def _count_at(tensor, spans, eta):
    span = spans.get(eta.coords)
    return highest_weight_count(tensor, span.rows if span else [], eta)


def check_generated_submodules():
    """Generated-submodule multiplicities are 1; submodules grow along the
    Bruhat order; for regular pairs the target appears first at w."""
    count = 0
    for label in ("A1", "A2"):
        rs = build_root_system(label)
        els = enumerate_weyl(rs)
        for lam, mu in _pair_corpus(label, 100):
            real1 = realize(rs, lam)
            real2 = realize(rs, mu)
            tensor = TensorModule(rs, real1, real2)
            spans = {}
            for w in els:
                spans[w] = generated_submodule(
                    tensor, [tensor.extremal_vector(w)])
                eta = rs.dominant_in_orbit(lam + w.apply(mu))
                got = _count_at(tensor, spans[w], eta)
                if got != 1:
                    _fail(f"{label} ({lam},{mu}) w={w.word}: count {got}")
                count += 1
            for u in els:
                for w in els:
                    if u is w or not bruhat_leq(u, w):
                        continue
                    for wc, span_u in spans[u].items():
                        big = spans[w].get(wc)
                        if big is None or not all(
                                big.contains(row) for row in span_u.rows):
                            _fail(f"{label} ({lam},{mu}): submodule "
                                  f"{u.word} not inside {w.word}")
            regular = all(c > 0 for c in lam.coords) and \
                all(c > 0 for c in mu.coords)
            if regular:
                for u in els:
                    for w in els:
                        if u is not w and bruhat_leq(u, w):
                            eta = rs.dominant_in_orbit(lam + w.apply(mu))
                            if _count_at(tensor, spans[u], eta):
                                _fail(f"{label} ({lam},{mu}): {eta} occurs "
                                      f"early at {u.word} < {w.word}")
    return f"{count} generated-submodule counts"


def check_rank2_multiplicity_two():
    """Some Weyl translate of (rho, rho) in rank 2 has multiplicity >= 2."""
    found = []
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        rho = rs.rho
        dec = decompose(rs, rho, rho, "character")
        hits = []
        for w in enumerate_weyl(rs):
            t = rs.dominant_in_orbit(rho + w.apply(rho))
            m = dec.entries.get(t.coords, 0)
            if m >= 2:
                hits.append((w.word, t.coords, m))
        if not hits:
            _fail(f"{label}: no extreme component of multiplicity >= 2")
        found.append(f"{label}:{hits[0]}")
    return "; ".join(found)


HULL_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3")


def _drop_span(rs, w):
    """Root coordinates of w - w0(w): the box holding every drop of V(w)."""
    return rs.root_lattice_coords(w - longest_element(rs).apply(w))


def _support(rs, coords):
    """The support function of conv(W w), w dominant with coordinates
    coords, at each fundamental weight varpi_i: max over x in W w of
    (x, varpi_i), scaled by form_den.  conv(W mu) lies in conv(W lam) iff
    mu's values are at most lam's: on the dominant chamber both functions
    are linear, and the varpi_i span it."""
    orbit = dominant_orbit(rs, coords)
    return tuple(max(sum(map(mul, x, row)) for x in orbit)
                 for row in rs.form_num)


def check_weight_identities():
    """wt(V(lam) (x) V(mu)) = wt V(lam+mu), and the dominance<->hull
    equivalence, over the coordinate-bounded grid in rank <= 3.

    The hull side is read from the orbits (_support), not from the root
    coordinates that the dominance side reads.

    Containment of the product weight set in wt V(lam+mu) is structural
    (weights of each factor drop from the highest weight by nonnegative root
    sums); the content verified here is that every dominant weight below
    lam+mu splits as a sum of weights of the two factors.
    """
    bound = 4
    pairs_checked = 0
    for label in HULL_TYPES:
        rs = build_root_system(label)
        grid = [Weight(c) for c in iproduct(range(bound + 1), repeat=rs.rank)]
        pairs = [(a, b) for k, a in enumerate(grid) for b in grid[k + 1:]]
        support = {w.coords: _support(rs, w.coords) for w in grid}
        for lam, mu in pairs:
            dom = dominance_hull_equiv(rs, lam, mu)[0]
            hull = all(map(ge, support[lam.coords], support[mu.coords]))
            if rs.root_lattice_coords(lam - mu) is not None and dom != hull:
                _fail(f"{label} dominance/hull split at ({lam},{mu})")
            if dom and not hull:
                _fail(f"{label} dominance without hull at ({lam},{mu})")
        drops = {w.coords: weight_drops(rs, w.coords) for w in grid}
        below = {}  # top -> dominant_drops(rs, top), shared by equal sums
        for lam in grid:
            for mu in grid:
                if mu.coords > lam.coords:
                    continue
                top = (lam + mu).coords
                if top not in below:
                    below[top] = dominant_drops(rs, top)
                bad = _sum_cover_gap(rs, lam, mu, drops, below[top])
                if bad is not None:
                    _fail(f"{label} weight-set identity fails at "
                          f"({lam},{mu}): {bad}")
                pairs_checked += 1
    return f"{pairs_checked} pairs, grid bound {bound}"


def _split_drop(dd, mu_span, ratio, mu_drops, lam_drops):
    """Find z with z a drop of V(mu) and dd - z a drop of V(lam); tries the
    proportional point, then a small neighbourhood, then everything."""
    rank = len(dd)

    def ok(z):
        return (z in mu_drops
                and tuple(a - b for a, b in zip(dd, z)) in lam_drops)

    z0 = tuple(min(mu_span[i], round(dd[i] * ratio)) for i in range(rank))
    seen = {z0}
    frontier = [z0]
    for _ in range(4):  # small BFS radius around the proportional point
        for z in frontier:
            if ok(z):
                return True
        nxt = []
        for z in frontier:
            for i in range(rank):
                for dz in (1, -1):
                    z2 = z[:i] + (z[i] + dz,) + z[i + 1:]
                    if z2 not in seen:
                        seen.add(z2)
                        nxt.append(z2)
        frontier = nxt
    goal = sum(dd) * ratio
    return any(ok(z) for z in sorted(
        mu_drops, key=lambda z: (abs(sum(z) - goal), z)))


def _sum_cover_gap(rs, lam, mu, drops, below):
    """First dominant weight of V(lam+mu) that fails to split as a sum of
    factor weights, or None; drops maps each factor to its weight_drops and
    below lists the dominant_drops of lam+mu."""
    mu_span = _drop_span(rs, mu)
    mu_ht = sum(mu_span)
    ratio = mu_ht / max(1, sum(_drop_span(rs, lam)) + mu_ht)
    for dd, nu in below:
        if not _split_drop(dd, mu_span, ratio, drops[mu.coords],
                           drops[lam.coords]):
            return nu
    return None


def check_shapovalov_determinants():
    """Gram determinant equals the level product formula up to a nonzero
    scalar; depth-2 rank-one value is 2h(h-1)."""
    checked = 0
    for label, cap in (("A1", 6), ("A2", 4)):
        rs = build_root_system(label)
        depths = []
        if rs.rank == 1:
            depths = [(k,) for k in range(cap + 1)]
        else:
            depths = [(a, b) for a in range(cap + 1) for b in range(cap + 1)
                      if a + b <= cap]
        for beta in depths:
            direct = shapovalov_det(rs, beta, "direct", cap)
            formula = shapovalov_det(rs, beta, "formula", cap)
            ratio = direct.ratio_to(formula)
            if sum(beta) == 0:
                if direct.expand() != HPoly.constant(rs.rank, 1):
                    _fail(f"{label} empty depth determinant wrong")
                continue
            if ratio is None or ratio == 0:
                _fail(f"{label} depth {beta}: direct/formula not a scalar")
            checked += 1
    rs = build_root_system("A1")
    d2 = shapovalov_det(rs, (2,), "direct").expand()
    want = HPoly(1, {(2,): 2, (1,): -2})  # 2h(h-1)
    if d2 != want:
        _fail(f"depth-2 rank-one determinant is {d2}")
    return f"{checked} depths, scalar-exact"


def check_zero_weight_determinants():
    """Rank-one zero-weight determinant reduces to the falling factorial
    c * h(h-1)...(h-mu/2+1), with spectra concentrated at j = mu/2."""
    rs = build_root_system("A1")
    for mu in range(0, 13, 2):
        det, lead, spectra = prv_det(rs, Weight((mu,)))
        spec = spectra[(1,)]
        if mu == 0:
            if spec != {0: 1}:
                _fail(f"mu=0 spectrum {spec}")
            continue
        if {j: m for j, m in spec.items() if j > 0} != {mu // 2: 1}:
            _fail(f"mu={mu}: spectrum {spec} not concentrated at mu/2")
        want = DetPolynomial(1, 1, tuple(
            ((1,), -t, 1) for t in range(mu // 2)))
        ratio = det.ratio_to(want)
        if ratio is None or ratio == 0:
            _fail(f"mu={mu}: determinant {det.expand()} is not "
                  f"c*h(h-1)...(h-{mu // 2 - 1})")
        if lead.degree() != 1:
            _fail(f"mu={mu}: leading product degree {lead.degree()}")
    # odd highest weights have no zero weight space
    det, lead, spectra = prv_det(rs, Weight((3,)))
    if spectra or det.expand() != HPoly.constant(1, 1):
        _fail("odd mu should give the empty determinant")
    return "even mu <= 12 exact, odd mu empty"


def check_omega_homomorphism():
    """Rank-one key homomorphism on the three Casimirs: computed projections
    match the closed forms, and at nu = 0 land in the dot-invariant ring."""
    hb2 = HPoly(2, {(2, 0): 1, (1, 0): 2})            # hbar^2 + 2 hbar
    h12 = HPoly(2, {(0, 2): 1, (0, 1): 2})            # h1^2 + 2 h1
    mixed = HPoly(2, {(2, 0): 1, (1, 0): -2, (1, 1): -2, (0, 2): 1, (0, 1): 2})
    for n1 in range(0, 6):
        for n2 in range(0, n1 + 1):
            lam, nu = Weight((n1,)), Weight((n1 - n2,))
            res = sl2_omega(lam, nu)
            if res.polys["delta1"] != h12 or res.polys["delta_bar"] != hb2 \
                    or res.polys["delta2"] != mixed:
                _fail(f"projected polynomials wrong at ({n1},{n2})")
            if res.values["delta1"] != n1 * n1 + 2 * n1:
                _fail(f"delta1 value at ({n1},{n2})")
            if res.values["delta2"] != n2 * n2 + 2 * n2:
                _fail(f"delta2 value at ({n1},{n2}): {res.values['delta2']}")
            nu_v = n1 - n2
            if res.values["delta_bar"] != nu_v * nu_v + 2 * nu_v:
                _fail(f"delta_bar value at ({n1},{n2})")
    res = sl2_omega(Weight((0,)), Weight((0,)))
    for name in ("delta1", "delta2", "delta_bar"):
        if not res.dot_invariant(name, 0):
            _fail(f"{name} not dot-invariant at nu=0")
        p = res.restricted(name, 0)
        # membership in C[h^2+2h]: quadratic part a*(h^2+2h) + const
        a = p.terms.get((0, 2), 0)
        residue = p - HPoly(2, {(0, 2): a, (0, 1): 2 * a})
        if residue.degree() > 0:
            _fail(f"{name} at nu=0 outside the invariant ring")
    if res.restricted("delta1", 0).degree() != 2:
        _fail("nu=0 values fail to generate the invariant ring")
    return "closed forms and nu=0 ring membership exact"


def check_central_characters():
    """Casimir eigenvalues and constancy along dot orbits, powers <= 3."""
    rs1 = build_root_system("A1")
    cb1 = chevalley_basis(rs1)
    delta1 = casimir(cb1)
    beta1 = hc_projection(cb1, delta1)
    for z in range(-3, 6):
        if beta1.evaluate([z]) != z * z + 2 * z:
            _fail(f"rank-one Casimir eigenvalue at z={z}")
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label)
        cb = chevalley_basis(rs)
        delta = casimir(cb)
        power = delta
        for k in range(1, 4):
            proj = hc_projection(cb, power)
            for w in enumerate_weyl(rs):
                if twisted_poly(rs, w, proj) != proj:
                    _fail(f"{label} Casimir^{k} projection not dot-invariant"
                          f" under {w.word}")
            sample = Weight(tuple(range(1, rs.rank + 1)))
            base = proj.evaluate(list(sample.coords))
            for w in enumerate_weyl(rs):
                if proj.evaluate(list(w.twisted(sample).coords)) != base:
                    _fail(f"{label} Casimir^{k} not constant on a dot orbit")
            if k < 3:
                power = power * delta
        ev = casimir_eigenvalue(rs, rs.rho)
        if hc_projection(cb, delta).evaluate([1] * rs.rank) != ev:
            _fail(f"{label} eigenvalue mismatch at rho")
    return "eigenvalues and dot-orbit constancy, powers <= 3"


def _grid_params(rs, n):
    """Deterministic (lam, nu) grid with n points, mixing integral and
    fractional first coordinates."""
    pts = []
    vals = [0, 1, -1, 2, Fraction(1, 2), -2, Fraction(-3, 2), 3]
    nus = [0, 1, -1, 2, -2, 3]
    i = 0
    while len(pts) < n:
        lam = tuple(vals[(i + k) % len(vals)] for k in range(rs.rank))
        nu = tuple(nus[(i * (k + 2) + k) % len(nus)] for k in range(rs.rank))
        pts.append(HCParams(Weight(lam), Weight(nu)))
        i += 1
    return pts


def check_module_classification():
    """Equivalence-relation laws on a 200-point grid, the rank-one mirror
    witness, finite-dimensional consistency, class-zero saturation, and the
    isomorphism-class counts."""
    for label in ("A1", "A2"):
        rs = build_root_system(label)
        els = enumerate_weyl(rs)
        grid = _grid_params(rs, 200 // 2)
        for p in grid:
            ok, w = equivalent(rs, p, p)
            if not ok or not w.is_identity:
                _fail(f"{label} reflexivity fails at {p}")
        for p in grid[:40]:
            for w in els[:4]:
                q = HCParams(w.twisted(p.lam), w.apply(p.nu))
                ok1, w1 = equivalent(rs, p, q)
                ok2, w2 = equivalent(rs, q, p)
                if not (ok1 and ok2):
                    _fail(f"{label} symmetry fails at {p}")
                r = HCParams(w2.twisted(q.lam), w2.apply(q.nu))
                okt, _ = equivalent(rs, p, r)
                if not okt:
                    _fail(f"{label} transitivity fails at {p}")
                ip, iq = invariants(rs, p), invariants(rs, q)
                if ip.minimal_type != iq.minimal_type \
                        or ip.inf_char != iq.inf_char:
                    _fail(f"{label} invariants not equivalence-invariant")
    rs = build_root_system("A1")
    for lam in (Fraction(1, 3), 2, -1, Fraction(5, 2)):
        for nu in (0, 1, 3, -2):
            p = HCParams(Weight((lam,)), Weight((nu,)))
            q = HCParams(Weight((-lam - 2,)), Weight((-nu,)))
            ok, _ = equivalent(rs, p, q)
            if not ok:
                _fail(f"rank-one mirror witness fails at ({lam},{nu})")
    # finite-dimensional members: minimal type and infinitesimal character
    for label in ("A1", "A2"):
        rs = build_root_system(label)
        w0 = longest_element(rs)
        grid = [Weight(c) for c in iproduct(range(3), repeat=rs.rank)]
        for lam in grid:
            for mu in grid:
                nu = lam + w0.apply(mu)
                p = HCParams(lam, nu)
                fd = finite_dimensional(rs, p)
                if fd is None:
                    _fail(f"{label} ({lam},{mu}) not recognised")
                if fd[1] != mu:
                    _fail(f"{label} recovered wrong second weight")
                _, minimal = extreme_types(rs, lam, mu)
                if minimal != rs.dominant_in_orbit(nu):
                    _fail(f"{label} minimal type mismatch")
                want = (twisted_orbit_id(rs, lam).coords,
                        twisted_orbit_id(rs, mu).coords)
                if hc_inf_character(rs, lam, nu).parts != want:
                    _fail(f"{label} infinitesimal character mismatch")
        # non-integral lam is never finite-dimensional
        bad = HCParams(Weight((Fraction(1, 2),) * rs.rank),
                       Weight((0,) * rs.rank))
        if finite_dimensional(rs, bad) is not None:
            _fail(f"{label} fractional parameter accepted")
    # class zero: completeness criterion and saturated multiplicities
    for label in ("A1", "A2"):
        rs = build_root_system(label)
        if not class_zero(rs, -1 * rs.rho)["complete"]:
            _fail(f"{label}: -rho must be complete")
        if class_zero(rs, rs.rho)["complete"]:
            _fail(f"{label}: dominant integral cannot be complete")
        frac = Weight((Fraction(1, 3),) * rs.rank)
        if not class_zero(rs, frac)["complete"]:
            _fail(f"{label}: generic fractional must be complete")
        for n in range(0, 5):
            lam = n * rs.rho
            rep = class_zero(rs, lam)
            dec = rep["mults"]
            if dec.entries.get((0,) * rs.rank, 0) != 1:
                _fail(f"{label} n={n}: trivial type multiplicity != 1")
            for nu_c, m in dec.entries.items():
                nu = Weight(nu_c)
                if rs.root_lattice_coords(nu) is None:
                    _fail(f"{label} n={n}: component off the root lattice")
                expect = v_extremes_dim(rs, nu, rs.zero_weight(), lam)
                if m != expect:
                    _fail(f"{label} n={n} at {nu}: {m} != kernel {expect}")
                full = freudenthal_multiplicity(rs, nu, rs.zero_weight())
                saturated = (expect == full)
                jmax = _zero_weight_jmax(rs, nu)
                if jmax is not None and (jmax <= n) != saturated:
                    _fail(f"{label} n={n} at {nu}: saturation mismatch")
    # isomorphism-class counts
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label)
        if isoclass_count(rs, rs.rho, 2 * rs.rho) != rs.weyl_group_order:
            _fail(f"{label} regular pair must give |W| classes")
        if isoclass_count(rs, rs.zero_weight(), rs.rho) != 1:
            _fail(f"{label} zero weight must give one class")
    rs = build_root_system("A2")
    if isoclass_count(rs, Weight((1, 0)), Weight((0, 1))) != 2:
        _fail("A2 fundamental pair coset count")
    return "grid laws, mirror witness, class-zero, coset counts exact"


def _zero_weight_jmax(rs, nu):
    """Largest root-string eigenvalue index on V(nu)_0 over the simple
    roots, or None when V(nu)_0 = 0: the largest j in the simple-root
    spectra of ``determinants.prv_det``."""
    spectra = prv_det(rs, nu)[2]
    if not spectra:
        return None
    # root indices 0..rank-1 are the simple roots
    return max(max(spectra[rv.coeffs]) for rv in rs.positive_roots[:rs.rank])


CRITERIA = (
    ("clebsch-gordan", check_clebsch_gordan),
    ("method-agreement", check_method_agreement),
    ("extreme-subspace-identity", check_extreme_subspace_identity),
    ("extreme-components-bound", check_extreme_components_bound),
    ("generated-submodules", check_generated_submodules),
    ("rank2-multiplicity-two", check_rank2_multiplicity_two),
    ("weight-identities", check_weight_identities),
    ("shapovalov-determinants", check_shapovalov_determinants),
    ("zero-weight-determinants", check_zero_weight_determinants),
    ("omega-homomorphism", check_omega_homomorphism),
    ("central-characters", check_central_characters),
    ("module-classification", check_module_classification),
)


def run(names=None, stream=None):
    """Execute the acceptance criteria (all by default); returns results.
    An unknown name raises ValueError before any criterion runs."""
    unknown = sorted(set(names or ()) - {name for name, _ in CRITERIA})
    if unknown:
        raise ValueError(f"unknown criteria {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(name for name, _ in CRITERIA)}")
    selected = [c for c in CRITERIA if names is None or c[0] in names]
    results = []
    for name, fn in selected:
        t0 = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except CheckFailure as exc:
            detail = str(exc)
            passed = False
        dt = time.perf_counter() - t0
        results.append(CheckResult(name, passed, detail, dt))
        if stream is not None:
            status = "PASS" if passed else "FAIL"
            print(f"{status} {name} ({dt:.1f}s): {detail}", file=stream)
    return results
