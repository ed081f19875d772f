"""Tensor product decomposition by four independent algorithms.

* character: convolve the formal characters at the dominant weights of the
  product, one W-orbit sum per dominant weight of the factor of smaller
  dimension, then peel highest weights with dominant tables, in the order of
  the table of V(lambda+mu), whose drop order extends dominance;
* steinberg: the signed double sum over the Weyl group through the vector
  partition function;
* klimyk: the one-orbit-per-weight signed count over wt V(mu);
* prv: kernels of raising-operator powers on the weight spaces of the
  smaller factor.

All four must agree; the last method is also exposed pointwise as
:func:`multiplicity`, together with the classifying data (largest/smallest
components, generalized extreme components, minuscule closed form), where a
single component's multiplicity is read at the shallowest of its kernel
expressions.
"""

from operator import add, mul, sub

from .config import METHODS, Caps
from .errors import InvariantViolation
from .rootsystem import Weight
from .weyl import _double_cosets, coset_fibers, longest_element, shift_maps
from .characters import (_char_table, _weyl_dim, dominant_orbit,
                         rho_shifts, signed_partition_sums, table_mult)

__all__ = [
    "Decomposition", "decompose", "decompose_all", "multiplicity",
    "extreme_types", "generalized_prv", "minuscule_decompose",
    "component_tests", "is_minuscule",
]


class Decomposition:
    """Audited map from dominant highest weights to positive multiplicities.

    Construction checks lam and mu (_checked, for checked ones, does not),
    then audits the dimension count, dominance/integrality of the support,
    and the weight-multiplicity upper bound for every entry; the bound reads
    the dominant table of V(mu), built under caps.
    """

    def __init__(self, rs, lam, mu, method, entries, caps=Caps()):
        rs.require_dominant_integral(lam, mu)
        self._audit(rs, lam, mu, method, entries, caps)

    @classmethod
    def _checked(cls, *args):
        self = cls.__new__(cls)
        self._audit(*args)
        return self

    def _audit(self, rs, lam, mu, method, entries, caps):
        self.rs, self.lam, self.mu, self.method = rs, lam, mu, method
        self.entries = {k: v for k, v in entries.items() if v}
        total = 0
        lam_c, mu_c = lam.coords, mu.coords
        table = _char_table(rs, mu_c, caps)
        for coords, m in self.entries.items():
            if m < 0 or type(coords) is not tuple or len(coords) != rs.rank \
                    or not all(isinstance(c, int) and c >= 0 for c in coords):
                raise InvariantViolation(
                    f"bad decomposition entry {coords}: {m}")
            # m_mu(nu - lam) bounds the multiplicity of V(nu)
            cap = table_mult(rs, table, list(map(sub, coords, lam_c)))
            if m > cap:
                raise InvariantViolation(
                    f"multiplicity {m} at {coords} exceeds weight bound {cap}")
            total += m * _weyl_dim(rs, coords)
        if total != _weyl_dim(rs, lam_c) * _weyl_dim(rs, mu_c):
            raise InvariantViolation("decomposition dimension audit failed")

    def mult(self, nu):
        key = nu.coords if isinstance(nu, Weight) else tuple(nu)
        self.rs.require_rank(key)
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return isinstance(other, Decomposition) and self.entries == other.entries

    def to_json(self):
        from .rootsystem import format_weight
        return {
            "lambda": format_weight(self.lam),
            "mu": format_weight(self.mu),
            "method": self.method,
            "entries": {format_weight(Weight(k)): v
                        for k, v in sorted(self.entries.items())},
        }


def _candidates(rs, lam, mu, caps):
    """Coordinates of the dominant nu = lam + mu' over mu' in wt V(mu): every
    component's highest weight has this form, so these are the only
    candidates."""
    lam_c = lam.coords
    out = set()
    for dom in _char_table(rs, mu.coords, caps):
        for mu_c in dominant_orbit(rs, dom):
            nu = tuple(a + b for a, b in zip(lam_c, mu_c))
            if min(nu) >= 0:
                out.add(nu)
    return out


def _char_product(rs, lam, mu, caps):
    """The character of V(lam) (x) V(mu) on its dominant weights, which
    determine it: the product is W-invariant.

    Those weights lie below lam + mu in its root-lattice coset, so they are
    among the dominant weights of V(lam + mu), read from its dominant table:
    the peeling needs that table for its first component anyway.

    The factor of smaller Weyl dimension is read as (orbit, multiplicity)
    pairs, one per dominant weight, and the other through a lookup dict
    expanded for this call: both from the shared orbit memo.
    """
    big, small = (_char_table(rs, w.coords, caps) for w in (lam, mu))
    if _weyl_dim(rs, lam.coords) < _weyl_dim(rs, mu.coords):
        big, small = small, big
    get = {x: m for dom, m in big.items() for x in dominant_orbit(rs, dom)}.get
    small = [(dominant_orbit(rs, dom), m) for dom, m in small.items()]
    out = {}
    for nu in _char_table(rs, tuple(map(add, lam.coords, mu.coords)), caps):
        total = 0
        for orb, m2 in small:
            s = 0
            for x in orb:
                m1 = get(tuple(map(sub, nu, x)))
                if m1:
                    s += m1
            if s:
                total += s * m2
        if total:
            out[nu] = total
    return out


def _decompose_character(rs, lam, mu, caps):
    remaining = _char_product(rs, lam, mu, caps)
    entries = {}
    # remaining comes in the drop order below lam + mu, which extends
    # dominance, and peeling only removes support: one sweep suffices
    for top in list(remaining):
        m = remaining.get(top, 0)
        if m == 0:
            continue
        if m < 0:
            raise InvariantViolation("character peeling left a non-character")
        entries[top] = m
        for c2, m2 in _char_table(rs, top, caps).items():
            left = remaining.get(c2, 0) - m * m2
            if left:
                remaining[c2] = left
            else:
                remaining.pop(c2, None)
    return entries


def _decompose_steinberg(rs, lam, mu, caps):
    # m_nu = sum over w, w' of sgn(w w') p(lam + w'(mu + rho) - w(nu + rho));
    # in root coordinates the argument is the drop lam + mu - nu, plus the
    # shift of w' at mu, minus the shift of w at nu
    maps = shift_maps(rs, caps)
    top = [a + b for a, b in zip(lam.coords, mu.coords)]
    cands = list(_candidates(rs, lam, mu, caps))
    drops = []
    for coords in cands:
        drop = rs.root_lattice_coords(tuple(map(sub, top, coords)))
        drops.extend(tuple(map(sub, drop, shift))
                     for _, shift in rho_shifts(maps, coords))
    sums = signed_partition_sums(rs, rho_shifts(maps, mu.coords), drops)
    signs, n = [sgn for sgn, _ in maps], len(maps)
    entries = {}
    for k, coords in enumerate(cands):
        total = sum(map(mul, signs, sums[k * n:(k + 1) * n]))
        if total:
            entries[coords] = total
    return entries


def _decompose_klimyk(rs, lam, mu, caps):
    shift = [c + 1 for c in lam.coords]   # lam + rho
    entries = {}
    for mu_dom, m in _char_table(rs, mu.coords, caps).items():
        for mu_c in dominant_orbit(rs, mu_dom):
            dom, word = rs.dominant_ascent(
                [a + b for a, b in zip(shift, mu_c)])
            if 0 in dom:
                continue
            key = tuple(c - 1 for c in dom)
            entries[key] = entries.get(key, 0) + (-m if len(word) % 2 else m)
    return {k: v for k, v in entries.items() if v}


def _decompose_extremes(rs, lam, mu, caps):
    from .irreps import _v_extremes_dim
    # work inside the smaller factor
    if _weyl_dim(rs, mu.coords) > _weyl_dim(rs, lam.coords):
        lam, mu = mu, lam
    lam_c, entries = lam.coords, {}
    for coords in _candidates(rs, lam, mu, caps):
        m = _v_extremes_dim(rs, mu, tuple(map(sub, coords, lam_c)), lam_c)
        if m:
            entries[coords] = m
    return entries


def decompose(rs, lam, mu, method="character", caps=Caps()):
    """Decomposition of V(lam) (x) V(mu) by the chosen algorithm."""
    rs.require_dominant_integral(lam, mu)
    if method == "character":
        entries = _decompose_character(rs, lam, mu, caps)
    elif method == "steinberg":
        entries = _decompose_steinberg(rs, lam, mu, caps)
    elif method == "klimyk":
        entries = _decompose_klimyk(rs, lam, mu, caps)
    elif method == "prv":
        entries = _decompose_extremes(rs, lam, mu, caps)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Decomposition._checked(rs, lam, mu, method, entries, caps)


def decompose_all(rs, lam, mu, caps=Caps()):
    """Run all four methods and insist on exact agreement."""
    decs = {m: decompose(rs, lam, mu, m, caps) for m in METHODS}
    first = decs[METHODS[0]].entries
    for m in METHODS[1:]:
        if decs[m].entries != first:
            raise InvariantViolation(
                f"method disagreement on ({lam}, {mu}): "
                f"{METHODS[0]} vs {m}")
    return decs


def multiplicity(rs, lam, mu, nu):
    """Single multiplicity of V(nu) in V(lam) (x) V(mu) without a full
    decomposition, via raising-operator kernels: the two kernel expressions
    (inside V(mu) and inside V(nu)) are both computed and compared."""
    from .irreps import _v_extremes_dim
    rs.require_dominant_integral(lam, mu, nu)
    m1 = _v_extremes_dim(rs, mu, (nu - lam).coords, lam.coords)
    w0 = longest_element(rs)
    m2 = _v_extremes_dim(rs, nu, (lam + w0.apply(mu)).coords,
                         (-w0.apply(mu)).coords)
    if m1 != m2:
        raise InvariantViolation(
            f"extreme-subspace expressions disagree: {m1} != {m2}")
    return m1


def _component_mult(rs, lam, mu, nu):
    """Multiplicity of V(nu) in V(lam) (x) V(mu), on checked weights, by the
    kernel read least far below its module's top: inside V(mu) at nu - lam,
    or inside V(nu) at a + w0(b) for either order (a, b) of the factors; ties
    keep the read inside V(mu)."""
    from .irreps import _v_extremes_dim
    w0 = longest_element(rs)
    reads = [(mu, nu - lam, lam)] + [(nu, a + w0.apply(b), -w0.apply(b))
                                     for a, b in ((lam, mu), (mu, lam))]
    v, g, n = min(reads, key=lambda r: sum(
        rs.root_lattice_coords((r[0] - r[1]).coords)))
    return _v_extremes_dim(rs, v, g.coords, n.coords)


def extreme_types(rs, lam, mu):
    """(largest, smallest) highest weights of the product: lam + mu and the
    dominant representative of lam + w0(mu); both multiplicity one."""
    rs.require_dominant_integral(lam, mu)
    w0 = longest_element(rs)
    cartan, minimal = lam + mu, rs.dominant_in_orbit(lam + w0.apply(mu))
    for comp in (cartan, minimal):
        if _component_mult(rs, lam, mu, comp) != 1:
            raise InvariantViolation(f"extreme component {comp} not simple")
    return cartan, minimal


def generalized_prv(rs, lam, mu, w, caps=Caps(), with_kprv=False):
    """Report on the extreme component attached to w: its multiplicity, read
    inside V(mu) or inside the component, whichever is shallower, the
    double-coset lower bound, and optionally the generated-submodule count,
    whose tensor module past caps.max_dim raises CapExceeded."""
    from .irreps import kprv_multiplicity
    rs.require_dominant_integral(lam, mu)
    rs.require_same_system(w)
    target = rs.dominant_in_orbit(lam + w.apply(mu))
    mult = _component_mult(rs, lam, mu, target)
    bound = coset_fibers(rs, lam, mu, caps)[target.coords]
    if mult < max(1, bound):
        raise InvariantViolation(
            f"extreme component bound violated at {target}: {mult} < {bound}")
    if (lam + w.apply(mu)).is_dominant and mult != 1:
        raise InvariantViolation("dominant extreme component not simple")
    report = {
        "target": target,
        "mult": mult,
        "lower_bound": bound,
        "kprv_mult": None,
    }
    if with_kprv:
        report["kprv_mult"] = kprv_multiplicity(rs, lam, mu, w, caps)
        if report["kprv_mult"] != 1:
            raise InvariantViolation(
                "generated submodule must contain the extreme component once")
    return report


def is_minuscule(rs, mu):
    """wt V(mu) is a single orbit iff <mu, alpha^vee> <= 1 for every
    positive root alpha, mu dominant integral."""
    rs.require_weight(mu)
    return mu.is_integral and mu.is_dominant and _coroots_at_most_one(rs, mu)


def _coroots_at_most_one(rs, mu):
    return all(sum(map(mul, cv, mu.coords)) <= 1 for cv in rs.coroots)


def minuscule_decompose(rs, lam, mu, caps=Caps()):
    """Orbit-sum closed form, valid when mu is minuscule."""
    rs.require_dominant_integral(lam, mu)
    if not _coroots_at_most_one(rs, mu):
        raise ValueError(f"{mu} is not minuscule")
    entries = {}
    for w in dominant_orbit(rs, mu.coords):
        nu = tuple(map(add, lam.coords, w))
        if min(nu) >= 0:
            entries[nu] = entries.get(nu, 0) + 1
    if any(v != 1 for v in entries.values()):
        raise InvariantViolation("minuscule components must be simple")
    count = len(_double_cosets(rs, lam.coords, mu.coords, caps))
    if count != len(entries):
        raise InvariantViolation(
            f"component count {len(entries)} != double coset count {count}")
    return Decomposition._checked(rs, lam, mu, "minuscule", entries, caps)


def component_tests(rs, lam, mu, caps=Caps()):
    """Positivity/equality certificates from root subtraction and from the
    (lam + mu')(h_i) >= -1 condition.

    Returns a report dict: root_subtraction maps each qualifying positive
    root beta to the verified positive multiplicity at lam + mu - beta;
    minus_one_applies tells whether the bound condition holds, in which case
    every multiplicity equals the corresponding weight multiplicity of V(mu)
    (verified).
    """
    rs.require_dominant_integral(lam, mu)
    report = {"root_subtraction": {}, "minus_one_applies": None}
    for k, beta in enumerate(rs.positive_roots):
        beta_w = rs.root_to_weight(beta)
        nu = lam + mu - beta_w
        if not nu.is_dominant:
            continue
        # beta - alpha_i, alpha_i being root rank - 1 - i, is zero or a root
        # (never a negative one) at no i where lam or mu vanishes
        ok = not any((lam[i] == 0 or mu[i] == 0)
                     and (k == rs.rank - 1 - i
                          or rs.root_difference(k, rs.rank - 1 - i))
                     for i in range(rs.rank))
        if ok:
            m = _component_mult(rs, lam, mu, nu)
            if m <= 0:
                raise InvariantViolation(
                    f"root-subtraction component {nu} missing")
            report["root_subtraction"][beta.coeffs] = m
    table = _char_table(rs, mu.coords, caps)
    cond = all(lam[i] + mu_c[i] >= -1 for dom in table
               for mu_c in dominant_orbit(rs, dom) for i in range(rs.rank))
    report["minus_one_applies"] = cond
    if cond:
        dec = Decomposition._checked(
            rs, lam, mu, "character",
            _decompose_character(rs, lam, mu, caps), caps)
        for coords, m in dec.entries.items():
            if m != table_mult(rs, table, list(map(sub, coords, lam.coords))):
                raise InvariantViolation(
                    "saturated multiplicities must equal weight multiplicities")
        report["decomposition"] = dec
    return report
