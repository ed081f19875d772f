"""Weyl group elements as exact integer matrices with canonical reduced words.

An element acts on fundamental-weight coordinates.  The canonical word is the
lexicographically least reduced word, read from the dominant ascent of w(rho),
so composition always yields canonical elements.
The dot action w * lam = w(lam + rho) - rho also names central characters
(``twisted_orbit_id``, ``hc_inf_character``), from the root system alone.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .config import Caps
from .errors import InvariantViolation
from .linalg import identity, mat_mul
from .rootsystem import Weight, RootVector

__all__ = [
    "WeylElement", "identity_element", "simple_reflection", "from_word",
    "enumerate_weyl", "shift_maps", "longest_element",
    "dominant_representative", "double_cosets", "coset_fibers", "bruhat_leq",
    "twisted_orbit_id", "CentralCharacterId", "hc_inf_character",
]


def _simple_matrix(rs, i):
    if not 0 <= i < rs.rank:
        raise ValueError(f"reflection index {i} (s{i + 1}) out of range: "
                         f"{rs.label} has s1..s{rs.rank}")
    n = rs.rank
    return tuple(tuple((1 if j == k else 0) - (rs.cartan[j][i] if k == i else 0)
                       for k in range(n)) for j in range(n))


def _mul(a, b):
    # matrices are dict keys here, so their rows are tuples
    return tuple(map(tuple, mat_mul(a, b)))


@dataclass(frozen=True)
class WeylElement:
    rs: object = field(repr=False, compare=False)
    matrix: tuple
    word: tuple

    @property
    def length(self):
        return len(self.word)

    @property
    def sign(self):
        return -1 if self.length % 2 else 1

    @property
    def is_identity(self):
        return not self.word

    def __mul__(self, other):
        return _from_matrix(self.rs, _mul(self.matrix, other.matrix))

    def inverse(self):
        return from_word(self.rs, reversed(self.word))

    def apply(self, w):
        self.rs.require_rank(w)
        return Weight(tuple(sum(map(mul, row, w)) for row in self.matrix))

    def apply_root(self, rv):
        img = self.apply(self.rs.root_to_weight(rv))
        coords = self.rs.root_lattice_coords(img)
        return RootVector(coords)

    def twisted(self, w):
        """Dot action w * lam = w(lam + rho) - rho."""
        rho = self.rs.rho
        return self.apply(w + rho) - rho

    def inversions(self):
        """Number of positive roots sent negative; equals word length."""
        return sum(not self.apply_root(rv).is_positive
                   for rv in self.rs.positive_roots)

    def __hash__(self):
        return hash(self.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __repr__(self):
        name = "".join(f"s{i + 1}" for i in self.word) or "e"
        return f"WeylElement({self.rs.label}:{name})"


def identity_element(rs):
    return WeylElement(rs, tuple(map(tuple, identity(rs.rank))), ())


def simple_reflection(rs, i):
    return WeylElement(rs, _simple_matrix(rs, i), (i,))


def from_word(rs, word):
    m = identity_element(rs).matrix
    for i in word:
        m = _mul(m, _simple_matrix(rs, i))
    return _from_matrix(rs, m)


def _from_matrix(rs, matrix):
    """Canonical element with the given action matrix.

    The least left descent of w is the least i with (w rho)_i < 0, and it is
    the first letter of the lexicographically least reduced word; so the
    dominant ascent of w rho (the row sums of the matrix, as rho = (1,...,1))
    applies the letters of that word in order.
    """
    top, word = rs.dominant_ascent(tuple(sum(row) for row in matrix))
    if any(c != 1 for c in top):
        raise ValueError("matrix is not a Weyl group element")
    return WeylElement(rs, matrix, tuple(word))


@lru_cache(maxsize=None)
def _enumerate_cached(rs):
    # s_i is the identity but for column i, e_i - alpha_i (alpha_i is
    # column i of the Cartan matrix), so m s_i is m with column i replaced
    # by m e_i - m alpha_i.  The queue is walked in (length, word) order,
    # trying s_1..s_r in turn, so each element is first met through its
    # least reduced word and words fills in (length, word) order unsorted
    eye = identity_element(rs).matrix
    words = {eye: ()}
    queue = [eye]
    for m in queue:  # grows as it goes: one breadth-first pass
        for i, col in enumerate(rs.simple_root_coords):
            prod = tuple([row[:i] + (row[i] - sum(map(mul, row, col)),)
                          + row[i + 1:] for row in m])
            if prod not in words:
                words[prod] = words[m] + (i,)
                queue.append(prod)
    els = [WeylElement(rs, m, w) for m, w in words.items()]
    if len(els) != rs.weyl_group_order:
        raise InvariantViolation(
            f"enumerated {len(els)} elements of W({rs.label}), "
            f"expected {rs.weyl_group_order}")
    return tuple(els)


def enumerate_weyl(rs, caps=Caps()):
    """All Weyl group elements with canonical reduced words, sorted by
    (length, word); the last entry is the longest element."""
    caps.check("max_weyl", rs.weyl_group_order, "|W({})|", rs.label)
    return _enumerate_cached(rs)


@lru_cache(maxsize=None)
def _shift_maps_cached(rs):
    # along the canonical words, whose prefixes are canonical and come
    # first: ws_i(y) - y = (w(s_i y) - s_i y) + (s_i y - y) and
    # s_i y - y = -y_i alpha_i, so S_{ws_i} = S_w s_i - e_i e_i^T, which is
    # S_w with column i replaced
    rank, cartan = rs.rank, rs.cartan
    maps = {(): ((0,) * rank,) * rank}
    out = []
    for w in _enumerate_cached(rs):
        if w.word:
            i = w.word[-1]
            col = [cartan[j][i] for j in range(rank)]
            rows = []
            for r, row in enumerate(maps[w.word[:-1]]):
                row = list(row)
                row[i] -= sum(map(mul, row, col)) + (r == i)
                rows.append(tuple(row))
            maps[w.word] = tuple(rows)
        out.append((w.sign, maps[w.word]))
    return tuple(out)


def shift_maps(rs, caps=Caps()):
    """(sign of w, S_w) for every w of enumerate_weyl(rs, caps), in the same
    order, where S_w is the integer matrix taking fundamental coordinates y
    to the root coordinates of w(y) - y.  Built once per type."""
    enumerate_weyl(rs, caps)
    return _shift_maps_cached(rs)


@lru_cache(maxsize=None)
def longest_element(rs):
    """w_circ, computed without full enumeration: the element sending -rho
    to rho via the deterministic dominance ascent."""
    _, w = dominant_representative(rs, -rs.rho)
    return w


def dominant_representative(rs, lam):
    """(dominant orbit representative, w with w(lam) dominant).

    Deterministic ascent: reflect at the least index with a negative
    coordinate until dominant.
    """
    rs.require_weight(lam)
    dom, word = rs.dominant_ascent(lam.coords)
    return Weight(dom), from_word(rs, reversed(word))


def twisted_orbit_id(rs, lam):
    """Canonical representative of the dot orbit of lam (a Weight)."""
    rs.require_weight(lam)
    return rs.dominant_in_orbit(lam + rs.rho) - rs.rho


@dataclass(frozen=True)
class CentralCharacterId:
    """Canonical dot-orbit representative(s); equal ids, equal characters."""

    parts: tuple  # one coordinate tuple per tensor factor

    def __repr__(self):
        return "chi(" + "; ".join(",".join(map(str, p)) for p in self.parts) + ")"


def hc_inf_character(rs, lam, nu):
    """Infinitesimal character id of the module with parameters (lam, nu):
    the pair chi(lam, nu - lam - 2 rho) up to the componentwise dot action."""
    rs.require_weight(lam, nu)
    if not nu.is_integral:
        raise ValueError("nu must be integral")
    second = nu - lam - 2 * rs.rho
    return CentralCharacterId((twisted_orbit_id(rs, lam).coords,
                               twisted_orbit_id(rs, second).coords))


def _reflect(rs, x, i):
    """s_i on raw fundamental coordinates."""
    c = x[i]
    return tuple(a - c * b for a, b in zip(x, rs.simple_root_coords[i]))


def double_cosets(rs, lam, mu, caps=Caps()):
    """Minimal-length representatives of W_lam \\ W / W_mu for dominant lam
    and mu, in enumerate_weyl's (length, word) order: the w with no left
    descent s_i, (w rho)_i < 0, where lam_i = 0 and no right descent s_j,
    (w^-1 rho)_j < 0, where mu_j = 0 (Bjorner and Brenti, 2.4-2.5)."""
    rs.require_weight(lam, mu)
    if not (lam.is_dominant and mu.is_dominant):
        raise ValueError("double_cosets needs dominant weights")
    return _double_cosets(rs, lam.coords, mu.coords, caps)


def _double_cosets(rs, lam, mu, caps):
    """double_cosets on checked coordinate tuples, for other entry points."""
    left = [i for i, c in enumerate(lam) if c == 0]
    right = [j for j, c in enumerate(mu) if c == 0]
    reps = []
    for w in enumerate_weyl(rs, caps):
        if any(sum(w.matrix[i]) < 0 for i in left):
            continue
        if right:
            y = rs.rho.coords  # w^-1(rho): along w's word, first letter first
            for i in w.word:
                y = _reflect(rs, y, i)
            if any(y[j] < 0 for j in right):
                continue
        reps.append(w)
    return tuple(reps)


def coset_fibers(rs, lam, mu, caps=Caps()):
    """{coords of the dominant representative of lam + w(mu): number of w
    in double_cosets(rs, lam, mu, caps) giving it}; each count bounds the
    multiplicity of that extreme component from below."""
    fibers = {}
    for rep in double_cosets(rs, lam, mu, caps):
        key = rs.dominant_in_orbit(lam + rep.apply(mu)).coords
        fibers[key] = fibers.get(key, 0) + 1
    return fibers


def bruhat_leq(u, w):
    """u <= w in the Bruhat order, by Deodhar's descent test.

    The first letter s of a reduced word of w is a left descent of w, and
    then u <= w iff su <= sw when s is a left descent of u too, (u rho)_s
    < 0, and iff u <= sw when it is not (property Z).  So walk w's
    canonical word on x = u(rho), reflecting where x is negative: u <= w
    iff x ends at rho, as only e lies below e.
    """
    rs = w.rs
    rs.require_same_system(u)
    x = tuple(sum(row) for row in u.matrix)
    for i in w.word:
        if x[i] < 0:
            x = _reflect(rs, x, i)
    return x == rs.rho.coords
