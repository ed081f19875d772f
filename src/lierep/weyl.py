"""Weyl group elements as exact integer matrices with canonical reduced words.

An element acts on fundamental-weight coordinates.  The canonical word is the
lexicographically least reduced word, read from the dominant ascent of w(rho),
so composition always yields canonical elements.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import mul

from .config import Caps
from .errors import InvariantViolation
from .linalg import identity, mat_mul
from .rootsystem import Weight, RootVector, build_root_system

__all__ = [
    "WeylElement", "identity_element", "simple_reflection", "from_word",
    "enumerate_weyl", "shift_maps", "longest_element", "apply_weyl",
    "twisted_action", "dominant_representative", "double_cosets",
    "bruhat_leq",
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


def _word_matrix(rs, word):
    m = identity_element(rs).matrix
    for i in word:
        m = _mul(m, _simple_matrix(rs, i))
    return m


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
        m = self.matrix
        return Weight(tuple(sum(m[i][j] * w[j] for j in range(len(w)))
                            for i in range(len(m))))

    def apply_root(self, rv):
        img = self.apply(self.rs.root_to_weight(rv))
        coords = self.rs.root_lattice_coords(img)
        return RootVector(coords)

    def twisted(self, w):
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
    return _from_matrix(rs, _word_matrix(rs, word))


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
def _enumerate_cached(label):
    rs = build_root_system(label)
    gens = [_simple_matrix(rs, i) for i in range(rs.rank)]
    eye = identity_element(rs).matrix
    words = {eye: ()}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in sorted(frontier, key=words.__getitem__):
            for i, g in enumerate(gens):
                prod = _mul(m, g)
                if prod not in words:
                    words[prod] = words[m] + (i,)
                    nxt.append(prod)
        frontier = nxt
    els = [WeylElement(rs, m, w) for m, w in words.items()]
    els.sort(key=lambda e: (e.length, e.word))
    if len(els) != rs.weyl_group_order:
        raise InvariantViolation(
            f"enumerated {len(els)} elements of W({label}), "
            f"expected {rs.weyl_group_order}")
    return tuple(els)


def enumerate_weyl(rs, caps=Caps()):
    """All Weyl group elements with canonical reduced words, sorted by
    (length, word); the last entry is the longest element."""
    caps.check("max_weyl", rs.weyl_group_order, f"|W({rs.label})|")
    return _enumerate_cached(rs.label)


@lru_cache(maxsize=None)
def _shift_maps_cached(label):
    # along the canonical words, whose prefixes are canonical and come
    # first: ws_i(y) - y = (w(s_i y) - s_i y) + (s_i y - y) and
    # s_i y - y = -y_i alpha_i, so S_{ws_i} = S_w s_i - e_i e_i^T, which is
    # S_w with column i replaced
    rs = build_root_system(label)
    rank, cartan = rs.rank, rs.cartan
    maps = {(): ((0,) * rank,) * rank}
    out = []
    for w in _enumerate_cached(label):
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
    return _shift_maps_cached(rs.label)


def longest_element(rs):
    """w_circ, computed without full enumeration: the element sending -rho
    to rho via the deterministic dominance ascent."""
    _, w = dominant_representative(rs, -rs.rho)
    return w


def apply_weyl(rs, w, lam):
    if len(lam) != rs.rank:
        raise ValueError("weight dimension does not match rank")
    return w.apply(lam)


def twisted_action(rs, w, lam):
    """Dot action w * lam = w(lam + rho) - rho."""
    return w.twisted(lam)


def dominant_representative(rs, lam):
    """(dominant orbit representative, w with w(lam) dominant).

    Deterministic ascent: reflect at the least index with a negative
    coordinate until dominant.
    """
    dom, word = rs.dominant_ascent(lam.coords)
    return Weight(dom), from_word(rs, reversed(word))


class DoubleCosets:
    """Partition of W into W_lam \\ W / W_mu classes."""

    def __init__(self, reps, classes, stab_left, stab_right):
        self.representatives = reps
        self.classes = classes
        self.stab_left = stab_left
        self.stab_right = stab_right

    def __len__(self):
        return len(self.representatives)


def double_cosets(rs, lam, mu, caps=Caps()):
    """Double cosets for the stabilizers of lam and mu, minimal-length
    (then word-lexicographic) representatives."""
    els = enumerate_weyl(rs, caps)
    stab_l = [w for w in els if w.apply(lam) == lam]
    stab_r = [w for w in els if w.apply(mu) == mu]
    remaining = {w.matrix: w for w in els}
    reps, classes = [], []
    for w in els:  # already sorted by (length, word)
        if w.matrix not in remaining:
            continue
        cls = set()
        for a in stab_l:
            am = _mul(a.matrix, w.matrix)
            for b in stab_r:
                cls.add(_mul(am, b.matrix))
        for m in cls:
            remaining.pop(m, None)
        reps.append(w)
        classes.append(frozenset(cls))
    return DoubleCosets(reps, classes, stab_l, stab_r)


@lru_cache(maxsize=None)
def _bruhat_cached(label, word_big, word_small):
    rs = build_root_system(label)
    k = len(word_small)
    if k > len(word_big):
        return False
    if k == len(word_big):
        return word_big == word_small
    target = _word_matrix(rs, word_small)
    return any(_word_matrix(rs, (word_big[p] for p in pos)) == target
               for pos in combinations(range(len(word_big)), k))


def bruhat_leq(u, w):
    """Bruhat order test via the subword property on w's canonical word."""
    return _bruhat_cached(u.rs.label, w.word, u.word)
