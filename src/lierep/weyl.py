"""Weyl group elements as exact integer matrices with canonical reduced words.

An element acts on fundamental-weight coordinates.  The canonical word is the
lexicographically least reduced word, recovered from the matrix by greedy
left-descent peeling, so composition always yields canonical elements.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .config import Caps
from .errors import InvariantViolation
from .rootsystem import Weight, RootVector, build_root_system

__all__ = [
    "WeylElement", "identity_element", "simple_reflection", "from_word",
    "enumerate_weyl", "longest_element", "apply_weyl", "twisted_action",
    "dominant_representative", "double_cosets", "bruhat_leq",
]


def _simple_matrix(rs, i):
    n = rs.rank
    return tuple(tuple((1 if j == k else 0) - (rs.cartan[j][i] if k == i else 0)
                       for k in range(n)) for j in range(n))


def _mat_mul_int(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                 for r in range(n))


def _root_sign(rs, weight_coords):
    """+1/-1 according to whether the root with these fundamental coordinates
    is positive; raises KeyError if not a root."""
    key = tuple(weight_coords)
    if key in rs.root_weight_index:
        return 1
    if tuple(-x for x in key) in rs.root_weight_index:
        return -1
    raise KeyError(key)


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
        return _from_matrix(self.rs, _mat_mul_int(self.matrix, other.matrix))

    def inverse(self):
        if not self.word:
            return self
        inv = identity_element(self.rs).matrix
        for i in reversed(self.word):
            inv = _mat_mul_int(inv, _simple_matrix(self.rs, i))
        return _from_matrix(self.rs, inv)

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
        count = 0
        for rv in self.rs.positive_roots:
            if _root_sign(self.rs, self.apply(self.rs.root_to_weight(rv)).coords) < 0:
                count += 1
        return count

    def __hash__(self):
        return hash(self.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __repr__(self):
        name = "".join(f"s{i + 1}" for i in self.word) or "e"
        return f"WeylElement({self.rs.label}:{name})"


def identity_element(rs):
    n = rs.rank
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return WeylElement(rs, eye, ())


def simple_reflection(rs, i):
    if not 0 <= i < rs.rank:
        raise ValueError(f"reflection index {i} out of range")
    return WeylElement(rs, _simple_matrix(rs, i), (i,))


def from_word(rs, word):
    m = identity_element(rs).matrix
    for i in word:
        m = _mat_mul_int(m, _simple_matrix(rs, i))
    return _from_matrix(rs, m)


def _from_matrix(rs, matrix):
    """Canonical element with the given action matrix.

    Greedy peeling: the least i with w^{-1}(alpha_i) negative is the first
    letter of the lexicographically least reduced word; recurse on s_i w.
    """
    n = rs.rank
    # maintain v = w^{-1} acting on weight coordinates
    # start from matrix inverse, which is an integer matrix for Weyl elements
    v = _int_inverse(matrix)
    m = matrix
    word = []
    while True:
        desc = None
        for i in range(n):
            alpha_wc = rs.root_weight_coords[rs.root_index[rs.simple_root(i).coeffs]]
            img = tuple(sum(v[r][c] * alpha_wc[c] for c in range(n)) for r in range(n))
            if _root_sign(rs, img) < 0:
                desc = i
                break
        if desc is None:
            break
        s = _simple_matrix(rs, desc)
        word.append(desc)
        m = _mat_mul_int(s, m)
        v = _mat_mul_int(v, s)
    if any(m[i][j] != int(i == j) for i in range(n) for j in range(n)):
        raise ValueError("matrix is not a Weyl group element")
    return WeylElement(rs, matrix, tuple(word))


def _int_inverse(matrix):
    from .linalg import mat_inv
    inv = mat_inv([list(r) for r in matrix])
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not a Weyl group element")
            irow.append(x.numerator)
        out.append(tuple(irow))
    return tuple(out)


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
                prod = _mat_mul_int(m, g)
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
            am = _mat_mul_int(a.matrix, w.matrix)
            for b in stab_r:
                cls.add(_mat_mul_int(am, b.matrix))
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
    target = from_word(rs, word_small).matrix
    for pos in combinations(range(len(word_big)), k):
        sub = tuple(word_big[p] for p in pos)
        if from_word(rs, sub).matrix == target:
            return True
    return False


def bruhat_leq(u, w):
    """Bruhat order test via the subword property on w's canonical word."""
    return _bruhat_cached(u.rs.label, w.word, u.word)
