"""Sparse exact polynomials in the coroot coordinates h_1..h_n.

Coefficients, scalars and values pass ``rootsystem._num`` (TypeError unless
an int or a ``Fraction``), and exponents must be ints.  Products, affine
substitution, determinants and evaluation scale their inputs to integers
once, by the lcm of the denominators, work on ints, and make one
``Fraction`` per output term.

``.terms`` is keyed by exponent tuples.  Inside the arithmetic a monomial is
one packed int, exponent j as digit j in a base above every exponent
reached.  One packing step (``_pack``) and one product (``_mul_packed``)
serve all five callers: ``HPoly`` products and powers and
``determinants.DetPolynomial.expand``, all three through ``product``;
``substitute_affine`` (the dot action of ``enveloping.twisted_poly``); and
``det_poly``.  Each unpacks its result once.
"""

from fractions import Fraction
from operator import mul

from .linalg import _integral
from .rootsystem import _num


class HPoly:
    """Polynomial with int or Fraction coefficients, keyed by exponent
    tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                c = _num(c)
                if c != 0:
                    self.terms[tuple(exps)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, coeff=1):
        exps = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, {exps: coeff})

    @classmethod
    def linear(cls, coeffs, const=0):
        n = len(coeffs)
        terms = {(0,) * n: const}
        for i, c in enumerate(coeffs):
            terms[tuple(int(j == i) for j in range(n))] = c
        return cls(n, terms)

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        _same_ring(self.nvars, other)
        return HPoly(self.nvars, _add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        _same_ring(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return HPoly(self.nvars, out)

    def __neg__(self):
        return HPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, s):
        s = _num(s)
        return HPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return product(self.nvars, [(self, 1), (other, 1)])

    def __pow__(self, k):
        return product(self.nvars, [(self, k)])

    def __eq__(self, other):
        return isinstance(other, HPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _require_nvars(self, values, what):
        if len(values) != self.nvars:
            raise ValueError(f"a polynomial in {self.nvars} variables needs "
                             f"{self.nvars} {what}, not {len(values)}")

    def evaluate(self, values):
        """Evaluate with values[i] substituted for variable i.

        With the values V_i / d for integral V_i and the lcm d of their
        denominators, and coefficients C_e / c likewise, the int sum of
        C_e * V^e * d^(deg - |e|) is c * d^deg times the value; it is
        divided once.
        """
        self._require_nvars(values, "values")
        values = [_num(v) for v in values]
        if not self.terms:
            return 0
        ints, d = _integral(values)
        coeffs, den = _integral(list(self.terms.values()))
        deg = self.degree()
        total = 0
        for e, c in zip(self.terms, coeffs):
            for v, k in zip(ints, e):
                if k:
                    c *= v ** k
            total += c if d == 1 else c * d ** (deg - sum(e))
        den *= d ** deg
        return total if den == 1 else _num(Fraction(total, den))

    def substitute_affine(self, rows, consts):
        """Replace variable i by sum_j rows[i][j] x_j + consts[i].

        Multivariate Horner scheme: the terms are grouped by the exponent of
        variable i, each group is substituted in the remaining variables,
        and the groups are combined by one multiplication with the image of
        variable i per degree step.

        It runs on ints.  With the images L_i / d for integral L_i and the
        lcm d of their denominators, and coefficients C_e / c likewise,
        each C_e is first multiplied by d^(deg - |e|).  The Horner scheme on
        the L_i then gives c * d^deg times the result, and each output term
        is divided once.

        The images are packed by ``_pack`` in base deg + 1: every partial
        result has total degree <= deg, so no digit overflows into the
        next.  The keys are unpacked into exponent tuples once, at the end.
        """
        n = self.nvars
        self._require_nvars(consts, "constants")
        self._require_nvars(rows, "rows")
        for row in rows:
            self._require_nvars(row, "entries in each row")
        if not self.terms:
            return HPoly(n)
        deg = self.degree()
        images, d = _pack([HPoly.linear(r, c) for r, c in zip(rows, consts)],
                          n, deg + 1)
        coeffs, den = _integral(list(self.terms.values()))
        den *= d ** deg

        def horner(terms, i):
            # terms: {exponents of variables i..n-1: int coefficient}, nonempty
            if i == n:
                return {0: terms[()]}
            groups = {}
            for e, c in terms.items():
                groups.setdefault(e[0], {})[e[1:]] = c
            top = max(groups)
            out = horner(groups[top], i + 1)
            for k in range(top - 1, -1, -1):
                out = _mul_packed(out, images[i], {})
                if k in groups:
                    _add_into(out, horner(groups[k], i + 1))
            return out

        return _unpack(horner({e: c * d ** (deg - sum(e))
                               for e, c in zip(self.terms, coeffs)}, 0),
                       n, deg + 1, den)

    def ratio_to(self, other):
        """If self == q * other for a nonzero rational q, return q, else None."""
        if self.is_zero or other.is_zero:
            return None
        key = next(iter(other.terms))
        if key not in self.terms:
            return None
        q = Fraction(self.terms[key]) / Fraction(other.terms[key])
        if q == 0:
            return None
        return q if self == other.scale(q) else None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "*".join(f"h{i + 1}^{e}" if e > 1 else f"h{i + 1}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _require_exponent(k):
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"exponent must be an int, not {k!r}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, not {k}")


def _add_into(out, terms):
    """Add the terms of one polynomial into the dict `out`; return it."""
    for e, c in terms.items():
        out[e] = out.get(e, 0) + c
    return out


def _same_ring(nvars, p):
    if p.nvars != nvars:
        raise ValueError(f"polynomials in {nvars} and {p.nvars} "
                         f"variables do not combine")


def _pack(polys, nvars, base):
    """(images, d): the polynomials `polys` in nvars variables, each times
    the lcm d of all their denominators, as lists of (packed monomial, int
    coefficient) pairs, exponent j as digit j in `base`."""
    shifts = [base ** j for j in range(nvars)]
    ints, d = _integral([c for p in polys for c in p.terms.values()])
    it = iter(ints)
    # each zip stops at its polynomial's last term, drawing no further int
    return [[(sum(map(mul, e, shifts)), c) for e, c in zip(p.terms, it)]
            for p in polys], d


def _unpack(terms, nvars, base, den):
    """The HPoly of a term dict keyed by packed monomials with int
    coefficients, each divided by den; zeros are dropped."""
    out = {}
    for key, c in terms.items():
        if c:
            exps = []
            for _ in range(nvars):
                key, x = divmod(key, base)
                exps.append(x)
            out[tuple(exps)] = c if den == 1 else Fraction(c, den)
    return HPoly(nvars, out)


def _mul_packed(terms, image, out):
    """Add the product of packed int terms with `image`, a list of (packed
    monomial, coefficient) pairs, into the dict `out`; return it."""
    items = terms.items()
    if image and not out:
        # the first pair fills an empty `out` with no lookups
        (s, x), *image = image
        out.update({k + s: c * x for k, c in items})
    get = out.get
    for s, x in image:
        for k, c in items:
            key = k + s
            out[key] = get(key, 0) + c * x
    return out


def product(nvars, factors):
    """The product of p ** k over the (HPoly p, int k) pairs `factors`, each
    p in nvars variables.

    The factors are packed once, in base 1 + the sum of k * deg p, above
    every exponent of the product, multiplied on packed keys with int
    coefficients, and the product is unpacked once.
    """
    for p, k in factors:
        _same_ring(nvars, p)
        _require_exponent(k)
    base = 1 + sum(p.degree() * k for p, k in factors)
    images, d = _pack([p for p, _ in factors], nvars, base)
    terms = {0: 1}
    for image, (_, k) in zip(images, factors):
        for _ in range(k):
            terms = _mul_packed(terms, image, {})
    return _unpack(terms, nvars, base, d ** sum(k for _, k in factors))


def det_poly(matrix):
    """Determinant of a square matrix of HPoly entries in one ring.

    Laplace expansion along the rows, bottom up, with each minor computed
    once: the minor on the last k rows and a k-set S of columns is expanded
    along its top row into minors on the last k - 1 rows, which are keyed by
    their column sets (bit masks).  That is at most n * 2^(n-1) products in
    place of the n! of a cofactor recursion.

    Each row is packed once, in base 1 + the sum of the rows' largest entry
    degrees; each minor is a dict of packed monomials, unpacked once.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("det_poly needs a nonempty square matrix")
    nv = getattr(matrix[0][0], "nvars", None)
    if not all(isinstance(e, HPoly) and e.nvars == nv
               for row in matrix for e in row):
        raise ValueError("det_poly needs HPoly entries in one ring")
    base = 1 + sum(max(e.degree() for e in row) for row in matrix)
    den = 1
    rows = []
    for row in matrix:
        packed, d = _pack(row, nv, base)
        den *= d
        rows.append([(j, p, [(k, -c) for k, c in p])
                     for j, p in enumerate(packed) if p])
    minors = {1 << j: dict(plus) for j, plus, _ in rows[-1]}
    for r in range(n - 2, -1, -1):
        level = {}
        for mask, minor in minors.items():
            # column j enters the top row of mask | 1 << j; its sign is the
            # parity of the columns of mask to its left
            for j, plus, minus in rows[r]:
                bit = 1 << j
                if mask & bit:
                    continue
                odd = (mask & (bit - 1)).bit_count() % 2
                _mul_packed(minor, minus if odd else plus,
                            level.setdefault(mask | bit, {}))
        level = {m: {k: c for k, c in t.items() if c}
                 for m, t in level.items()}
        minors = {m: t for m, t in level.items() if t}
    return _unpack(minors.get((1 << n) - 1, {}), nv, base, den)
