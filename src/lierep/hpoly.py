"""Sparse exact polynomials in the coroot coordinates h_1..h_n.

Coefficients, scalars and values pass ``rootsystem._num`` (TypeError unless
an int or a ``Fraction``), and exponents must be ints.  Products, affine
substitution and evaluation scale their inputs to integers once, by the lcm
of the denominators, work on ints, and make one ``Fraction`` per output
term.

``.terms`` is keyed by exponent tuples.  Inside ``substitute_affine`` (the
dot action of ``enveloping.twisted_poly``), ``determinants.det_poly`` and
``DetPolynomial.expand`` a monomial is one packed int, exponent j as digit
j in a base above every exponent reached, unpacked once for the result.
"""

from fractions import Fraction
from itertools import chain
from operator import add, mul

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

    def _same_ring(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} "
                             f"variables do not combine")

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        self._same_ring(other)
        return HPoly(self.nvars, _add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        self._same_ring(other)
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
        self._same_ring(other)
        return HPoly(self.nvars, _mul_terms(self.terms, other.terms))

    def __pow__(self, k):
        _require_exponent(k)
        out = HPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

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

        The partial results are keyed by packed monomials: exponent j is
        digit j of one int in base deg + 1.  Every partial result has total
        degree <= deg, so no digit overflows into the next, and multiplying
        by x_j is adding (deg + 1)^j to a key.  Each image is a list of
        (shift, coefficient) pairs, and the keys are unpacked into exponent
        tuples once, at the end.
        """
        n = self.nvars
        self._require_nvars(consts, "constants")
        self._require_nvars(rows, "rows")
        for row in rows:
            self._require_nvars(row, "entries in each row")
        if not self.terms:
            return HPoly(n)
        ints, d = _integral([_num(x) for x in [*chain(*rows), *consts]])
        coeffs, den = _integral(list(self.terms.values()))
        deg = self.degree()
        den *= d ** deg
        base = deg + 1
        shifts = [base ** j for j in range(n)] + [0]
        images = [[(s, x) for s, x in zip(shifts, [*ints[i * n:i * n + n],
                                                    ints[n * n + i]]) if x]
                  for i in range(n)]

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
                       n, base, den)

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


def _mul_ints(t1, t2):
    """Product of two term dicts with int coefficients; zeros are dropped."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pack(terms, shifts):
    """{sum of e_j * shifts[j]: c} for the (exponent tuple e, c) pairs
    `terms`, with shifts[j] = base^j for a base above every exponent."""
    return {sum(map(mul, e, shifts)): c for e, c in terms}


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


def _mul_terms(t1, t2):
    """Product of two term dicts: each factor is scaled to integers once,
    and each output term divided once."""
    c1s, d1 = _integral(list(t1.values()))
    c2s, d2 = _integral(list(t2.values()))
    out = _mul_ints(dict(zip(t1, c1s)) if d1 != 1 else t1,
                    dict(zip(t2, c2s)) if d2 != 1 else t2)
    den = d1 * d2
    return out if den == 1 else {e: Fraction(c, den) for e, c in out.items()}
