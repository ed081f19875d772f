"""Sparse exact polynomials in the coroot coordinates h_1..h_n."""

from fractions import Fraction
from operator import add

from .rootsystem import _num


class HPoly:
    """Polynomial with Fraction coefficients, keyed by exponent tuples."""

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
        self._same_ring(other)
        return HPoly(self.nvars, _add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        self._same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return HPoly(self.nvars, out)

    def __neg__(self):
        return HPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, s):
        return HPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other):
        self._same_ring(other)
        return HPoly(self.nvars, _mul_terms(self.terms, other.terms))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, not {k!r}")
        out = HPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, HPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, values):
        """Evaluate with values[i] substituted for variable i."""
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = Fraction(c)
            for v, e in zip(values, exps):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return _num(total)

    def substitute_affine(self, rows, consts):
        """Replace variable i by sum_j rows[i][j] x_j + consts[i].

        Multivariate Horner scheme: the terms are grouped by the exponent of
        variable i, each group is substituted in the remaining variables,
        and the groups are combined by one multiplication with the image of
        variable i per degree step.
        """
        n = self.nvars
        images = [HPoly.linear(rows[i], consts[i]).terms for i in range(n)]
        const_key = (0,) * n

        def horner(terms, i):
            # terms: {exponents of variables i..n-1: coefficient}, nonempty
            if i == n:
                return {const_key: terms[()]}
            groups = {}
            for e, c in terms.items():
                groups.setdefault(e[0], {})[e[1:]] = c
            top = max(groups)
            out = horner(groups[top], i + 1)
            for k in range(top - 1, -1, -1):
                out = _mul_terms(out, images[i])
                if k in groups:
                    _add_into(out, horner(groups[k], i + 1))
            return out

        return HPoly(n, horner(self.terms, 0) if self.terms else None)

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


def _add_into(out, terms):
    """Add the terms of one polynomial into the dict `out`; return it."""
    for e, c in terms.items():
        out[e] = out.get(e, 0) + c
    return out


def _mul_terms(t1, t2):
    """Product of two term dicts; zero coefficients are dropped."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}
