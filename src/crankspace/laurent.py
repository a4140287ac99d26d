"""Dense Laurent polynomials over the integers.

Partition statistics at a fixed size (how many partitions of n have rank m,
or crank m) form finitely supported integer sequences indexed by m in Z.  We
model them as Laurent polynomials in a formal variable z: the coefficient of
z^m is the count at m.  The representation is dense over the support span,
which keeps the structural predicates (symmetry, unimodality) and the
cyclotomic divisibility tests straight index arithmetic.  Values are built
from coefficient lists: no command needs ring arithmetic, so the type has none.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Mapping


class CrankspaceError(ValueError):
    """A request the package refuses: bad arguments, or work past a bound.

    Every deliberate refusal in the package raises one of these, so a plain
    ValueError escaping it is a fault, not a usage error.
    """


# Every integer a request spells out (an instance id's numbers, a `--poly`
# literal's coefficients and exponents) is parsed by parse_int.  CPython
# converts at most 4,300 digits either way, and a `quotient` coefficient is a
# sum of at most QUOTIENT_BOUND differences of the literal's coefficients, so
# 4,000 digits keep every value the package reads or prints below that limit.
DIGITS_BOUND = 4000
# A refusal quotes at most this many characters of the text it refuses.
QUOTE_CHARS = 60


def parse_int(digits: str) -> int:
    """int(digits), refused with a CrankspaceError past DIGITS_BOUND digits."""
    width = len(digits.lstrip("-"))
    if width > DIGITS_BOUND:
        raise CrankspaceError(f"a {width}-digit number is past the {DIGITS_BOUND}-digit bound")
    return int(digits)


def quote(text: str) -> str:
    """repr(text) for an error message; past QUOTE_CHARS, its head and its length."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


class LaurentPoly:
    """A Laurent polynomial sum(coeffs[i] * z^(lo+i)).

    Normalized so that coeffs is empty (the zero polynomial, with lo == 0)
    or starts and ends with a nonzero coefficient.

    >>> f = LaurentPoly(-1, (1, 0, 2))
    >>> f.lo, f.hi
    (-1, 1)
    >>> str(f)
    '1*z^-1 + 2*z^1'
    >>> f.shift(1)
    LaurentPoly('1*z^0 + 2*z^2')
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int = 0, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        start = 0
        while start < len(cs) and cs[start] == 0:
            start += 1
        end = len(cs)
        while end > start and cs[end - 1] == 0:
            end -= 1
        if start == end:
            self.lo = 0
            self.coeffs = ()
        else:
            self.lo = lo + start
            self.coeffs = tuple(cs[start:end])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.coeffs) == (other.lo, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.lo, self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls(0, ())

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(0, (1,))

    @classmethod
    def from_coeff_map(cls, mapping: Mapping[int, int]) -> LaurentPoly:
        nonzero = {e: c for e, c in mapping.items() if c != 0}
        if not nonzero:
            return cls.zero()
        lo = min(nonzero)
        hi = max(nonzero)
        cs = [0] * (hi - lo + 1)
        for e, c in nonzero.items():
            cs[e - lo] = c
        return cls(lo, cs)

    @classmethod
    def from_half(cls, half: list[int]) -> LaurentPoly:
        """The palindrome whose z^0, z^-1, ... (so also z^0, z^1, ...) coefficients are half."""
        return cls(1 - len(half), half[:0:-1] + half)

    @staticmethod
    def unimodal_half(half: list[int]) -> bool:
        """Whether from_half(half) is unimodal: iff half never rises outward and ends >= 0.

        The one unimodality test production runs, in search's scans and verify's slice checks.
        """
        return half[-1] >= 0 and all(map(operator.ge, half, half[1:]))

    # -- basic structure ----------------------------------------------------

    @property
    def hi(self) -> int:
        """Largest exponent in the span (lo - 1 for the zero polynomial)."""
        return self.lo + len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, m: int) -> int:
        """Coefficient of z^m (zero outside the span)."""
        i = m - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def coeff_map(self) -> dict[int, int]:
        return {self.lo + i: c for i, c in enumerate(self.coeffs) if c != 0}

    # -- transforms ---------------------------------------------------------

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by z^k."""
        if not self:
            return self
        return LaurentPoly(self.lo + k, self.coeffs)

    # -- predicates ----------------------------------------------------------

    def is_symmetric(self) -> bool:
        """True iff the coefficient of z^m equals that of z^-m for all m."""
        return not self or (self.lo == -self.hi and self.coeffs == self.coeffs[::-1])

    def is_unimodal(self) -> bool:
        """True iff the coefficient sequence rises then falls.

        The full integer line is considered: coefficients beyond the span are
        zero, and interior zeros count.  Constant and monotone sequences are
        unimodal; any strict dip (for example 1,0,1) is not.  No production path
        calls it: it is the tests' reference, and perfbench/tracer.py wraps it by name.

        >>> LaurentPoly(-2, (1, 1, 1, 1, 1)).is_unimodal()
        True
        >>> LaurentPoly(-2, (1, 0, 1, 0, 1)).is_unimodal()
        False
        """
        seq = (0,) + self.coeffs + (0,)
        top = seq.index(max(seq))  # a unimodal sequence rises to its first maximum, then falls
        return (all(map(operator.le, seq[:top], seq[1 : top + 1]))
                and all(map(operator.ge, seq[top:], seq[top + 1 :])))

    def is_nonnegative(self) -> bool:
        """True iff every coefficient is >= 0 (so the zero polynomial is)."""
        return min(self.coeffs, default=0) >= 0

    # -- text and JSON forms --------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.lo + i
            if not parts:
                parts.append(f"{c}*z^{e}")
            elif c > 0:
                parts.append(f"+ {c}*z^{e}")
            else:
                parts.append(f"- {-c}*z^{e}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    # One term of polynomial text; re compiles and caches it at the first parse.
    _TERM = (
        r"\s*(?P<sign>[+-]?)\s*(?:"
        r"(?P<coeff>\d+)\s*\*?\s*z\^(?P<exp>-?\d+)"
        r"|(?P<conly>\d+)"
        r"|z\^(?P<eonly>-?\d+)"
        r"|z"
        r")\s*"
    )

    @classmethod
    def _parse_terms(cls, text: str) -> dict[int, int]:
        """The summed coefficient of each exponent in polynomial text.

        Accepts the form str() writes: terms like ``3*z^-2``, ``z^4``, ``z``
        and bare integers, joined by explicit signs.  Builds no dense
        coefficient list, so a caller can bound the span first.

        >>> LaurentPoly._parse_terms("1*z^-1 + 2*z^1 - z")
        {-1: 1, 1: 1}
        """
        s = text.strip()
        if not s:
            raise CrankspaceError("empty polynomial text")
        term = re.compile(cls._TERM)
        acc: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = term.match(s, pos)
            if not m or m.end() == pos:
                raise CrankspaceError(f"cannot parse polynomial text at position {pos}: {quote(s)}")
            sign = -1 if m.group("sign") == "-" else 1
            if not first and m.group("sign") == "":
                raise CrankspaceError(f"missing sign between terms in {quote(s)}")
            if m.group("coeff") is not None:
                c, e = parse_int(m.group("coeff")), parse_int(m.group("exp"))
            elif m.group("conly") is not None:
                c, e = parse_int(m.group("conly")), 0
            elif m.group("eonly") is not None:
                c, e = 1, parse_int(m.group("eonly"))
            else:
                c, e = 1, 1
            acc[e] = acc.get(e, 0) + sign * c
            pos = m.end()
            first = False
        return acc

    def to_json_dict(self) -> dict:
        """JSON form: ``{"lo": int, "coeffs": [decimal strings]}``.

        Coefficients travel as strings so arbitrarily large values survive
        JSON readers that parse numbers into doubles.
        """
        return {"lo": self.lo, "coeffs": [str(c) for c in self.coeffs]}
