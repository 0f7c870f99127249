"""Exact arithmetic, factorization and divisor enumeration for binary polynomials.

Polynomials over GF(2) are plain Python ints: bit i holds the coefficient of
x^i, so 0 is the zero polynomial and x^3+x+1 is 0b1011.  This makes addition
XOR, keeps every operation exact, and gives a canonical total order for free:
comparing two polynomials as integers is the same as comparing
(degree, coefficient bits), which is the order used everywhere divisors or
factors are listed.

Two text forms are accepted wherever a polynomial is read: the algebraic
grammar ``term ('+' term)*`` with terms ``1 | x | x^K`` (repeated terms XOR
away; the string "0" is the zero polynomial), and a hexadecimal bitmask such
as ``0xB``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import CapExceeded, ParseError, PreconditionError

DEFAULT_FACTOR_BOUND = 128
DEFAULT_DIVISOR_CAP = 4096

X = 0b10  # the polynomial x


def degree(p: int) -> int:
    """Degree of p; -1 for the zero polynomial (sorts below every real degree)."""
    return p.bit_length() - 1


def poly_mul(p: int, q: int) -> int:
    """Carry-less (XOR) product."""
    r = 0
    while q:
        if q & 1:
            r ^= p
        p <<= 1
        q >>= 1
    return r


def poly_divmod(p: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of p by d, deg(remainder) < deg(d)."""
    if d == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dd = degree(d)
    q = 0
    while degree(p) >= dd:
        shift = degree(p) - dd
        q |= 1 << shift
        p ^= d << shift
    return q, p


def poly_mod(p: int, d: int) -> int:
    return poly_divmod(p, d)[1]


@lru_cache(maxsize=4096)
def poly_gcd(p: int, q: int) -> int:
    """Greatest common divisor (over GF(2) every nonzero gcd is monic).

    Cached: a search takes the gcds of the same few divisor pairs for every
    triple, once per triple in codes.code_key.  It also splits x^m + 1 into
    its irreducible factors (_factor_odd).
    """
    if p == 0 and q == 0:
        raise PreconditionError("gcd(0, 0) is undefined")
    while q:
        p, q = q, poly_mod(p, q)
    return p


def reciprocal(f: int) -> int:
    """x^deg(f) * f(1/x): the coefficient sequence reversed.

    Requires f(0) = 1 so the degree is preserved (always true for divisors
    of x^n - 1).
    """
    if f == 0 or not f & 1:
        raise PreconditionError("reciprocal requires a nonzero constant term")
    return int(f"{f:b}"[::-1], 2)


def xn1(n: int) -> int:
    """x^n + 1 (same as x^n - 1 in characteristic 2)."""
    if n < 1:
        raise PreconditionError("n must be positive")
    return (1 << n) | 1


@lru_cache(maxsize=4096)
def divides_xn1(n: int, f: int) -> bool:
    """Whether f is a nonzero divisor of x^n - 1.

    Searches meet the same few divisors over and over, so each (n, f) is
    decided once per process.
    """
    return f != 0 and poly_mod(xn1(n), f) == 0


def require_divisor(n: int, f: int, label: str = "") -> None:
    """Raise a PreconditionError unless f divides x^n - 1; the message names
    f as "label = f" when a label is given."""
    if not divides_xn1(n, f):
        name = f"{label} = {format_poly(f)}" if label else format_poly(f)
        raise PreconditionError(f"{name} does not divide x^{n}+1")


class Factorization(NamedTuple):
    """Complete factorization of x^n + 1 over GF(2).

    ``factors`` pairs each distinct irreducible with its multiplicity, in
    canonical (integer) order; the product always reconstructs x^n + 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def divisor_count(self) -> int:
        count = 1
        for _, mult in self.factors:
            count *= mult + 1
        return count


# ---------------------------------------------------------------------------
# Factoring x^n + 1.
#
# Write n = 2^a * m with m odd; then x^n + 1 = (x^m + 1)^(2^a) and x^m + 1 is
# squarefree.  Its distinct irreducible factors match the orbits of
# i -> 2i mod m (the cyclotomic cosets of 2), and the sum of x^j over each
# orbit splits x^m + 1 by gcds alone, with no extension field (_factor_odd).
# ---------------------------------------------------------------------------


def _factor_odd(m: int) -> tuple[int, ...]:
    """Distinct irreducible factors of x^m + 1 for odd m, canonically ordered.

    Berlekamp splitting (Berlekamp, Bell Syst. Tech. J. 1967) with the
    cyclotomic coset sums as splitting polynomials (MacWilliams and Sloane,
    ch. 8).  For a coset C of 2 mod m let c be the sum of x^j over j in C.
    Squaring maps x^j to x^(2j mod m) modulo x^m + 1, which permutes the
    terms of c, so c^2 = c (mod x^m + 1).  Each irreducible factor of x^m + 1
    thus divides c(c + 1), and so exactly one of c and c + 1; a piece p of
    the squarefree x^m + 1 is therefore gcd(p, c) * gcd(p, c + 1).

    The pieces end irreducible because the coset sums are a basis of
    Berlekamp's subalgebra {a : a^2 = a (mod x^m + 1)}: a(x)^2 = a(x^2), so
    a^2 = a says that the coefficients of a are constant on every coset.  By
    the Chinese remainder theorem that subalgebra holds, for any two distinct
    irreducible factors, an element that is 0 modulo one and 1 modulo the
    other, so some basis element also differs on the two and puts them in
    different pieces.
    """
    pieces = [xn1(m)]
    seen = 0  # the exponents of every coset summed so far
    for i in range(m):
        if seen >> i & 1:
            continue
        c, j = 0, i
        while not c >> j & 1:  # walk i -> 2i mod m, summing x^j
            c |= 1 << j
            j = 2 * j % m
        seen |= c
        pieces = [g for p in pieces for g in (poly_gcd(p, c), poly_gcd(p, c ^ 1)) if g != 1]
    pieces.sort()
    if reduce(poly_mul, pieces, 1) != xn1(m):
        raise RuntimeError(f"factor product check failed for m={m}")
    return tuple(pieces)


def factor_xn1(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Factorization:
    """Complete factorization of x^n + 1 over GF(2), for 1 <= n <= bound."""
    if not 1 <= n <= bound:
        raise PreconditionError(f"n={n} outside factorization bound 1..{bound}")
    mult = n & -n  # 2^a, with n = 2^a m and m odd
    return Factorization(n, tuple((f, mult) for f in _factor_odd(n // mult)))


def enumerate_divisors(n: int, cap: int = DEFAULT_DIVISOR_CAP) -> list[int]:
    """All monic divisors of x^n + 1 in canonical order.

    The count is prod(multiplicity + 1) over the factorization; raises
    CapExceeded (naming the cap) before building anything larger than
    ``cap``.
    """
    fact = factor_xn1(n)
    count = fact.divisor_count
    if count > cap:
        raise CapExceeded(f"{count} divisors of x^{n}+1 exceed divisor cap {cap}")
    divisors = [1]
    for f, mult in fact.factors:
        powers = [1]
        for _ in range(mult):
            powers.append(poly_mul(powers[-1], f))
        divisors = [poly_mul(d, q) for d in divisors for q in powers]
    divisors.sort()
    return divisors


# ---------------------------------------------------------------------------
# Text forms.
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> int:
    """Parse the algebraic grammar or a 0x-prefixed hexadecimal bitmask."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", 0)
    if s.lower().startswith("0x"):
        digits = s[2:]  # int(s, 16) would also take "_" and non-ASCII digits
        if not digits or digits.strip("0123456789abcdefABCDEF"):
            raise ParseError(f"bad hexadecimal polynomial {s!r}", 0)
        return int(digits, 16)
    if s == "0":
        return 0
    p = 0
    pos = 0
    for term in s.split("+"):
        stripped = term.strip()
        offset = pos + term.index(stripped) if stripped else pos
        if stripped == "1":
            p ^= 1
        elif stripped == "x":
            p ^= X
        elif stripped.startswith("x^"):
            exp_text = stripped[2:]
            if not (exp_text.isascii() and exp_text.isdigit()):
                raise ParseError(f"bad exponent in term {stripped!r}", offset)
            try:
                p ^= 1 << int(exp_text)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"exponent of {len(exp_text)} digits is too long", offset) from None
        else:
            raise ParseError(f"bad term {stripped!r}", offset)
        pos += len(term) + 1
    return p


def format_poly(p: int) -> str:
    """Canonical descending-degree text; inverse of parse_poly."""
    if p == 0:
        return "0"
    bits = f"{p:b}"  # one pass over the coefficients, highest degree first
    return "+".join("1" if i == 0 else "x" if i == 1 else f"x^{i}"
                    for i, bit in zip(range(len(bits) - 1, -1, -1), bits) if bit == "1")


def poly_hex(p: int) -> str:
    """Machine form: the coefficient bitmask as hexadecimal."""
    return hex(p)
