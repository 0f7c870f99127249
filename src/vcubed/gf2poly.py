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

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import CapExceeded, ParseError, PreconditionError

DEFAULT_FACTOR_BOUND = 128
DEFAULT_DIVISOR_CAP = 4096

X = 0b10  # the polynomial x


def degree(p: int) -> int:
    """Degree of p; -1 for the zero polynomial (sorts below every real degree)."""
    return p.bit_length() - 1


def poly_add(p: int, q: int) -> int:
    """Sum over GF(2): coefficient-wise XOR."""
    return p ^ q


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


def poly_gcd(p: int, q: int) -> int:
    """Greatest common divisor (over GF(2) every nonzero gcd is monic)."""
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
    d = degree(f)
    r = 0
    for i in range(d + 1):
        if (f >> i) & 1:
            r |= 1 << (d - i)
    return r


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


def _sqr(p: int) -> int:
    # Frobenius: squaring spreads each bit i to bit 2i.
    r = 0
    while p:
        low = p & -p
        r |= 1 << (2 * (low.bit_length() - 1))
        p ^= low
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Deterministic irreducibility test over GF(2).

    f of degree d is irreducible iff x^(2^d) = x (mod f) and, for every
    prime p dividing d, gcd(x^(2^(d/p)) - x, f) = 1.  Runs in O(d) modular
    squarings, so it stays fast at every degree this package meets.
    """
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not f & 1:
        return False  # x divides f
    checkpoints = {d // p for p in _prime_factors(d)}
    h = X
    for k in range(1, d + 1):
        h = poly_mod(_sqr(h), f)
        if k in checkpoints and poly_gcd(h ^ X, f) != 1:
            return False
    return h == X


@dataclass(frozen=True)
class Factorization:
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

    def product(self) -> int:
        p = 1
        for f, mult in self.factors:
            for _ in range(mult):
                p = poly_mul(p, f)
        return p


# ---------------------------------------------------------------------------
# Factoring x^n + 1.
#
# Write n = 2^a * m with m odd; then x^n + 1 = (x^m + 1)^(2^a) and x^m + 1 is
# squarefree.  Its distinct irreducible factors are the minimal polynomials
# of the m-th roots of unity, one per orbit of i -> 2i mod m.  We realize the
# roots inside GF(2^t), t = ord_m(2), and multiply out prod (X - alpha^j)
# over each orbit; the coefficients land back in GF(2).
# ---------------------------------------------------------------------------


def _order_of_two(m: int) -> int:
    t, pw = 1, 2 % m
    while pw != 1:
        pw = (pw * 2) % m
        t += 1
    return t


def _cyclotomic_cosets(m: int) -> list[list[int]]:
    seen = [False] * m
    cosets = []
    for i in range(m):
        if seen[i]:
            continue
        coset = []
        j = i
        while not seen[j]:
            seen[j] = True
            coset.append(j)
            j = (2 * j) % m
        cosets.append(coset)
    return cosets


def _gf_mul(a: int, b: int, modulus: int, t: int) -> int:
    # GF(2^t) product, reducing by the degree-t modulus as bits grow.
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> t) & 1:
            a ^= modulus
    return r


def _gf_pow(a: int, e: int, modulus: int, t: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf_mul(r, a, modulus, t)
        a = _gf_mul(a, a, modulus, t)
        e >>= 1
    return r


def _find_irreducible(t: int) -> int:
    # Smallest (integer order) irreducible of degree t; constant term must be 1.
    for middle in range(1 << (t - 1)):
        candidate = (1 << t) | (middle << 1) | 1
        if is_irreducible(candidate):
            return candidate
    raise RuntimeError(f"no irreducible of degree {t}")  # unreachable


def _root_of_unity(m: int, modulus: int, t: int) -> int:
    # An element of multiplicative order exactly m in GF(2^t); exists since
    # m divides 2^t - 1.
    group = (1 << t) - 1
    cofactor = group // m
    primes = _prime_factors(m)
    for beta in range(2, 1 << t):
        alpha = _gf_pow(beta, cofactor, modulus, t)
        if alpha == 1:
            continue
        if all(_gf_pow(alpha, m // p, modulus, t) != 1 for p in primes):
            return alpha
    raise RuntimeError(f"no element of order {m} found")  # unreachable


@lru_cache(maxsize=None)
def _factor_odd(m: int) -> tuple[int, ...]:
    """Distinct irreducible factors of x^m + 1 for odd m, canonically ordered."""
    if m == 1:
        return (0b11,)
    t = _order_of_two(m)
    modulus = _find_irreducible(t)
    alpha = _root_of_unity(m, modulus, t)
    factors = []
    for coset in _cyclotomic_cosets(m):
        coeffs = [1]  # polynomial over GF(2^t), ascending
        for j in coset:
            root = _gf_pow(alpha, j, modulus, t)
            nxt = [0] * (len(coeffs) + 1)
            for i, ci in enumerate(coeffs):
                nxt[i + 1] ^= ci
                nxt[i] ^= _gf_mul(ci, root, modulus, t)
            coeffs = nxt
        if any(c not in (0, 1) for c in coeffs):
            raise RuntimeError(f"minimal polynomial left GF(2) for m={m}")
        factors.append(sum(bit << i for i, bit in enumerate(coeffs)))
    factors.sort()
    prod = 1
    for f in factors:
        prod = poly_mul(prod, f)
    if prod != xn1(m):
        raise RuntimeError(f"factor product check failed for m={m}")
    return tuple(factors)


def factor_xn1(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Factorization:
    """Complete factorization of x^n + 1 over GF(2), for 1 <= n <= bound."""
    if not 1 <= n <= bound:
        raise PreconditionError(f"n={n} outside factorization bound 1..{bound}")
    a, m = 0, n
    while m % 2 == 0:
        m //= 2
        a += 1
    mult = 1 << a
    return Factorization(n, tuple((f, mult) for f in _factor_odd(m)))


def enumerate_divisors(n: int, cap: int = DEFAULT_DIVISOR_CAP,
                       bound: int = DEFAULT_FACTOR_BOUND) -> list[int]:
    """All monic divisors of x^n + 1 in canonical order.

    The count is prod(multiplicity + 1) over the factorization; raises
    CapExceeded (naming the cap) before building anything larger than
    ``cap``.
    """
    fact = factor_xn1(n, bound)
    count = fact.divisor_count
    if count > cap:
        raise CapExceeded(f"{count} divisors of x^{n}+1 exceed divisor cap {cap}")
    divisors = []
    ranges = [range(mult + 1) for _, mult in fact.factors]
    for exps in product(*ranges):
        d = 1
        for (f, _), e in zip(fact.factors, exps):
            for _ in range(e):
                d = poly_mul(d, f)
        divisors.append(d)
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
        try:
            return int(s, 16)
        except ValueError:
            raise ParseError(f"bad hexadecimal polynomial {s!r}", 0) from None
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
            if not exp_text.isdigit():
                raise ParseError(f"bad exponent in term {stripped!r}", offset)
            p ^= 1 << int(exp_text)
        else:
            raise ParseError(f"bad term {stripped!r}", offset)
        pos += len(term) + 1
    return p


def format_poly(p: int) -> str:
    """Canonical descending-degree text; inverse of parse_poly."""
    if p == 0:
        return "0"
    terms = []
    for i in range(degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def poly_hex(p: int) -> str:
    """Machine form: the coefficient bitmask as hexadecimal."""
    return hex(p)
