"""The eight-element ring F2 + vF2 + v^2F2 with v^3 = v, and its Gray map.

An element a + v*b + v^2*c is stored as the int a | b<<1 | c<<2, so the ring
is exactly range(8), addition is XOR, and vectors are tuples of small ints.
The Gray map sends a + v*b + v^2*c to the bit triple (a, b, a+c); on vectors
it is applied blockwise (all a's, then all b's, then all a+c's) and the
result is packed into a single int bitmask of length 3n.
"""

from __future__ import annotations

from .errors import ParseError, PreconditionError

ZERO = 0
ONE = 1
V = 2
ONE_PLUS_V = 3
V2 = 4
ONE_PLUS_V2 = 5
V_PLUS_V2 = 6
ONE_PLUS_V_PLUS_V2 = 7

ELEMENTS = tuple(range(8))
UNITS = (ONE, ONE_PLUS_V_PLUS_V2)

# Lee weights, indexed by element: w(0)=0, w(1)=2, w(v)=w(v^2)=w(1+v^2)=1,
# w(1+v)=3, w(v+v^2)=w(1+v+v^2)=2.  Equals the Hamming weight of the Gray image.
LEE_WEIGHTS = (0, 2, 1, 3, 1, 1, 2, 2)


def ring_add(x: int, y: int) -> int:
    return x ^ y


def ring_mul(x: int, y: int) -> int:
    """Product reduced by v^3 = v (hence v^4 = v^2).

    Closed form: (a1 + v b1 + v^2 c1)(a2 + v b2 + v^2 c2)
      = a1a2 + v(a1b2 + b1a2 + b1c2 + c1b2) + v^2(a1c2 + b1b2 + c1a2 + c1c2).
    """
    a1, b1, c1 = x & 1, (x >> 1) & 1, (x >> 2) & 1
    a2, b2, c2 = y & 1, (y >> 1) & 1, (y >> 2) & 1
    const = a1 & a2
    vc = (a1 & b2) ^ (b1 & a2) ^ (b1 & c2) ^ (c1 & b2)
    v2c = (a1 & c2) ^ (b1 & b2) ^ (c1 & a2) ^ (c1 & c2)
    return const | vc << 1 | v2c << 2


def classify(x: int) -> str:
    """'zero', 'unit' (only 1 and 1+v+v^2), or 'zero_divisor'."""
    if x == 0:
        return "zero"
    return "unit" if x in UNITS else "zero_divisor"


def principal_ideal(x: int) -> frozenset[int]:
    return frozenset(ring_mul(r, x) for r in ELEMENTS)


def lee_weight(x: int) -> int:
    return LEE_WEIGHTS[x]


def gray(x: int) -> tuple[int, int, int]:
    a, b, c = x & 1, (x >> 1) & 1, (x >> 2) & 1
    return (a, b, a ^ c)


def gray_inverse(t: tuple[int, int, int]) -> int:
    a, b, third = t
    return a | b << 1 | (a ^ third) << 2


# ---------------------------------------------------------------------------
# Vectors: tuples of elements; Gray images packed as int bitmasks.
# ---------------------------------------------------------------------------


def gray_vec(vec: tuple[int, ...]) -> int:
    """Blockwise Gray image of a length-n vector as a 3n-bit mask."""
    n = len(vec)
    a = b = c = 0
    for i, e in enumerate(vec):
        a |= (e & 1) << i
        b |= ((e >> 1) & 1) << i
        c |= ((e >> 2) & 1) << i
    return a | b << n | (a ^ c) << (2 * n)


def gray_vec_inverse(mask: int, n: int) -> tuple[int, ...]:
    """The unique ring vector whose Gray image is the given 3n-bit mask."""
    full = (1 << n) - 1
    a = mask & full
    b = (mask >> n) & full
    c = a ^ (mask >> (2 * n)) & full
    return tuple(
        ((a >> i) & 1) | ((b >> i) & 1) << 1 | ((c >> i) & 1) << 2 for i in range(n)
    )


def scale_vec(s: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ring_mul(s, e) for e in vec)


def ring_inner_product(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """sum_i x_i * y_i as a ring element."""
    if len(x) != len(y):
        raise PreconditionError(f"length mismatch: {len(x)} vs {len(y)}")
    acc = 0
    for a, b in zip(x, y):
        acc ^= ring_mul(a, b)
    return acc


def lee_weight_vec(vec: tuple[int, ...]) -> int:
    return sum(LEE_WEIGHTS[e] for e in vec)


# ---------------------------------------------------------------------------
# Text form: subset of {"0","1","v","v^2"} joined by '+', e.g. "1+v^2".
# ---------------------------------------------------------------------------

_TERM_BITS = {"1": 1, "v": 2, "v^2": 4}


def format_elem(x: int) -> str:
    if x == 0:
        return "0"
    return "+".join(name for name, bit in _TERM_BITS.items() if x & bit)


def parse_elem(text: str) -> int:
    s = text.strip()
    if s == "0":
        return 0
    x = 0
    pos = 0
    for term in s.split("+"):
        stripped = term.strip()
        if stripped not in _TERM_BITS:
            raise ParseError(f"bad ring term {stripped!r}", pos)
        x ^= _TERM_BITS[stripped]
        pos += len(term) + 1
    return x


def format_vec(vec: tuple[int, ...]) -> str:
    return "(" + ", ".join(format_elem(e) for e in vec) + ")"
