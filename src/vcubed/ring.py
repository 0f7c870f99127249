"""The Gray map of the ring F2 + vF2 + v^2F2 (v^3 = v) on vectors, and the
text form of ring vectors.

An element a + v*b + v^2*c is stored as the int a | b<<1 | c<<2, so a vector
is a tuple of ints 0..7.  The Gray map sends a + v*b + v^2*c to the bit
triple (a, b, a+c); on vectors it is applied blockwise (all a's, then all
b's, then all a+c's) and the result is packed into a single int bitmask of
length 3n.  The map is an additive bijection that takes Lee weight to
Hamming weight, so the package computes on these masks alone and turns a
mask back into a ring vector only to print a witness.

The inverse reads a mask's three n-bit thirds (a, b, a+c) at byte speed:
each third is spread so that its bit i lands on bit 8i (_spread, cached per
third), and the spread thirds a | b<<1 | c<<2 are an n-byte string whose
byte i is the element a_i + v*b_i + v^2*c_i.
"""

from __future__ import annotations

from functools import lru_cache


def gray_vec(vec: tuple[int, ...]) -> int:
    """Blockwise Gray image of a length-n vector as a 3n-bit mask."""
    n = len(vec)
    a = b = c = 0
    for i, e in enumerate(vec):
        a |= (e & 1) << i
        b |= ((e >> 1) & 1) << i
        c |= ((e >> 2) & 1) << i
    return a | b << n | (a ^ c) << (2 * n)


@lru_cache(maxsize=4096)
def _spread(bits: int) -> int:
    """bits with bit i moved to bit 8i: its binary digits, read as hex
    digits with a 0 between each two, put bit i on hex digit 2i."""
    return int("0".join(f"{bits:b}"), 16)


def gray_vec_inverse(mask: int, n: int) -> tuple[int, ...]:
    """The unique ring vector whose Gray image is the given 3n-bit mask."""
    full = (1 << n) - 1
    a = mask & full
    b = (mask >> n) & full
    c = a ^ (mask >> (2 * n)) & full
    return tuple((_spread(a) | _spread(b) << 1 | _spread(c) << 2).to_bytes(n, "little"))


# ---------------------------------------------------------------------------
# Text form: subset of {"0","1","v","v^2"} joined by '+', e.g. "1+v^2".
# ---------------------------------------------------------------------------

_TERM_BITS = {"1": 1, "v": 2, "v^2": 4}


def format_elem(x: int) -> str:
    if x == 0:
        return "0"
    return "+".join(name for name, bit in _TERM_BITS.items() if x & bit)


_ELEM_TEXT = tuple(format_elem(x) for x in range(8))


def format_vec(vec: tuple[int, ...]) -> str:
    return "(" + ", ".join(map(_ELEM_TEXT.__getitem__, vec)) + ")"
