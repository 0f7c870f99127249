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
each bit plane a, b, c is spread so that its bit i lands on bit 8i
(_spread, cached per plane), and the spread planes a | b<<1 | c<<2 are an
n-byte string whose byte i is the element a_i + v*b_i + v^2*c_i.  The same
packing with the planes in the order (c, b, a) is the order key of the
audits' witnesses (tuple_order_key): masks compare as their ring vectors do.
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


def _planes(mask: int, n: int) -> tuple[int, int, int]:
    """The bit planes (a, b, c) of the ring vector whose Gray image is the
    3n-bit mask (a|b|a+c)."""
    full = (1 << n) - 1
    a = mask & full
    return a, (mask >> n) & full, a ^ (mask >> (2 * n)) & full


def gray_vec_inverse(mask: int, n: int) -> tuple[int, ...]:
    """The unique ring vector whose Gray image is the given 3n-bit mask."""
    a, b, c = _planes(mask, n)
    return tuple((_spread(a) | _spread(b) << 1 | _spread(c) << 2).to_bytes(n, "little"))


def tuple_order_key(mask: int, n: int) -> int:
    """The 8n-bit key whose mirrored order on 3n-bit Gray masks is the order
    of their ring vectors (gray_vec_inverse) as tuples: of two keys, the one
    with a 0 at the lowest bit where they differ is less.

    It is the packing of gray_vec_inverse with the planes reversed, so its
    byte i is e_i with its three bits reversed, for the entry e_i = a_i |
    b_i<<1 | c_i<<2.  Two tuples compare at their first differing entry,
    by the highest bit where those entries differ.  Reversed, that bit is
    the lowest bit where the two keys differ, and the tuple with a 0 there
    is less.  The key is linear in the mask and one-to-one.
    """
    a, b, c = _planes(mask, n)
    return _spread(c) | _spread(b) << 1 | _spread(a) << 2


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
