import random
from itertools import product

import pytest

from vcubed.errors import ParseError, PreconditionError
from vcubed.ring import format_elem, format_vec, gray_vec, gray_vec_inverse
from oracles import (
    ELEMENTS,
    LEE_WEIGHTS,
    ONE,
    ONE_PLUS_V,
    ONE_PLUS_V2,
    ONE_PLUS_V_PLUS_V2,
    V,
    V2,
    V_PLUS_V2,
    classify,
    gray,
    gray_inverse,
    gray_vec_inverse_by_bits,
    lee_weight,
    lee_weight_by_gray,
    lee_weight_vec,
    parse_elem,
    principal_ideal,
    ring_add,
    ring_inner_product,
    ring_mul,
    ring_mul_structural,
    scale_vec,
)


def test_add_examples():
    assert ring_add(V, V) == 0
    assert ring_add(ONE, V2) == ONE_PLUS_V2
    assert ring_add(ONE_PLUS_V, V_PLUS_V2) == ONE_PLUS_V2


def test_mul_examples():
    assert ring_mul(V, V2) == V
    assert ring_mul(ONE_PLUS_V, ONE_PLUS_V2) == ONE_PLUS_V2
    assert ring_mul(ONE_PLUS_V_PLUS_V2, ONE_PLUS_V_PLUS_V2) == ONE


def test_mul_matches_structural_expansion_on_all_pairs():
    # Table generated once from the v-power convolution oracle.
    table = {(x, y): ring_mul_structural(x, y) for x in ELEMENTS for y in ELEMENTS}
    for (x, y), expected in table.items():
        assert ring_mul(x, y) == expected


def test_ring_axioms_exhaustive():
    for x in ELEMENTS:
        assert ring_mul(x, ONE) == x
        for y in ELEMENTS:
            assert ring_mul(x, y) == ring_mul(y, x)
            for z in ELEMENTS:
                assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
                assert ring_mul(x, ring_add(y, z)) == ring_add(ring_mul(x, y), ring_mul(x, z))


def test_classify():
    assert classify(0) == "zero"
    assert classify(ONE) == "unit"
    assert classify(ONE_PLUS_V_PLUS_V2) == "unit"
    for x in (V, V2, ONE_PLUS_V, ONE_PLUS_V2, V_PLUS_V2):
        assert classify(x) == "zero_divisor"
    # a unit is exactly an element whose principal ideal is everything
    for x in ELEMENTS:
        assert (classify(x) == "unit") == (len(principal_ideal(x)) == 8)


def test_principal_ideals():
    assert principal_ideal(V) == {0, V, V2, V_PLUS_V2}
    assert principal_ideal(V2) == principal_ideal(V)
    assert principal_ideal(ONE_PLUS_V) == {0, ONE_PLUS_V, ONE_PLUS_V2, V_PLUS_V2}
    assert principal_ideal(ONE_PLUS_V2) == {0, ONE_PLUS_V2}
    assert principal_ideal(V_PLUS_V2) == {0, V_PLUS_V2}
    assert principal_ideal(ONE) == set(ELEMENTS)
    assert principal_ideal(ONE_PLUS_V_PLUS_V2) == set(ELEMENTS)


def test_lee_weight_table():
    expected = {0: 0, ONE: 2, V: 1, V2: 1, ONE_PLUS_V: 3,
                ONE_PLUS_V2: 1, V_PLUS_V2: 2, ONE_PLUS_V_PLUS_V2: 2}
    for x, w in expected.items():
        assert lee_weight(x) == w
        assert LEE_WEIGHTS[x] == w
        assert w == lee_weight_by_gray(x)


def test_gray_examples_and_bijectivity():
    assert gray(V) == (0, 1, 0)
    assert gray(ONE_PLUS_V2) == (1, 0, 0)
    assert gray(0) == (0, 0, 0)
    assert gray_inverse((1, 1, 1)) == ONE_PLUS_V
    assert gray_inverse((0, 0, 1)) == V2
    assert gray_inverse((0, 0, 0)) == 0
    # a + v b + v^2 c -> (a, b, a+c), element x = a | b<<1 | c<<2
    table = {0: (0, 0, 0), ONE: (1, 0, 1), V: (0, 1, 0), ONE_PLUS_V: (1, 1, 1),
             V2: (0, 0, 1), ONE_PLUS_V2: (1, 0, 0), V_PLUS_V2: (0, 1, 1),
             ONE_PLUS_V_PLUS_V2: (1, 1, 0)}
    assert sorted(table) == list(ELEMENTS)
    seen = set()
    for x in ELEMENTS:
        t = gray(x)
        assert t == table[x]
        assert gray_inverse(t) == x
        seen.add(t)
    assert len(seen) == 8
    for t in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        assert gray(gray_inverse(t)) == t


def test_gray_additive_on_all_pairs():
    for x in ELEMENTS:
        for y in ELEMENTS:
            gx, gy = gray(x), gray(y)
            assert gray(ring_add(x, y)) == tuple(a ^ b for a, b in zip(gx, gy))


def test_gray_vec_block_layout():
    # (v, 1) -> blocks (0,1 | 1,0 | 0,1), packed LSB-first per block
    assert gray_vec((V, ONE)) == 0b10 | 0b01 << 2 | 0b10 << 4
    assert gray_vec((0, 0, 0)) == 0
    assert gray_vec((ONE_PLUS_V,)) == 0b111
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        vec = tuple(rng.randrange(8) for _ in range(n))
        mask = gray_vec(vec)
        assert gray_vec_inverse(mask, n) == vec
        # blockwise layout: a-parts, then b-parts, then (a+c)-parts
        for i, e in enumerate(vec):
            a, b, t3 = gray(e)
            assert (mask >> i) & 1 == a
            assert (mask >> (n + i)) & 1 == b
            assert (mask >> (2 * n + i)) & 1 == t3


def _masks():
    """Every 3n-bit mask at n <= 5, then random masks at n = 64 and 127."""
    for n in range(6):
        for mask in range(1 << 3 * n):
            yield mask, n
    rng = random.Random(30)
    for n in (64, 127):
        for _ in range(2000):
            yield rng.getrandbits(3 * n), n


def test_gray_vec_inverse_matches_per_bit_oracle():
    for mask, n in _masks():
        vec = gray_vec_inverse(mask, n)
        assert vec == gray_vec_inverse_by_bits(mask, n)
        assert gray_vec(vec) == mask


def test_inner_product_examples():
    assert ring_inner_product((V,), (V,)) == V2
    assert ring_inner_product((ONE_PLUS_V,), (V_PLUS_V2,)) == 0
    assert ring_inner_product((0, 0), (V, ONE)) == 0
    with pytest.raises(PreconditionError):
        ring_inner_product((V,), (V, V))


def test_inner_product_bridge_random():
    # binary dot of Gray images == v^2 coefficient of the ring inner product
    rng = random.Random(20)
    for _ in range(2000):
        n = rng.randint(1, 8)
        x = tuple(rng.randrange(8) for _ in range(n))
        y = tuple(rng.randrange(8) for _ in range(n))
        binary_dot = bin(gray_vec(x) & gray_vec(y)).count("1") & 1
        assert binary_dot == (ring_inner_product(x, y) >> 2) & 1


def test_lee_weight_vec_and_scale():
    assert lee_weight_vec((ONE_PLUS_V, V)) == 4
    assert scale_vec(V, (ONE, V)) == (V, V2)


def test_elem_text_round_trip():
    assert format_elem(0) == "0"
    assert format_elem(ONE_PLUS_V2) == "1+v^2"
    assert format_elem(V_PLUS_V2) == "v+v^2"
    for x in ELEMENTS:
        assert parse_elem(format_elem(x)) == x
    assert format_vec((V, 0)) == "(v, 0)"
    with pytest.raises(ParseError):
        parse_elem("v^3")


def test_format_vec_is_the_join_of_format_elem():
    for n in range(4):
        for vec in product(ELEMENTS, repeat=n):
            assert format_vec(vec) == "(" + ", ".join(format_elem(e) for e in vec) + ")"
