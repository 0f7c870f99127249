import random

import pytest

from vcubed.errors import CapExceeded, ParseError, PreconditionError
from vcubed.gf2poly import (
    degree,
    divides_xn1,
    divisor_of_terms,
    enumerate_divisors,
    factor_xn1,
    format_poly,
    format_terms,
    parse_poly,
    parse_terms,
    poly_divmod,
    poly_from_terms,
    poly_gcd,
    poly_hex,
    poly_mul,
    reciprocal,
    xn1,
)
from oracles import (
    derivative,
    factorization_product,
    from_coeffs,
    irreducible_by_trial_division,
    is_irreducible,
    poly_add,
    schoolbook_divmod,
    schoolbook_mul,
    to_coeffs,
)

P = parse_poly


def test_add_examples():
    assert poly_add(P("x^3+x+1"), P("x^3+x+1")) == 0
    assert poly_add(P("x+1"), 1) == P("x")
    assert poly_add(P("x^2+1"), P("x+1")) == P("x^2+x")


def test_mul_examples():
    assert poly_mul(P("x+1"), P("x+1")) == P("x^2+1")
    assert poly_mul(poly_mul(P("x+1"), P("x^3+x+1")), P("x^3+x^2+1")) == xn1(7)
    assert poly_mul(P("x^3+x^2+x+1"), P("x^5+x^4+x+1")) == xn1(8)


def test_divmod_examples():
    assert poly_divmod(xn1(8), P("x^3+x^2+x+1")) == (P("x^5+x^4+x+1"), 0)
    assert poly_divmod(P("x^3+x+1"), P("x+1")) == (P("x^2+x"), 1)
    p = P("x^6+x^2+1")
    assert poly_divmod(p, 1) == (p, 0)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(p, 0)


def test_gcd_examples():
    assert poly_gcd(P("x^4+x+1"), 0) == P("x^4+x+1")
    assert poly_gcd(P("x^2+1"), P("x^3+1")) == P("x+1")
    assert poly_gcd(P("x^3+x+1"), P("x^3+x^2+1")) == 1
    with pytest.raises(PreconditionError):
        poly_gcd(0, 0)


def test_degree_sentinel():
    assert degree(0) == -1
    assert degree(1) == 0
    assert degree(P("x^5")) == 5


def test_mul_matches_schoolbook_and_laws():
    rng = random.Random(1905)
    for _ in range(300):
        p = rng.getrandbits(12)
        q = rng.getrandbits(12)
        r = rng.getrandbits(12)
        assert poly_mul(p, q) == schoolbook_mul(p, q)
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


def test_divmod_reconstruction():
    rng = random.Random(77)
    for _ in range(300):
        p = rng.getrandbits(16)
        d = rng.getrandbits(9) | 1 << 8
        q, r = poly_divmod(p, d)
        assert (q, r) == schoolbook_divmod(p, d)
        assert poly_add(poly_mul(q, d), r) == p
        assert degree(r) < degree(d)


def test_reciprocal_examples_and_involution():
    assert reciprocal(P("x^3+x^2+1")) == P("x^3+x+1")
    assert reciprocal(P("x+1")) == P("x+1")
    assert reciprocal(P("x^6+x^5+x^4+x^2+1")) == P("x^6+x^4+x^2+x+1")
    rng = random.Random(3)
    for _ in range(200):
        f = rng.getrandbits(14) | 1
        assert reciprocal(reciprocal(f)) == f
        assert degree(reciprocal(f)) == degree(f)
    with pytest.raises(PreconditionError):
        reciprocal(P("x^2+x"))
    with pytest.raises(PreconditionError):
        reciprocal(0)


def test_reciprocal_multiplicative():
    rng = random.Random(51)
    for _ in range(200):
        f = rng.getrandbits(10) | 1
        g = rng.getrandbits(10) | 1
        assert reciprocal(poly_mul(f, g)) == poly_mul(reciprocal(f), reciprocal(g))


def test_is_irreducible_matches_trial_division_exhaustively():
    # every polynomial of degree 1..8 against the literal oracle
    for f in range(2, 1 << 9):
        assert is_irreducible(f) == irreducible_by_trial_division(f), format_poly(f)
    assert not is_irreducible(0)
    assert not is_irreducible(1)


def test_factor_paper_displays():
    assert [(format_poly(f), m) for f, m in factor_xn1(7).factors] == [
        ("x+1", 1), ("x^3+x+1", 1), ("x^3+x^2+1", 1),
    ]
    assert factor_xn1(8).factors == ((P("x+1"), 8),)
    assert factor_xn1(16).factors == ((P("x+1"), 16),)
    assert [format_poly(f) for f, _ in factor_xn1(15).factors] == [
        "x+1", "x^2+x+1", "x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1",
    ]
    assert [format_poly(f) for f, _ in factor_xn1(21).factors] == [
        "x+1", "x^2+x+1", "x^3+x+1", "x^3+x^2+1",
        "x^6+x^4+x^2+x+1", "x^6+x^5+x^4+x^2+1",
    ]


def test_factor_reconstructs_and_factors_irreducible():
    for n in range(1, 129):
        fact = factor_xn1(n)
        assert factorization_product(fact) == xn1(n)
        for f, mult in fact.factors:
            assert mult >= 1
            assert is_irreducible(f)
            if degree(f) <= 12:
                assert irreducible_by_trial_division(f)


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in (6, 9, 11, 13, 14, 20, 23, 31, 35):
        expected = {}
        for poly, mult in sympy.Poly(x ** n + 1, x, modulus=2).factor_list()[1]:
            mask = sum(
                (int(c) & 1) << i for i, c in enumerate(reversed(poly.all_coeffs()))
            )
            expected[mask] = mult
        ours = {f: m for f, m in factor_xn1(n).factors}
        assert ours == expected


def test_odd_n_squarefree():
    for n in range(1, 64, 2):
        assert poly_gcd(xn1(n), derivative(xn1(n))) == 1


def test_factor_bound():
    with pytest.raises(PreconditionError):
        factor_xn1(0)
    with pytest.raises(PreconditionError):
        factor_xn1(129)


def test_enumerate_divisors():
    assert len(enumerate_divisors(7)) == 8
    assert len(enumerate_divisors(8)) == 9
    assert enumerate_divisors(1) == [1, P("x+1")]
    for n in (6, 7, 8, 9, 15):
        fact = factor_xn1(n)
        divs = enumerate_divisors(n)
        assert len(divs) == fact.divisor_count
        assert divs == sorted(divs)
        assert len(set(divs)) == len(divs)
        for d in divs:
            assert poly_divmod(xn1(n), d)[1] == 0
    with pytest.raises(CapExceeded):
        enumerate_divisors(15, cap=10)


def test_enumerate_divisors_matches_trial_division():
    # every nonzero polynomial of degree <= n that leaves no remainder, in
    # integer order, without the factorization the divisors are built from
    for n in range(1, 13):
        trial = [f for f in range(1, 1 << (n + 1)) if schoolbook_divmod(xn1(n), f)[1] == 0]
        assert enumerate_divisors(n) == trial, n


def pow_xp1(k):
    p = 1
    for _ in range(k):
        p = poly_mul(p, 0b11)
    return p


def test_divisors_of_x8_are_powers_of_xp1():
    assert enumerate_divisors(8) == sorted(pow_xp1(k) for k in range(9))


def test_parse_format_round_trip():
    assert P("x^3+x+1") == 0b1011
    assert P("x+x") == 0
    assert P("x^6+x^5+x^4+x^2+1") == 0b1110101
    assert P("0") == 0
    assert P("0x1f") == 31
    assert P(" x^2 + x + 1 ") == 0b111
    assert format_poly(0) == "0"
    assert format_poly(1) == "1"
    assert format_poly(0b110) == "x^2+x"
    rng = random.Random(9)
    for _ in range(200):
        p = rng.getrandbits(20)
        assert P(format_poly(p)) == p
        assert P(poly_hex(p)) == p
    assert format_poly(P("1+x+x^3")) == "x^3+x+1"  # canonical descending order


def test_terms_are_the_polynomial_without_its_int():
    assert parse_terms("x^3+x+1") == (3, 1, 0)
    assert parse_terms("1+x^3+x+x^3") == (1, 0)
    assert parse_terms("x+x") == parse_terms("0") == ()
    assert parse_terms("0x1a") == (4, 3, 1)
    assert parse_terms(f"x^{1 << 40}+1") == (1 << 40, 0)
    assert format_terms((1 << 40, 0)) == f"x^{1 << 40}+1"
    assert poly_from_terms(()) == 0
    rng = random.Random(5)
    for _ in range(500):
        p = rng.getrandbits(rng.randint(1, 300))
        terms = parse_terms(format_poly(p))
        assert terms == parse_terms(poly_hex(p)) == tuple(sorted(terms, reverse=True))
        assert poly_from_terms(terms) == p
        assert format_terms(terms) == format_poly(p)


def test_divisor_of_terms_refuses_as_require_divisor_does():
    for n in range(1, 9):
        for p in range(1 << (n + 2)):
            terms = parse_terms(poly_hex(p))
            if divides_xn1(n, p):
                assert divisor_of_terms(n, terms, "f2") == p
                continue
            with pytest.raises(PreconditionError) as info:
                divisor_of_terms(n, terms, "f2")
            assert str(info.value) == f"f2 = {format_poly(p)} does not divide x^{n}+1"
    with pytest.raises(PreconditionError,
                       match=r"^f1 = x\^1099511627776\+1 does not divide x\^3\+1$"):
        divisor_of_terms(3, (1 << 40, 0), "f1")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError) as info:
        P("x^3+y+1")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        P("x^")
    with pytest.raises(ParseError):
        P("0xZZ")


@pytest.mark.parametrize("text, position", [("x^²", 0), ("x+x^١", 2), ("0x_1", 0)])
def test_parse_accepts_only_ascii_digits(text, position):
    # str.isdigit and int(s, 16) also take superscripts, other scripts'
    # digits and underscores
    with pytest.raises(ParseError) as info:
        P(text)
    assert info.value.position == position


def test_format_and_reciprocal_match_a_per_bit_reference():
    rng = random.Random(17)
    for _ in range(2000):
        p = rng.getrandbits(rng.randint(1, 200))
        coeffs = to_coeffs(p)
        terms = ["1" if i == 0 else "x" if i == 1 else f"x^{i}"
                 for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]]
        assert format_poly(p) == ("+".join(terms) or "0"), p
        if p & 1:
            assert reciprocal(p) == from_coeffs(coeffs[::-1]), p


def test_divides_xn1_matches_schoolbook_division():
    for n in range(1, 11):
        divisors = set(enumerate_divisors(n))
        for f in range(1 << (n + 2)):
            expected = f != 0 and schoolbook_divmod(xn1(n), f)[1] == 0
            assert divides_xn1(n, f) == expected == (f in divisors), (n, f)
    with pytest.raises(PreconditionError, match="n must be positive"):
        divides_xn1(0, 1)
