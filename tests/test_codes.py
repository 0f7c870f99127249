import random
from functools import cmp_to_key, partial
from itertools import product

import pytest

from vcubed.codes import (
    DEFAULT_ENUM_CAP,
    BinaryCode,
    RingCode,
    _combination_mask,
    _dual_key,
    _image_projections,
    _key_image,
    _least_outside,
    _mask_span,
    _mirrored_rows,
    _product_order_key,
    _reduced,
    _single_image,
    audit_decomposition_image,
    audit_triple,
    binary_cyclic,
    gray_image_basis,
    min_hamming,
    rref,
)
from vcubed import codes, gf2poly, quantum, reference
from vcubed.cli import AUDIT_CATALOG
from vcubed.errors import CapExceeded, PreconditionError
from vcubed.gf2poly import enumerate_divisors, factor_xn1, parse_poly
from vcubed.quantum import css_from_triple, search_triples
from vcubed.reference import REFERENCE_ROWS, ReferenceRow, reproduce_row
from vcubed.ring import gray_vec, gray_vec_inverse, tuple_order_key
from oracles import (
    ONE,
    ONE_PLUS_V,
    ONE_PLUS_V2,
    V,
    V2,
    V_PLUS_V2,
    _least_ring_vector,
    _unit_multiple,
    _v_multiples,
    audit_decomposition,
    audit_decomposition_by_sets,
    audit_triple_per_claim,
    binary_cyclic_banded,
    binary_dual_direct,
    binary_min_weight_direct,
    build_ring_cyclic,
    check_enum_cap,
    codewords,
    combined_generator,
    cyclic_image,
    dual_binary,
    dual_polys,
    dual_ring_bruteforce,
    dual_ring_formula,
    dual_witness_by_walk,
    gray_image_basis_by_shifts,
    image_projections_by_rref,
    is_cyclic,
    is_quasicyclic3,
    is_self_orthogonal,
    key_image_by_rank,
    mask_span_by_rows,
    min_lee_enum,
    nullspace,
    phi,
    phi_by_thirds,
    ring_inner_product,
    rref_by_columns,
    scale_vec,
    sigma,
    span_by_all_combinations,
    span_enumerate,
)

P = parse_poly


# ---------------------------------------------------------------------------
# Binary linear algebra.
# ---------------------------------------------------------------------------


def test_rref_canonical_and_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 10)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        basis = rref(rows)
        assert rref(basis) == basis
        pivots = [(r & -r).bit_length() - 1 for r in basis]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        # every original row reduces to zero against the basis
        code = BinaryCode(n, basis)
        for r in rows:
            assert code.contains(r)


def _mixed_rows(rng, width):
    """0 to 60 rows of the given width, mixing dense, very sparse, zero,
    repeated and dependent rows, some drawn from a span of low rank."""
    base = [rng.getrandbits(width) for _ in range(rng.randint(1, 6))]
    rows = []
    for _ in range(rng.randint(0, 60)):
        kind = rng.randrange(6)
        if kind == 0:
            row = rng.getrandbits(width)
        elif kind == 1:
            row = 0
            for _ in range(rng.randint(1, 3)):
                row |= 1 << rng.randrange(width)
        elif kind == 2:
            row = 0
        elif kind == 3 and rows:
            row = rng.choice(rows)
        elif kind == 4 and len(rows) >= 2:
            row = rng.choice(rows) ^ rng.choice(rows)
        else:
            row = 0
            for b in base:
                if rng.getrandbits(1):
                    row ^= b
        rows.append(row)
    return rows


def test_rref_matches_column_scan_oracle():
    rng = random.Random(71)
    widths = [1, 2, 3, 381] + [rng.randint(1, 381) for _ in range(2096)]
    for width in widths:
        rows = _mixed_rows(rng, width)
        assert rref(rows) == rref_by_columns(rows, width)
        assert tuple(_reduced(rows)) == rref(rows)[::-1]  # highest pivot first
    assert rref([]) == rref([0, 0]) == ()
    assert rref([0b110, 0b011, 0b101]) == (0b101, 0b110)


def test_nullspace_properties():
    rng = random.Random(73)
    for _ in range(400):
        width = rng.randint(1, 120)
        rows = _mixed_rows(rng, width)
        null = nullspace(rows, width)
        for v in null:
            for r in rows:
                assert (v & r).bit_count() % 2 == 0
        assert len(null) == width - len(rref(rows))
        assert rref(null) == null
        assert nullspace(null, width) == rref(rows)


def test_rref_row_space_equality_is_basis_equality():
    rows_a = [0b101, 0b011]
    rows_b = [0b110, 0b011]  # same span of F_2^3 subspace
    assert rref(rows_a) == rref(rows_b)


def test_binary_cyclic_dims():
    assert binary_cyclic(7, P("x^3+x+1")).dim == 4
    assert binary_cyclic(8, P("x^3+x^2+x+1")).dim == 5
    assert binary_cyclic(5, 1).dim == 5
    assert binary_cyclic(4, P("x^4+1")).dim == 0
    with pytest.raises(PreconditionError):
        binary_cyclic(7, P("x^2+1"))


def test_binary_cyclic_is_the_banded_generator_matrix():
    # binary_cyclic reads <g> off the cached span of the Gray mask (g|0|0);
    # it is the row space of the banded rows g*x^i on all 9,410 divisors of
    # x^n - 1 at n <= 32, 45 and 63, and x^n - 1 itself gives the zero code
    checked = 0
    for n in (*range(1, 33), 45, 63):
        for g in enumerate_divisors(n, cap=1 << 13):
            assert binary_cyclic(n, g) == binary_cyclic_banded(n, g), (n, hex(g))
            checked += 1
        assert binary_cyclic(n, gf2poly.xn1(n)) == BinaryCode(n, ())
    assert checked == 9410
    for n, g in ((7, P("x^2+1")), (8, P("x^2+x+1")), (63, P("x^2+1")), (4, 0)):
        with pytest.raises(PreconditionError, match="does not divide"):
            binary_cyclic(n, g)


def test_binary_cyclic_codeword_count_oracle():
    code = binary_cyclic(7, P("x^3+x+1"))
    words = set(codewords(code))
    assert len(words) == 16
    # explicit closure under addition
    for a in words:
        for b in words:
            assert (a ^ b) in words


def test_min_hamming_examples():
    assert min_hamming(binary_cyclic(7, P("x^3+x+1"))) == 3
    assert min_hamming(binary_cyclic(8, P("x^3+x^2+x+1"))) == 2
    assert min_hamming(binary_cyclic(5, 1)) == 1
    with pytest.raises(PreconditionError):
        min_hamming(binary_cyclic(4, P("x^4+1")))
    with pytest.raises(CapExceeded):
        min_hamming(binary_cyclic(15, P("x+1")), cap=1 << 10)


def test_min_hamming_matches_direct_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 9)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        code = BinaryCode.from_rows(n, rows)
        if code.dim == 0:
            continue
        assert min_hamming(code) == binary_min_weight_direct(code.basis, n)
    # long codes, where the weight-ordered search stops after few row sums
    for _ in range(120):
        n = rng.randint(10, 40)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 14))]
        code = BinaryCode.from_rows(n, rows)
        assert min_hamming(code) == binary_min_weight_direct(code.basis, n)


@pytest.mark.parametrize("n, g, d", [
    (7, "x^3+x+1", 3),                      # Hamming [7,4,3]
    (15, "x^10+x^8+x^5+x^4+x^2+x+1", 7),    # BCH [15,5,7]
    (23, "x^11+x^10+x^6+x^5+x^4+x^2+1", 7),  # Golay [23,12,7]
])
def test_min_hamming_on_known_codes(n, g, d):
    code = binary_cyclic(n, P(g))
    assert min_hamming(code) == binary_min_weight_direct(code.basis, n) == d


def test_min_hamming_on_repetition_codes():
    for n in range(1, 41):
        code = binary_cyclic(n, (1 << n) - 1)  # [n,1,n]
        assert min_hamming(code) == binary_min_weight_direct(code.basis, n) == n


def test_min_hamming_checks_cap_and_zero_code_first():
    # the full space has weight-1 rows, yet the size cap still fires
    full = binary_cyclic(21, 1)
    with pytest.raises(CapExceeded, match=r"^2\^21 codewords exceed distance cap 1048576$"):
        min_hamming(full, cap=1 << 20)
    assert min_hamming(full, cap=1 << 21) == 1
    with pytest.raises(PreconditionError, match="^zero code has no nonzero codeword$"):
        min_hamming(BinaryCode(21, ()))


def test_dual_binary_examples():
    full = binary_cyclic(6, 1)
    assert dual_binary(full).dim == 0
    # dual of the [8,5] code generated by (x+1)^3 is the [8,3] code
    # generated by the (self-reciprocal) quotient x^5+x^4+x+1
    assert dual_binary(binary_cyclic(8, P("x^3+x^2+x+1"))) == binary_cyclic(8, P("x^5+x^4+x+1"))
    repetition = BinaryCode.from_rows(6, [0b111111])
    even = dual_binary(repetition)
    assert even.dim == 5
    assert all(bin(w).count("1") % 2 == 0 for w in codewords(even))


def test_dual_binary_matches_direct_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        code = BinaryCode.from_rows(n, rows)
        dual = dual_binary(code)
        assert dual.dim == n - code.dim
        assert set(codewords(dual)) == binary_dual_direct(code.basis, n)
        assert dual_binary(dual) == code


def test_nullspace_orthogonality():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        for v in nullspace(rows, n):
            for r in rows:
                assert bin(v & r).count("1") % 2 == 0


# ---------------------------------------------------------------------------
# Ring code spans.
# ---------------------------------------------------------------------------


def test_span_examples():
    assert span_enumerate(RingCode(1, ((ONE_PLUS_V,),))) == {
        (0,), (ONE_PLUS_V,), (ONE_PLUS_V2,), (V_PLUS_V2,)
    }
    assert span_enumerate(RingCode(1, ((V,),))) == {(0,), (V,), (V2,), (V_PLUS_V2,)}
    assert span_enumerate(RingCode(1, ())) == {(0,)}


def test_span_matches_all_combinations_oracle():
    cases = [
        (1, [(ONE_PLUS_V,)], False),
        (1, [(V,)], False),
        (2, [(V, 0)], False),
        (2, [(ONE_PLUS_V, V)], False),
        (2, [(V, V), (ONE_PLUS_V2, 0)], False),
        (2, [(ONE, ONE)], True),
        (3, [(V, 0, ONE_PLUS_V2)], True),
    ]
    for n, gens, cyclic in cases:
        code = RingCode(n, tuple(tuple(g) for g in gens), cyclic=cyclic)
        assert span_enumerate(code) == span_by_all_combinations(gens, n, cyclic)


def test_span_cap():
    with pytest.raises(CapExceeded):
        span_enumerate(build_ring_cyclic(4, 1, 1, 1), cap=100)


def test_build_ring_cyclic_examples():
    f = P("x^3+x^2+x+1")
    code = build_ring_cyclic(8, f, f, f)
    assert gray_image_basis(code).dim == 15  # |C| = 2^15
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    assert diag == {(s, s) for s in range(8)}
    assert span_enumerate(build_ring_cyclic(1, P("x+1"), P("x+1"), P("x+1"))) == {(0,)}
    with pytest.raises(PreconditionError):
        build_ring_cyclic(8, P("x^2+x+1"), f, f)


def test_key_image_equals_the_rank_path_on_every_triple():
    # the image of the code key (gcd(f2, f3), gcd(f1, f2), f1), from the
    # key's own generators by the rank path (cyclic_image), is the image of
    # the triple's own generators; _key_image is held to the key's rank
    # path by test_key_image_from_its_parts_equals_the_rank_path
    for n in (*range(1, 10), 12):
        divisors = enumerate_divisors(n)
        for fs in product(divisors, repeat=3):
            assert cyclic_image(n, *fs) == gray_image_basis(build_ring_cyclic(n, *fs)), (n, fs)


@pytest.mark.parametrize("n, code_keys, all_keys", [
    (1, 5, 6), (2, 13, 17), (3, 25, 34), (4, 45, 65), (5, 25, 34), (6, 169, 257),
    (7, 125, 186), (8, 201, 321), (9, 125, 186), (15, 3125, 5226),
    (16, 1105, 1921), (21, 15625, 27154)])
def test_key_image_from_its_parts_equals_the_rank_path(n, code_keys, all_keys):
    # _key_image concatenates the span of (g_a|0|0) and the Plotkin part
    # (_plotkin_span); the oracle eliminates the union of the three
    # generators' spans, on every code key and dual key of every triple
    divisors = enumerate_divisors(n)
    gcds = {(f, g): gf2poly.poly_gcd(f, g) for f in divisors for g in divisors}
    keys = {(gcds[f2, f3], gcds[f1, f2], f1) for f1, f2, f3 in product(divisors, repeat=3)}
    assert len(keys) == code_keys
    keys |= {_dual_key(n, *key) for key in keys}
    assert len(keys) == all_keys
    for key in sorted(keys):
        assert _key_image(n, *key) == key_image_by_rank(n, *key), (n, key)


def _canonical_keys(n):
    """Every (g_a, g_u, g_v) of divisors of x^n - 1 with g_u | g_v."""
    divisors = enumerate_divisors(n)
    return [(g_a, g_u, g_v) for g_a in divisors for g_u in divisors
            for g_v in divisors if gf2poly.poly_mod(g_v, g_u) == 0]


def test_key_image_matches_shift_oracle_on_every_canonical_key():
    # _key_image lays out the key's generators (1+v^2) g_a, (v+v^2) g_u and
    # v^2 g_v as Gray masks; compare with the oracle's ring generators,
    # scaled coefficient by coefficient, on every canonical key, not only
    # the keys of triples (the dual keys of the audits include others)
    for n in range(1, 7):
        for key in _canonical_keys(n):
            gens = tuple(_unit_multiple(unit, g, n)
                         for unit, g in zip((ONE_PLUS_V2, V_PLUS_V2, V2), key))
            oracle = gray_image_basis_by_shifts(RingCode(n, gens, cyclic=True))
            assert _key_image(n, *key) == oracle, (n, key)


def test_build_ring_cyclic_closed_under_shift():
    for n, fs in [(2, ("x+1",) * 3), (3, ("x+1", "x^2+x+1", "1")),
                  (4, ("x^2+1", "x+1", "x^3+x^2+x+1"))]:
        span = span_enumerate(build_ring_cyclic(n, *map(P, fs)))
        assert is_cyclic(span)


def test_projections_examples():
    # _image_projections gives C1 and C2; the oracle's C3 equals C2
    image = gray_image_basis(RingCode(1, ((ONE_PLUS_V,),)))
    c1, c2 = _image_projections(image)
    c3 = image_projections_by_rref(image)[2]
    assert (set(codewords(c1)), set(codewords(c2)), set(codewords(c3))) == (
        {0, 1}, {0, 1}, {0, 1}
    )
    diag = gray_image_basis(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    zero = gray_image_basis(RingCode(2, ()))
    for image, words in ((diag, {0b00, 0b11}), (zero, {0})):
        for c in (*_image_projections(image), image_projections_by_rref(image)[2]):
            assert set(codewords(c)) == words


def test_projections_read_off_the_basis_match_rref_of_thirds():
    # _image_projections reads C1 and C2 off the basis of an R-linear code's
    # image, and C3 = C2; the oracle takes the rref of each third, on every
    # key image and single image at n <= 6 and the catalog codes
    images = [gray_image_basis(RingCode(n, gens)) for _, n, gens in AUDIT_CATALOG]
    for n in range(1, 7):
        images += [_key_image(n, *key) for key in _canonical_keys(n)]
        images += [_single_image(n, *fs) for fs in product(enumerate_divisors(n), repeat=3)]
    assert len(images) == 8 + 495 + 1017
    for image in images:
        oracle = image_projections_by_rref(image)
        assert _image_projections(image) == oracle[:2], image
        assert oracle[2] == oracle[1], image


def test_dual_ring_bruteforce_examples():
    ideal_v = span_enumerate(RingCode(1, ((V,),)))
    assert dual_ring_bruteforce(ideal_v, 1) == {(0,), (ONE_PLUS_V2,)}
    zero = span_enumerate(RingCode(1, ()))
    assert dual_ring_bruteforce(zero, 1) == {(e,) for e in range(8)}
    full = span_enumerate(RingCode(1, ((ONE,),)))
    assert dual_ring_bruteforce(full, 1) == {(0,)}
    with pytest.raises(CapExceeded):
        dual_ring_bruteforce(zero, 1, cap=4)


def test_dual_product_law_and_involution_small():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 3)
        gens = tuple(
            tuple(rng.randrange(8) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        )
        span = span_enumerate(RingCode(n, gens))
        dual = dual_ring_bruteforce(span, n)
        assert len(span) * len(dual) == 8 ** n
        assert dual_ring_bruteforce(dual, n) == span


def test_dual_ring_formula_degenerate_case():
    # all fi = x+1 at n=1 gives the zero code; the claimed dual generator
    # collapses to v^2 and only spans the 4-element ideal, not all of R
    formula = dual_ring_formula(1, P("x+1"), P("x+1"), P("x+1"))
    assert formula.generators == ((V2,),)
    span = span_enumerate(formula)
    assert span == {(0,), (V,), (V2,), (V_PLUS_V2,)}
    brute = dual_ring_bruteforce(span_enumerate(RingCode(1, ())), 1)
    assert len(brute) == 8  # true dual of the zero code is everything
    assert span != brute


def test_dual_ring_formula_collapses_for_equal_triples():
    # all hi* equal, so the combined generator is v^2 * h*; at n=8 with
    # f = (x+1)^3 the quotient h = x^5+x^4+x+1 is self-reciprocal, and the
    # single generator only spans v/v^2-multiples: 2^6 of the dual's 2^9
    f = P("x^3+x^2+x+1")
    formula = dual_ring_formula(8, f, f, f)
    h = P("x^5+x^4+x+1")
    expected = tuple(V2 if (h >> i) & 1 else 0 for i in range(8))
    assert formula.generators == (expected,)
    assert gray_image_basis(formula).dim == 6
    assert gray_image_basis(build_ring_cyclic(8, f, f, f)).dim == 15  # dual dim 24-15=9


def test_dual_polynomial_map_is_an_involution_on_divisors():
    # f -> h* = reciprocal((x^n - 1)/f) permutes the divisors of x^n - 1 and
    # undoes itself, so the audits of all divisor triples ask for each
    # single-generator image twice
    for n in range(1, 41):
        divisors = enumerate_divisors(n)
        duals = [codes._dual_poly(n, f) for f in divisors]
        assert sorted(duals) == divisors, n
        assert [codes._dual_poly(n, h) for h in duals] == divisors, n


def test_dual_key_matches_the_null_space_on_every_canonical_key():
    # the image of the dual key is the binary dual of the key's image; the
    # dual key is again canonical, and _dual_key undoes itself
    keys = [(n, key) for n in range(1, 11) for key in _canonical_keys(n)]
    assert len(keys) == 1656
    for n, key in keys:
        dual_key = _dual_key(n, *key)
        assert _key_image(n, *dual_key) == dual_binary(_key_image(n, *key)), (n, key)
        assert gf2poly.poly_mod(dual_key[2], dual_key[1]) == 0, (n, key)
        assert _dual_key(n, *dual_key) == key, (n, key)


def test_dual_formula_audit_diag_code():
    # (2, x+1 x3): the diagonal code is self-dual; the single-generator
    # claim misses half of it, while the three-generator variant matches.
    audit = audit_triple(2, P("x+1"), P("x+1"), P("x+1")).dual_formula
    assert audit.brute_dual_size == 8
    assert audit.formula_span_size == 4
    assert not audit.formula_matches_brute
    assert audit.witness is not None
    assert audit.three_generator_matches_brute
    assert audit.size_claim_matches  # 2^(1+1+1) == 8
    assert audit.code_size * audit.brute_dual_size == 8 ** 2  # |C| |C^perp| = 8^n


def test_min_lee_examples():
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    assert min_lee_enum(diag) == 2
    assert min_lee_enum(span_enumerate(RingCode(1, ((ONE_PLUS_V2,),)))) == 1
    assert min_lee_enum(span_enumerate(RingCode(1, ((ONE_PLUS_V,),)))) == 1
    with pytest.raises(PreconditionError):
        min_lee_enum(span_enumerate(RingCode(1, ())))


def test_min_lee_formula_examples():
    # the claimed distance: the least of the three component distances
    c = binary_cyclic(8, P("x^3+x^2+x+1"))
    assert min(min_hamming(x) for x in (c, c, c)) == 2
    h = binary_cyclic(7, P("x^3+x+1"))
    assert min(min_hamming(x) for x in (h, h, h)) == 3
    c15 = binary_cyclic(15, P("x^4+x+1"))
    assert min(min_hamming(x) for x in (c15, c15, c15)) == 3
    zero = binary_cyclic(4, P("x^4+1"))
    with pytest.raises(PreconditionError):
        min(min_hamming(x) for x in (c, zero, c))


def test_min_lee_enum_equals_gray_min_hamming():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = tuple(
            tuple(rng.randrange(8) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        )
        code = RingCode(n, gens, cyclic=bool(rng.getrandbits(1)))
        span = span_enumerate(code)
        image = gray_image_basis(code)
        if image.dim == 0:
            continue
        assert min_lee_enum(span) == min_hamming(image)


def test_sigma_phi_examples():
    assert sigma((ONE, V, V2)) == (V2, ONE, V)
    assert sigma((ONE_PLUS_V,)) == (ONE_PLUS_V,)
    # phi on (1,0 | 0,1 | 1,1) -> (0,1 | 1,0 | 1,1), n = 2
    mask = 0b01 | 0b10 << 2 | 0b11 << 4
    assert phi(mask, 6) == 0b10 | 0b01 << 2 | 0b11 << 4
    with pytest.raises(PreconditionError):
        phi(0b1, 4)


def test_phi_matches_per_third_rotation():
    for n in range(1, 5):
        for mask in range(1 << (3 * n)):
            assert phi(mask, 3 * n) == phi_by_thirds(mask, 3 * n)
    rng = random.Random(43)
    for n in [1, 127] + [rng.randint(1, 127) for _ in range(998)]:
        mask = rng.getrandbits(3 * n)
        assert phi(mask, 3 * n) == phi_by_thirds(mask, 3 * n)
        if n == 1:
            assert phi(mask, 3) == mask


def test_gray_shift_commutation_random():
    rng = random.Random(37)
    for _ in range(2000):
        n = rng.randint(1, 16)
        vec = tuple(rng.randrange(8) for _ in range(n))
        assert gray_vec(sigma(vec)) == phi(gray_vec(vec), 3 * n)


def test_cyclic_and_quasicyclic_checks():
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    assert is_cyclic(diag)
    masks = {gray_vec(v) for v in diag}
    assert is_quasicyclic3(masks, 6)
    not_cyclic = span_enumerate(RingCode(2, ((V, 0),)))
    assert not is_cyclic(not_cyclic)  # sigma(v,0) = (0,v) is outside


def test_gray_image_basis_examples():
    f = P("x^3+x^2+x+1")
    assert gray_image_basis(build_ring_cyclic(8, f, f, f)).dim == 15
    assert gray_image_basis(RingCode(3, ())).dim == 0
    g = P("x^3+x+1")
    code = build_ring_cyclic(7, g, g, g)
    image = gray_image_basis(code)
    assert (3 * 7, image.dim) == (21, 12)
    # cross-check the rank against direct enumeration of the Gray image
    span = span_enumerate(code)
    assert len(span) == image.size
    assert {gray_vec(v) for v in span} == set(codewords(image))


def test_mask_span_matches_the_span_by_phi_and_v_multiples():
    rng = random.Random(2503)
    for n in range(1, 13):
        masks = [0, (1 << 3 * n) - 1] + [rng.getrandbits(3 * n) for _ in range(150)]
        if n <= 2:
            masks = range(1 << 3 * n)
        for mask in masks:
            for cyclic in (False, True):
                code = RingCode(n, (gray_vec_inverse(mask, n),), cyclic)
                assert _mask_span(mask, n, cyclic) == gray_image_basis_by_shifts(code).basis


def test_mask_span_matches_the_span_of_the_full_rows():
    # _mask_span splits every mask into (A|0|0) and (0|B|C); the oracle
    # eliminates the full 3n-bit rows at once
    rng = random.Random(3107)
    cases = [(n, range(1 << 3 * n)) for n in range(1, 5)]
    cases += [(n, [rng.getrandbits(3 * n) for _ in range(200)]) for n in (21, 63)]
    for n, masks in cases:
        for mask in masks:
            for cyclic in (False, True):
                assert _mask_span(mask, n, cyclic) == mask_span_by_rows(mask, n, cyclic), (
                    n, mask, cyclic)


def test_v_multiples_match_ring_scaling():
    # v*x has Gray mask (0|C|B) and v^2*x has (0|B|C), for x with mask (A|B|C)
    def check(vec):
        n = len(vec)
        assert _v_multiples(gray_vec(vec), n) == (
            gray_vec(scale_vec(V, vec)), gray_vec(scale_vec(V2, vec))
        )

    for n in range(1, 4):
        for vec in product(range(8), repeat=n):
            check(vec)
    rng = random.Random(41)
    for _ in range(300):
        check(tuple(rng.randrange(8) for _ in range(rng.randint(1, 21))))


def _gray_image_by_ring_scaling(code):
    # the replaced construction: scale every (shifted) generator by 1, v and
    # v^2 as ring tuples, then take Gray images
    rows = []
    for gen in code.generators:
        for _ in range(code.n if code.cyclic else 1):
            rows += [gray_vec(scale_vec(u, gen)) for u in (ONE, V, V2)]
            gen = sigma(gen)
    return BinaryCode.from_rows(3 * code.n, rows)


def test_generator_layouts_match_unit_coefficients():
    # _combination_mask lays out v*f1, (1+v)*f2 and (1+v^2)*f3 through Gray
    # masks; compare with the coefficient vectors and with the oracle's
    # combined generator, summed by ring addition
    for n in range(1, 9):
        for fs in product(enumerate_divisors(n), repeat=3):
            # x^n - 1 is the only divisor of degree n; it reduces to 0
            reduced = [0 if f >> n else f for f in fs]
            vecs = [
                tuple(unit if (f >> i) & 1 else 0 for i in range(n))
                for unit, f in zip((V, ONE_PLUS_V, ONE_PLUS_V2), reduced)
            ]
            for slot, (f, vec) in enumerate(zip(reduced, vecs)):
                thirds = [0, 0, 0]
                thirds[slot] = f
                assert _combination_mask(*thirds, n) == gray_vec(vec), (n, fs, slot)
            assert combined_generator(n, *fs) == tuple(
                x ^ y ^ z for x, y, z in zip(*vecs)), (n, fs)
            assert _combination_mask(*reduced, n) == gray_vec(
                combined_generator(n, *fs)), (n, fs)


def test_gray_image_basis_matches_ring_scaling():
    for n in range(1, 7):
        for fs in product(enumerate_divisors(n), repeat=3):
            for code in (build_ring_cyclic(n, *fs),
                         RingCode(n, (combined_generator(n, *fs),), cyclic=True)):
                assert gray_image_basis(code) == _gray_image_by_ring_scaling(code), (n, fs)
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 12)
        gens = tuple(
            tuple(rng.randrange(8) for _ in range(n))
            for _ in range(rng.randint(0, 3))
        )
        code = RingCode(n, gens, cyclic=bool(rng.getrandbits(1)))
        assert gray_image_basis(code) == _gray_image_by_ring_scaling(code)


def test_gray_image_basis_matches_shift_oracle():
    # the image is the union of per-generator spans, each memoised; compare
    # with one elimination over every generator's shifts and v-multiples
    codes = [build_ring_cyclic(n, *fs)
             for n in range(1, 7) for fs in product(enumerate_divisors(n), repeat=3)]
    for n in range(1, 5):
        for fs in product(enumerate_divisors(n), repeat=3):
            codes += [RingCode(n, (combined_generator(n, *fs),), cyclic=True),
                      dual_ring_formula(n, *fs)]
    codes += [RingCode(n, gens) for _, n, gens in AUDIT_CATALOG]
    rng = random.Random(83)
    codes += [RingCode(n, _random_generators(rng, n), cyclic=bool(rng.getrandbits(1)))
              for n in (rng.randint(1, 10) for _ in range(200))]
    assert sum(code.cyclic for code in codes[-200:]) in range(50, 151)
    for code in codes:
        assert gray_image_basis(code) == gray_image_basis_by_shifts(code), code


def test_single_image_matches_shift_oracle():
    # _single_image spans the two parts of the combined generator's Gray
    # mask; compare with the oracle's generator, laid out from unit
    # coefficients and spanned whole, on all 2,770 divisor triples at n <= 9
    triples = [(n, fs) for n in range(1, 10)
               for fs in product(enumerate_divisors(n), repeat=3)]
    assert len(triples) == 2770
    for n, fs in triples:
        oracle = gray_image_basis_by_shifts(
            RingCode(n, (combined_generator(n, *fs),), cyclic=True))
        assert _single_image(n, *fs) == oracle, (n, fs)


def test_self_orthogonality_detection():
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    assert is_self_orthogonal(diag, 2)  # (s,s).(t,t) = 2st = 0
    full = span_enumerate(RingCode(1, ((ONE,),)))
    assert not is_self_orthogonal(full, 1)
    # exhaustive cross-check against the definition
    for x in diag:
        for y in diag:
            assert ring_inner_product(x, y) == 0


# ---------------------------------------------------------------------------
# Decomposition audits.
# ---------------------------------------------------------------------------


def test_audit_decomposition_counterexample():
    span = span_enumerate(RingCode(1, ((ONE_PLUS_V,),)))
    audit = audit_decomposition(span, 1)
    assert audit.code_size == 4
    assert audit.product_size == 8
    assert not audit.tensor_equal
    # hand-verified minimal witness: gray triple (0,0,1) = v^2 is in the
    # product of projections but v^2 is not a codeword
    assert audit.tensor_witness == (V2,)
    assert (V2,) not in span
    assert not audit.passed


def test_audit_decomposition_tensor_match_for_ideal_v():
    span = span_enumerate(RingCode(1, ((V,),)))
    audit = audit_decomposition(span, 1)
    assert audit.tensor_equal  # psi(C) = {0} x {0,1} x {0,1}
    assert audit.projection_sizes == (1, 2, 2)
    # ... but the reconstruction lands on the ideal <1+v>, not <v>:
    # a genuine counterexample to the reconstruction claim.
    assert not audit.reconstruction_equal
    assert audit.reconstruction_witness is not None


def test_audit_decomposition_trivial_and_equal_triple():
    zero = span_enumerate(RingCode(1, ()))
    assert audit_decomposition(zero, 1).passed
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    audit = audit_decomposition(diag, 2)
    assert audit.passed
    assert audit.code_size == 8
    assert audit.product_size == 8


def test_audit_size_formula():
    f = P("x^3+x^2+x+1")
    audit = audit_triple(8, f, f, f).size
    assert audit.matches and audit.rank_log2 == 15
    # distinct triple where the claimed size is wrong
    audit = audit_triple(2, 1, P("x+1"), 1).size
    assert not audit.matches
    assert audit.rank_log2 > audit.claimed_log2


def test_audit_single_generator():
    f = P("x+1")
    audit = audit_triple(2, f, f, f).single_generator
    assert not audit.equal  # v^2*(x+1) spans 4 of the 8 diagonal words
    assert audit.single_log2 == 2 and audit.code_log2 == 3
    assert audit.witness is not None
    # the witness really is generated by the three generators and missed
    # by the combined one
    span = span_enumerate(build_ring_cyclic(2, f, f, f))
    single_span = span_enumerate(
        RingCode(2, ((V2, V2),), cyclic=True)
    )
    assert audit.witness in span and audit.witness not in single_span


def test_audit_triple_matches_the_per_claim_path():
    # the one pass shares the key, its image, the h* triple, the dual key
    # and the claimed dimension among the four audits; the oracle runs each
    # audit on its own, on all 2,770 divisor triples at n <= 9
    triples = [(n, fs) for n in range(1, 10)
               for fs in product(enumerate_divisors(n), repeat=3)]
    assert len(triples) == 2770
    for n, fs in triples:
        assert audit_triple(n, *fs) == audit_triple_per_claim(n, *fs), (n, fs)


def test_single_generator_image_lies_inside_the_code():
    # v*f1 + (1+v)*f2 + (1+v^2)*f3 is a sum of the code's own generators, so
    # audit_single_generator only ever needs a witness from the code's side
    for n in range(1, 7):
        for fs in product(enumerate_divisors(n), repeat=3):
            assert cyclic_image(n, *fs).contains_code(_single_image(n, *fs)), (n, fs)


def test_audit_decomposition_matches_exhaustive_product():
    # independent re-computation of the tensor comparison at n = 2
    f = P("x+1")
    span = span_enumerate(build_ring_cyclic(2, f, f, 1))
    audit = audit_decomposition(span, 2)
    image = gray_image_basis(build_ring_cyclic(2, f, f, 1))
    c1, c2 = _image_projections(image)
    c3 = image_projections_by_rref(image)[2]
    assert c3 == c2
    tensor = set()
    for a in codewords(c1):
        for b in codewords(c2):
            for t in codewords(c3):
                tensor.add(a | b << 2 | t << 4)
    assert audit.tensor_equal == (tensor == {gray_vec(v) for v in span})


def test_audit_decomposition_reconstruction_matches_ring_tuples():
    # the reconstruction v*a + (1+v)*b + (1+v^2)*c, built coordinate by
    # coordinate as ring tuples, against the audit's (b+c | a+b | b) masks
    def by_ring_tuples(span, n):
        image = BinaryCode.from_rows(3 * n, [gray_vec(v) for v in span])
        c1, c2 = _image_projections(image)
        c3 = image_projections_by_rref(image)[2]
        assert c3 == c2
        recon = {
            tuple((V if (a >> i) & 1 else 0) ^ (ONE_PLUS_V if (b >> i) & 1 else 0)
                  ^ (ONE_PLUS_V2 if (c >> i) & 1 else 0) for i in range(n))
            for a in codewords(c1) for b in codewords(c2) for c in codewords(c3)
        }
        if recon == span:
            return True, None, ""
        if recon - span:
            return False, min(recon - span), "only_in_reconstruction"
        return False, min(span - recon), "only_in_code"

    spans = [span_enumerate(build_ring_cyclic(n, *fs))
             for n in (1, 2, 3) for fs in product(enumerate_divisors(n), repeat=3)]
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = tuple(
            tuple(rng.randrange(8) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        )
        spans.append(span_enumerate(RingCode(n, gens)))
    for span in spans:
        n = len(next(iter(span)))
        audit = audit_decomposition(span, n)
        assert (audit.reconstruction_equal, audit.reconstruction_witness,
                audit.reconstruction_witness_side) == by_ring_tuples(span, n)


# ---------------------------------------------------------------------------
# Exact ring duals on Gray masks, against the 8^n scan.
# ---------------------------------------------------------------------------


def _random_generators(rng, n):
    return tuple(
        tuple(rng.randrange(8) for _ in range(n))
        for _ in range(rng.randint(0, 3))
    )


def test_v2_coefficient_of_inner_product_is_gray_dot_product():
    # bit 2 of <x, y> is the binary dot product of the Gray masks of x and y,
    # so the Gray image of the ring dual lies in the binary dual of the image
    def check(x, y):
        dot = (gray_vec(x) & gray_vec(y)).bit_count() & 1
        assert ring_inner_product(x, y) >> 2 == dot, (x, y)

    for n in (1, 2):
        vectors = list(product(range(8), repeat=n))
        for x in vectors:
            for y in vectors:
                check(x, y)
    rng = random.Random(61)
    for _ in range(2000):
        n = rng.randint(3, 21)
        x, y = (tuple(rng.randrange(8) for _ in range(n)) for _ in range(2))
        check(x, y)


def test_ring_dual_matches_bruteforce_and_is_an_involution():
    codes = [build_ring_cyclic(n, *fs)
             for n in (1, 2, 3) for fs in product(enumerate_divisors(n), repeat=3)]
    codes += [RingCode(n, gens) for _, n, gens in AUDIT_CATALOG]
    rng = random.Random(67)
    codes += [RingCode(n, _random_generators(rng, n))
              for n in (rng.randint(1, 4) for _ in range(30))]
    # the exact ring dual is the binary dual of the Gray image, and the
    # product law |C| * |C^perp| = 8^n holds against the 8^n scan
    for code in codes:
        n = code.n
        image = gray_image_basis(code)
        dual = dual_binary(image)
        brute = dual_ring_bruteforce(span_enumerate(code), n)
        assert set(codewords(dual)) == {gray_vec(v) for v in brute}, code
        assert image.size * len(brute) == 8 ** n, code
        assert dual_binary(dual) == image, code


def test_decomposition_on_masks_matches_ring_tuple_audit():
    codes = [build_ring_cyclic(n, *fs)
             for n in (1, 2, 3) for fs in product(enumerate_divisors(n), repeat=3)]
    rng = random.Random(71)
    codes += [RingCode(n, _random_generators(rng, n))
              for n in (rng.randint(1, 3) for _ in range(40))]
    for code in codes:
        image = gray_image_basis(code)
        check_enum_cap(image, DEFAULT_ENUM_CAP)
        by_masks = BinaryCode.from_rows(3 * code.n, codewords(image))
        assert (audit_decomposition_image(by_masks)
                == audit_decomposition(span_enumerate(code), code.n)), code


def test_least_ring_vector_is_the_tuple_min():
    rng = random.Random(73)
    for n in (1, 2):
        all_masks = range(1 << (3 * n))
        for _ in range(200):
            masks = rng.sample(all_masks, rng.randint(1, 1 << (3 * n)))
            assert _least_ring_vector(masks, n) == min(gray_vec_inverse(m, n) for m in masks)
    for _ in range(300):
        n = rng.randint(3, 21)
        masks = [rng.getrandbits(3 * n) for _ in range(rng.randint(1, 40))]
        # masks that agree on a long prefix of the ring tuple
        masks += [m ^ (1 << rng.randrange(3 * n)) for m in masks]
        assert _least_ring_vector(masks, n) == min(gray_vec_inverse(m, n) for m in masks)


def test_dual_formula_audit_matches_bruteforce_sets():
    # sizes, verdicts and the witness against the 8^n scan, the claimed
    # dual's enumerated span and the tuple min of their difference
    for n in (1, 2, 3):
        for fs in product(enumerate_divisors(n), repeat=3):
            audit = audit_triple(n, *fs).dual_formula
            brute = dual_ring_bruteforce(span_enumerate(build_ring_cyclic(n, *fs)), n)
            formula = span_enumerate(dual_ring_formula(n, *fs))
            assert audit.brute_dual_size == len(brute)
            assert audit.formula_span_size == len(formula)
            assert audit.formula_matches_brute == (formula == brute)
            if brute - formula:
                expected = (min(brute - formula), "only_in_brute")
            elif formula - brute:
                expected = (min(formula - brute), "only_in_formula")
            else:
                expected = (None, "")
            assert (audit.witness, audit.witness_side) == expected, (n, fs)


# ---------------------------------------------------------------------------
# Closed-form witnesses and rank-algebra audits, against codeword walks.
# ---------------------------------------------------------------------------


def _random_rows(rng, count, bits):
    return [rng.getrandbits(bits) for _ in range(count)]


# The orders the witnesses are defined in, as sort keys on Gray masks: ring
# tuples, and the (A, B, C) thirds as in product(sorted(C1), sorted(C2),
# sorted(C3)).  Each audit's order key must give the same order.
def _ring_order(n):
    return lambda mask: gray_vec_inverse(mask, n)


def _product_order(n):
    full = (1 << n) - 1
    return lambda mask: (mask & full, (mask >> n) & full, mask >> (2 * n))


def _tuple_order_key(n):
    """ring.tuple_order_key at length n, as a key of one mask."""
    return partial(tuple_order_key, n=n)


def _mirrored(key):
    """Sort key for the mirrored order of key(mask): of two keys, the one
    with a 0 at the lowest bit where they differ is less."""
    def compare(a, b):
        diff = key(a) ^ key(b)
        return 0 if not diff else 1 if key(a) & diff & -diff else -1
    return cmp_to_key(compare)


def test_least_outside_matches_walk():
    # the least member of x outside y under each order key, against a walk
    # of x; y inside x, partial overlap and y = 0 all occur
    rng = random.Random(79)
    cases = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        bits = 3 * n
        shared = _random_rows(rng, rng.randint(0, 4), bits)
        x = BinaryCode.from_rows(bits, shared + _random_rows(rng, rng.randint(1, 6), bits))
        kind = rng.choice(("inside", "overlap", "zero"))
        if kind == "inside":
            y = BinaryCode.from_rows(bits, [r for r in x.basis if rng.random() < 0.5])
        elif kind == "overlap":
            y = BinaryCode.from_rows(bits, shared + _random_rows(rng, rng.randint(0, 6), bits))
        else:
            y = BinaryCode(bits, ())
        if y.contains_code(x):
            continue
        cases += 1
        for key, order in ((_product_order_key(n), _product_order(n)),
                           (_tuple_order_key(n), _ring_order(n))):
            least = _least_outside(_mirrored_rows(x, key), y)
            assert x.contains(least) and not y.contains(least)
            assert least == min((m for m in codewords(x) if not y.contains(m)), key=order)
    assert cases > 250


def test_least_outside_refuses_a_contained_code():
    y = BinaryCode.from_rows(6, [0b000011, 0b001100, 0b110000])
    for x in (y, BinaryCode.from_rows(6, [0b001111]), BinaryCode(6, ())):
        with pytest.raises(PreconditionError):
            _least_outside(_mirrored_rows(x, _tuple_order_key(2)), y)


def test_least_outside_matches_walk_on_audit_inputs():
    # every pair of codes the audits compare at n <= 4, taken in both orders:
    # the claimed dual against the exact dual, and the direct sum of the
    # projections and the reconstruction against the Gray image
    pairs = set()
    for n in (1, 2, 3, 4):
        for fs in product(enumerate_divisors(n), repeat=3):
            image = cyclic_image(n, *fs)
            formula = gray_image_basis(dual_ring_formula(n, *fs))
            pairs.add((formula, dual_binary(image), _tuple_order_key, _ring_order))
            c1, c2 = _image_projections(image)
            c3 = image_projections_by_rref(image)[2]
            assert c3 == c2
            direct_sum = BinaryCode.from_rows(3 * n, [
                *c1.basis, *(b << n for b in c2.basis), *(c << (2 * n) for c in c3.basis)])
            recon = BinaryCode.from_rows(3 * n, [
                *(_combination_mask(a, 0, 0, n) for a in c1.basis),
                *(_combination_mask(0, b, 0, n) for b in c2.basis),
                *(_combination_mask(0, 0, c, n) for c in c3.basis)])
            pairs.add((direct_sum, image, _product_order_key, _product_order))
            pairs.add((recon, image, _tuple_order_key, _ring_order))
    witnesses = 0
    for a, b, order_key, order in pairs:
        n = a.n // 3
        key = order_key(n)
        for x, y in ((a, b), (b, a)):
            outside = set(codewords(x)) - set(codewords(y))
            if outside:
                assert _least_outside(_mirrored_rows(x, key), y) == min(outside, key=order(n))
                witnesses += 1
            else:
                with pytest.raises(PreconditionError):
                    _least_outside(_mirrored_rows(x, key), y)
    assert witnesses == 447


def test_ring_order_key_is_the_tuple_order():
    # ring.tuple_order_key sorts masks exactly as their ring tuples sort:
    # every 3n-bit mask at n <= 3, and random masks up to n = 127, where the
    # key is 8n bits wide
    rng = random.Random(83)
    cases = [(n, range(1 << (3 * n))) for n in (1, 2, 3)]
    cases += [(n, [rng.getrandbits(3 * n) for _ in range(2)])
              for n in (rng.randint(1, 21) for _ in range(300))]
    cases += [(n, [rng.getrandbits(3 * n) for _ in range(200)]) for n in (63, 127)]
    for n, masks in cases:
        by_key = sorted(masks, key=_mirrored(_tuple_order_key(n)))
        assert by_key == sorted(masks, key=_ring_order(n))
        assert all(tuple_order_key(m, n) >> (8 * n) == 0 for m in masks)
        # the entry 1 at the last place is the byte 0b100 at the top
        last = gray_vec((0,) * (n - 1) + (1,))
        assert tuple_order_key(last, n) == 4 << (8 * (n - 1))
    for _ in range(300):
        n = rng.randint(1, 21)
        masks = [rng.getrandbits(3 * n) for _ in range(2)]
        by_key = sorted(masks, key=_mirrored(_product_order_key(n)))
        assert by_key == sorted(masks, key=_product_order(n))


def test_decomposition_on_images_matches_set_audit():
    codes = [build_ring_cyclic(n, *fs)
             for n in (1, 2, 3, 4) for fs in product(enumerate_divisors(n), repeat=3)]
    codes += [RingCode(n, gens) for _, n, gens in AUDIT_CATALOG]
    rng = random.Random(89)
    codes += [RingCode(n, _random_generators(rng, n))
              for n in (rng.randint(1, 4) for _ in range(60))]
    for code in codes:
        image = gray_image_basis(code)
        assert (audit_decomposition_image(image)
                == audit_decomposition_by_sets(frozenset(codewords(image)), code.n)), code


def test_dual_formula_witness_matches_walk():
    for n in (1, 2, 3, 4):
        for fs in product(enumerate_divisors(n), repeat=3):
            audit = audit_triple(n, *fs).dual_formula
            assert (audit.witness, audit.witness_side) == dual_witness_by_walk(n, *fs), (n, fs)


def test_audit_verdicts_follow_key_conditions_at_n_le_9():
    # three of the proved conditions, on all 2,770 divisor triples at n <= 9:
    # tensor_equal exactly when g_u = g_v, reconstruction_equal exactly when
    # g_a = g_u = g_v, and the three-generator dual variant exactly when
    # f1 = f2 = f3 (mod x^n - 1).  The dual-formula
    # audit reads the variant's verdict and the code's size off keys, so
    # each is also checked against the images it no longer builds, and two
    # triples' images are equal exactly when their keys are.  A failing
    # tensor audit's witness is v^2*g_u, the closed form in
    # audit_decomposition_image.
    triples = failing = 0
    for n in range(1, 10):
        divisors = enumerate_divisors(n)
        images = {}
        for fs in product(divisors, repeat=3):
            triples += 1
            key = codes.code_key(n, *fs)
            image = cyclic_image(n, *fs)
            assert images.setdefault(key, image) == image
            g_a, g_u, g_v = key
            decomposition = audit_decomposition_image(image)
            assert decomposition.tensor_equal == (g_u == g_v), (n, fs)
            assert decomposition.reconstruction_equal == (g_a == g_u == g_v), (n, fs)
            if not decomposition.tensor_equal:
                failing += 1
                witness = gray_vec_inverse(g_u << (2 * n), n)
                assert decomposition.tensor_witness == witness, (n, fs)
            audit = audit_triple(n, *fs).dual_formula
            reduced = {gf2poly.poly_mod(f, gf2poly.xn1(n)) for f in fs}
            assert audit.three_generator_matches_brute == (len(reduced) == 1), (n, fs)
            dual = _key_image(n, *_dual_key(n, *key))
            assert audit.three_generator_matches_brute == (
                cyclic_image(n, *dual_polys(n, *fs)) == dual), (n, fs)
            assert audit.code_size == image.size, (n, fs)
        assert len(set(images.values())) == len(images), n
    assert (triples, failing) == (2770, 1438)
    # on the catalog codes, which have no key, the witness is (0|0|c) with c
    # the least member of C3 outside K = {y : (0|0|y) in the image}, walked
    failing = 0
    for _, n, gens in AUDIT_CATALOG:
        image = gray_image_basis(RingCode(n, gens))
        words = set(codewords(image))
        c3 = {m >> (2 * n) for m in words}
        k = {m >> (2 * n) for m in words if not m & ((1 << (2 * n)) - 1)}
        decomposition = audit_decomposition_image(image)
        assert decomposition.tensor_equal == (k == c3)
        if k != c3:
            failing += 1
            assert decomposition.tensor_witness == gray_vec_inverse(min(c3 - k) << (2 * n), n)
    assert failing == 3


def _least_walked(x, y, order, n):
    """The ring vector of the least mask of the set x outside the set y,
    under order."""
    return gray_vec_inverse(min(x - y, key=order(n)), n)


def test_audit_witnesses_are_the_least_walked_members():
    # every witness of the decomposition and dual-formula audits is the least
    # member, in the audit's own order, of the walked codeword set of one
    # side outside the other
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for fs in product(enumerate_divisors(n), repeat=3):
            image = cyclic_image(n, *fs)
            psi = set(codewords(image))
            a_set, b_set, c_set = ({(m >> (i * n)) & full for m in psi} for i in range(3))
            direct_sum = {a | b << n | c << (2 * n)
                          for a in a_set for b in b_set for c in c_set}
            recon = {_combination_mask(a, b, c, n)
                     for a in a_set for b in b_set for c in c_set}
            dec = audit_decomposition_image(image)
            assert dec.tensor_witness == (
                _least_walked(direct_sum, psi, _product_order, n)
                if direct_sum != psi else None), (n, fs)
            if recon - psi:
                expected = (_least_walked(recon, psi, _ring_order, n),
                            "only_in_reconstruction")
            elif psi - recon:
                expected = _least_walked(psi, recon, _ring_order, n), "only_in_code"
            else:
                expected = None, ""
            assert (dec.reconstruction_witness, dec.reconstruction_witness_side) == expected

            dual = set(codewords(dual_binary(image)))
            formula = set(codewords(gray_image_basis(dual_ring_formula(n, *fs))))
            if dual - formula:
                expected = _least_walked(dual, formula, _ring_order, n), "only_in_brute"
            elif formula - dual:
                expected = (_least_walked(formula, dual, _ring_order, n),
                            "only_in_formula")
            else:
                expected = None, ""
            dual_audit = audit_triple(n, *fs).dual_formula
            assert (dual_audit.witness, dual_audit.witness_side) == expected, (n, fs)


def test_cached_decomposition_audit_matches_a_fresh_one():
    # the audit is cached per distinct image; a fresh run gives the same record
    images = {cyclic_image(n, *fs)
              for n in (1, 2, 3, 4) for fs in product(enumerate_divisors(n), repeat=3)}
    assert len(images) == 88
    for image in images:
        assert audit_decomposition_image(image) == audit_decomposition_image.__wrapped__(image)


# The record classes, each with its fields in order, its defaults and a
# factory that builds a fresh instance from the library.
F8 = parse_poly("x^3+x^2+x+1")
RECORDS = [
    (codes.BinaryCode, ("n", "basis"), {}, lambda: binary_cyclic(8, F8)),
    (codes.RingCode, ("n", "generators", "cyclic"), {"cyclic": False},
     lambda: build_ring_cyclic(8, F8, F8, F8)),
    (codes.DecompositionAudit,
     ("n", "code_size", "projection_sizes", "product_size", "tensor_equal",
      "tensor_witness", "reconstruction_equal", "reconstruction_witness",
      "reconstruction_witness_side"), {},
     lambda: audit_decomposition_image.__wrapped__(cyclic_image(8, F8, F8, F8))),
    (codes.DualFormulaAudit,
     ("n", "fs", "code_size", "brute_dual_size", "formula_span_size",
      "claimed_dual_size", "formula_matches_brute", "witness", "witness_side",
      "size_claim_matches", "three_generator_matches_brute"), {},
     lambda: audit_triple(8, F8, F8, F8).dual_formula),
    (codes.SizeFormulaAudit, ("n", "fs", "rank_log2", "claimed_log2", "matches"), {},
     lambda: audit_triple(8, F8, F8, F8).size),
    (codes.SingleGeneratorAudit,
     ("n", "fs", "code_log2", "single_log2", "equal", "witness"), {},
     lambda: audit_triple(8, F8, F8, F8).single_generator),
    (codes.TripleAudit, ("decomposition", "size", "single_generator", "dual_formula"), {},
     lambda: audit_triple(8, F8, F8, F8)),
    (gf2poly.Factorization, ("n", "factors"), {}, lambda: factor_xn1(8)),
    (quantum.QuantumCodeRecord,
     ("ring_n", "f1", "f2", "f3", "n", "k", "d", "d_method", "validated", "notes"), {},
     lambda: css_from_triple(8, F8, F8, F8)),
    (quantum.SearchOutcome, ("records", "scanned", "admissible"), {},
     lambda: search_triples(8, equal_triples_only=True)),
    (reference.ReferenceRow,
     ("label", "n", "f", "published", "code_display", "dual_display"),
     {"code_display": None, "dual_display": None},
     lambda: ReferenceRow(*REFERENCE_ROWS[0])),
    (reference.RowResult,
     ("row", "computed", "record", "matches", "notes"), {},
     lambda: reproduce_row(REFERENCE_ROWS[0])),
]


@pytest.mark.parametrize("cls, fields, defaults, make", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, make):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    rec, again = make(), make()
    assert type(rec) is cls
    assert rec == again and hash(rec) == hash(again)
    assert rec == tuple(rec)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_record_defaults_and_text():
    assert RingCode(3, ((1, 0, 0),)).cyclic is False
    row = ReferenceRow("n=1", 1, "1", (3, 3, 1))
    assert (row.code_display, row.dual_display) == (None, None)
    assert repr(BinaryCode(2, (1,))) == "BinaryCode(n=2, basis=(1,))"
    assert str(css_from_triple(8, F8, F8, F8)) == "[[24,6,2]]"
