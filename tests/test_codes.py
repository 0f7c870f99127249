import random
from itertools import product

import pytest

from vcubed.codes import (
    BinaryCode,
    RingCode,
    _inner_product_rows,
    _least_ring_vector,
    _v_multiples,
    audit_decomposition,
    audit_decomposition_masks,
    audit_dual_formula,
    audit_single_generator,
    audit_size_formula,
    binary_cyclic,
    build_ring_cyclic,
    capped_codewords,
    combined_generator,
    dual_binary,
    dual_ring_bruteforce,
    dual_ring_formula,
    gray_image_basis,
    is_cyclic,
    is_quasicyclic3,
    is_self_orthogonal,
    min_hamming,
    min_lee_enum,
    min_lee_formula,
    nullspace,
    phi,
    projections,
    ring_dual,
    rref,
    sigma,
    span_enumerate,
)
from vcubed.cli import AUDIT_CATALOG
from vcubed.errors import CapExceeded, PreconditionError
from vcubed.gf2poly import enumerate_divisors, parse_poly
from vcubed.ring import (
    ONE,
    ONE_PLUS_V,
    ONE_PLUS_V2,
    V,
    V2,
    V_PLUS_V2,
    gray_vec,
    gray_vec_inverse,
    ring_inner_product,
    scale_vec,
)
from oracles import (
    binary_dual_direct,
    binary_min_weight_direct,
    span_by_all_combinations,
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
        basis = rref(rows, n)
        assert rref(basis, n) == basis
        pivots = [(r & -r).bit_length() - 1 for r in basis]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        # every original row reduces to zero against the basis
        code = BinaryCode(n, basis)
        for r in rows:
            assert code.contains(r)


def test_rref_row_space_equality_is_basis_equality():
    rows_a = [0b101, 0b011]
    rows_b = [0b110, 0b011]  # same span of F_2^3 subspace
    assert rref(rows_a, 3) == rref(rows_b, 3)


def test_binary_cyclic_dims():
    assert binary_cyclic(7, P("x^3+x+1")).dim == 4
    assert binary_cyclic(8, P("x^3+x^2+x+1")).dim == 5
    assert binary_cyclic(5, 1).dim == 5
    assert binary_cyclic(4, P("x^4+1")).dim == 0
    with pytest.raises(PreconditionError):
        binary_cyclic(7, P("x^2+1"))


def test_binary_cyclic_codeword_count_oracle():
    code = binary_cyclic(7, P("x^3+x+1"))
    words = set(code.codewords())
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
    assert all(bin(w).count("1") % 2 == 0 for w in even.codewords())


def test_dual_binary_matches_direct_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        code = BinaryCode.from_rows(n, rows)
        dual = dual_binary(code)
        assert dual.dim == n - code.dim
        assert set(dual.codewords()) == binary_dual_direct(code.basis, n)
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


def test_build_ring_cyclic_closed_under_shift():
    for n, fs in [(2, ("x+1",) * 3), (3, ("x+1", "x^2+x+1", "1")),
                  (4, ("x^2+1", "x+1", "x^3+x^2+x+1"))]:
        span = span_enumerate(build_ring_cyclic(n, *map(P, fs)))
        assert is_cyclic(span)


def test_projections_examples():
    span = span_enumerate(RingCode(1, ((ONE_PLUS_V,),)))
    c1, c2, c3 = projections(span, 1)
    assert (set(c1.codewords()), set(c2.codewords()), set(c3.codewords())) == (
        {0, 1}, {0, 1}, {0, 1}
    )
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    for c in projections(diag, 2):
        assert set(c.codewords()) == {0b00, 0b11}
    zero = span_enumerate(RingCode(2, ()))
    for c in projections(zero, 2):
        assert set(c.codewords()) == {0}


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


def test_dual_formula_audit_diag_code():
    # (2, x+1 x3): the diagonal code is self-dual; the single-generator
    # claim misses half of it, while the three-generator variant matches.
    audit = audit_dual_formula(2, P("x+1"), P("x+1"), P("x+1"))
    assert audit.brute_dual_size == 8
    assert audit.formula_span_size == 4
    assert not audit.formula_matches_brute
    assert audit.witness is not None
    assert audit.three_generator_matches_brute
    assert audit.size_claim_matches  # 2^(1+1+1) == 8
    assert audit.product_law_ok


def test_min_lee_examples():
    diag = span_enumerate(build_ring_cyclic(2, P("x+1"), P("x+1"), P("x+1")))
    assert min_lee_enum(diag) == 2
    assert min_lee_enum(span_enumerate(RingCode(1, ((ONE_PLUS_V2,),)))) == 1
    assert min_lee_enum(span_enumerate(RingCode(1, ((ONE_PLUS_V,),)))) == 1
    with pytest.raises(PreconditionError):
        min_lee_enum(span_enumerate(RingCode(1, ())))


def test_min_lee_formula_examples():
    c = binary_cyclic(8, P("x^3+x^2+x+1"))
    assert min_lee_formula(c, c, c) == 2
    h = binary_cyclic(7, P("x^3+x+1"))
    assert min_lee_formula(h, h, h) == 3
    c15 = binary_cyclic(15, P("x^4+x+1"))
    assert min_lee_formula(c15, c15, c15) == 3
    zero = binary_cyclic(4, P("x^4+1"))
    with pytest.raises(PreconditionError):
        min_lee_formula(c, zero, c)


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
    assert {gray_vec(v) for v in span} == set(image.codewords())


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
    # build_ring_cyclic and combined_generator lay out v*f1, (1+v)*f2 and
    # (1+v^2)*f3 through Gray masks; compare with the coefficient vectors
    for n in range(1, 9):
        for fs in product(enumerate_divisors(n), repeat=3):
            # x^n - 1 is the only divisor of degree n; it reduces to 0
            reduced = [0 if f >> n else f for f in fs]
            vecs = [
                tuple(unit if (f >> i) & 1 else 0 for i in range(n))
                for unit, f in zip((V, ONE_PLUS_V, ONE_PLUS_V2), reduced)
            ]
            assert build_ring_cyclic(n, *fs).generators == tuple(vecs), (n, fs)
            assert combined_generator(n, *fs) == tuple(
                x ^ y ^ z for x, y, z in zip(*vecs)), (n, fs)


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
    audit = audit_size_formula(8, f, f, f)
    assert audit.matches and audit.rank_log2 == 15
    # distinct triple where the claimed size is wrong
    audit = audit_size_formula(2, 1, P("x+1"), 1)
    assert not audit.matches
    assert audit.rank_log2 > audit.claimed_log2


def test_audit_single_generator():
    f = P("x+1")
    audit = audit_single_generator(2, f, f, f)
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


def test_audit_decomposition_matches_exhaustive_product():
    # independent re-computation of the tensor comparison at n = 2
    f = P("x+1")
    span = span_enumerate(build_ring_cyclic(2, f, f, 1))
    audit = audit_decomposition(span, 2)
    c1, c2, c3 = projections(span, 2)
    tensor = set()
    for a in c1.codewords():
        for b in c2.codewords():
            for t in c3.codewords():
                tensor.add(a | b << 2 | t << 4)
    assert audit.tensor_equal == (tensor == {gray_vec(v) for v in span})


def test_audit_decomposition_reconstruction_matches_ring_tuples():
    # the reconstruction v*a + (1+v)*b + (1+v^2)*c, built coordinate by
    # coordinate as ring tuples, against the audit's (b+c | a+b | b) masks
    def by_ring_tuples(span, n):
        c1, c2, c3 = projections(span, n)
        recon = {
            tuple((V if (a >> i) & 1 else 0) ^ (ONE_PLUS_V if (b >> i) & 1 else 0)
                  ^ (ONE_PLUS_V2 if (c >> i) & 1 else 0) for i in range(n))
            for a in c1.codewords() for b in c2.codewords() for c in c3.codewords()
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


def test_inner_product_rows_match_ring_inner_product():
    # bit k of <x, y> is the binary dot product of row k with the mask of y
    def by_rows(x, y):
        rows = _inner_product_rows(gray_vec(x), len(x))
        return sum(((r & gray_vec(y)).bit_count() & 1) << k for k, r in enumerate(rows))

    for n in (1, 2):
        vectors = list(product(range(8), repeat=n))
        for x in vectors:
            for y in vectors:
                assert by_rows(x, y) == ring_inner_product(x, y), (x, y)
    rng = random.Random(61)
    for _ in range(2000):
        n = rng.randint(3, 21)
        x, y = (tuple(rng.randrange(8) for _ in range(n)) for _ in range(2))
        assert by_rows(x, y) == ring_inner_product(x, y), (x, y)


def test_ring_dual_matches_bruteforce_and_is_an_involution():
    codes = [build_ring_cyclic(n, *fs)
             for n in (1, 2, 3) for fs in product(enumerate_divisors(n), repeat=3)]
    codes += [RingCode(n, gens) for _, n, gens in AUDIT_CATALOG]
    rng = random.Random(67)
    codes += [RingCode(n, _random_generators(rng, n))
              for n in (rng.randint(1, 4) for _ in range(30))]
    for code in codes:
        n = code.n
        image = gray_image_basis(code)
        dual = ring_dual(image)
        brute = dual_ring_bruteforce(span_enumerate(code), n)
        assert {gray_vec(v) for v in brute} == set(dual.codewords()), code
        assert image.size * dual.size == 8 ** n
        assert ring_dual(dual) == image, code


def test_decomposition_on_masks_matches_ring_tuple_audit():
    codes = [build_ring_cyclic(n, *fs)
             for n in (1, 2, 3) for fs in product(enumerate_divisors(n), repeat=3)]
    rng = random.Random(71)
    codes += [RingCode(n, _random_generators(rng, n))
              for n in (rng.randint(1, 3) for _ in range(40))]
    for code in codes:
        masks = frozenset(capped_codewords(gray_image_basis(code)))
        assert (audit_decomposition_masks(masks, code.n)
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
            audit = audit_dual_formula(n, *fs)
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
