import pytest

from vcubed.codes import (
    binary_cyclic,
    build_ring_cyclic,
    dual_binary,
    gray_image_basis,
    min_hamming,
)
from vcubed.errors import PreconditionError
from vcubed.gf2poly import degree, enumerate_divisors, parse_poly, poly_divmod, xn1
from vcubed.quantum import (
    css_from_triple,
    dual_containing_poly,
    search_triples,
    validate_css_binary,
)

from oracles import binary_min_weight_direct, dual_ring_bruteforce, min_lee_enum, span_enumerate

P = parse_poly


def test_dual_containing_examples():
    assert dual_containing_poly(8, P("x^3+x^2+x+1"))
    assert dual_containing_poly(7, P("x^3+x+1"))
    assert not dual_containing_poly(7, P("x+1"))
    with pytest.raises(PreconditionError):
        dual_containing_poly(7, P("x^2+1"))


def test_dual_containing_agrees_with_binary_dual_containment():
    # the polynomial criterion versus the row-space oracle
    for n in (3, 5, 7, 8, 9):
        for f in enumerate_divisors(n):
            code = binary_cyclic(n, f)
            direct = code.contains_code(dual_binary(code))
            assert dual_containing_poly(n, f) == direct


def test_css_paper_rows():
    f = P("x^3+x^2+x+1")
    rec = css_from_triple(8, f, f, f)
    assert rec.parameters == (24, 6, 2)
    assert rec.d_method == "enumerated"
    assert rec.validated

    g = P("x^3+x+1")
    rec = css_from_triple(7, g, g, g)
    assert rec.parameters == (21, 3, 3)
    assert rec.validated

    h = P("x^6+x^5+x^4+x^2+1")
    rec = css_from_triple(21, h, h, h)
    assert rec.parameters == (63, 27, 3)
    assert rec.d_method == "component_formula"
    assert rec.validated


def test_css_rejects_bad_triples():
    with pytest.raises(PreconditionError) as info:
        css_from_triple(7, P("x+1"), P("x^3+x+1"), P("x^3+x+1"))
    assert "f1" in str(info.value)
    with pytest.raises(PreconditionError) as info:
        css_from_triple(8, P("x+1"), P("x+1"), P("x^2+x+1"))
    assert "f3" in str(info.value)


def test_css_degenerate_k_flagged():
    f = P("x^4+1")
    rec = css_from_triple(8, f, f, f)
    assert rec.parameters == (24, 0, 2)
    assert any("degenerate" in note for note in rec.notes)


def test_validate_examples():
    f = P("x^3+x^2+x+1")
    val = validate_css_binary(8, f, f, f)
    assert (val.dim_code, val.dim_dual) == (15, 9)
    assert val.containment_ok and val.dim_matches and val.validated
    assert val.k_rank == val.k_formula == 6
    assert val.dim_dual == 3 * 8 - val.dim_code

    # distinct triple: the claimed dimension is wrong (rank oracle says 60),
    # so the record cannot validate even though containment holds
    val = validate_css_binary(21, P("x^3+x^2+1"), P("x^3+x+1"), P("x^6+x^4+x^2+x+1"))
    assert val.containment_ok
    assert val.dim_code == 60 and val.expected_dim == 51
    assert not val.validated
    assert val.k_rank == 57 and val.k_formula == 39

    # zero code: nothing to contain the dual in
    val = validate_css_binary(1, P("x+1"), P("x+1"), P("x+1"))
    assert val.dim_code == 0
    assert not val.validated

    # over the rank cap: marked not validated, no error
    val = validate_css_binary(64, 1, 1, 1, rank_cap=96)
    assert not val.validated
    assert "rank cap" in val.reason


def test_search_n8_equal_triples():
    outcome = search_triples(8, equal_triples_only=True)
    params = [rec.parameters for rec in outcome.records]
    assert (24, 18, 2) in params
    assert (24, 12, 2) in params
    assert (24, 6, 2) in params
    # admissible equal triples are exactly (x+1)^k for k <= 4
    fs = sorted(rec.f1 for rec in outcome.records)
    expected = sorted(_xp1_power(k) for k in range(5))
    assert fs == expected
    # canonical order: descending k
    ks = [rec.k for rec in outcome.records]
    assert ks == sorted(ks, reverse=True)


def _xp1_power(k):
    from vcubed.gf2poly import poly_mul

    p = 1
    for _ in range(k):
        p = poly_mul(p, 0b11)
    return p


def test_search_n21_equal_triples():
    outcome = search_triples(21, equal_triples_only=True)
    params = [rec.parameters for rec in outcome.records]
    assert (63, 27, 3) in params
    # the f = x^3+x^2+1 triple computes d = 2 (x^7+1 is a weight-2 codeword
    # of the [21,18] component), not the published 3
    assert (63, 45, 2) in params
    assert (63, 45, 3) not in params
    assert outcome.admissible == 9


def test_search_n1_only_full_space():
    outcome = search_triples(1)
    assert len(outcome.records) == 1
    rec = outcome.records[0]
    assert (rec.f1, rec.f2, rec.f3) == (1, 1, 1)
    assert rec.parameters == (3, 3, 1)
    assert rec.d == 1


def test_search_excludes_zero_code():
    # x^n - 1 itself never passes the criterion and is never emitted
    for outcome in (search_triples(7, equal_triples_only=True), search_triples(4)):
        for rec in outcome.records:
            assert xn1(rec.ring_n) not in (rec.f1, rec.f2, rec.f3)


def test_search_filters_and_truncation():
    full = search_triples(8)
    assert full.admissible == 125 and full.scanned == 729
    top = search_triples(8, min_k=12, max_results=3)
    assert len(top.records) == 3
    assert all(rec.k >= 12 for rec in top.records)
    assert [r.parameters for r in top.records] == [
        r.parameters for r in full.records[:3]
    ]


def test_search_deterministic():
    a = search_triples(8, equal_triples_only=True)
    b = search_triples(8, equal_triples_only=True)
    assert a == b


def test_k_monotone_under_divisor_refinement():
    # replacing any fi by a proper divisor of itself never decreases k
    for n in (7, 8):
        divisors = [f for f in enumerate_divisors(n)
                    if f != xn1(n) and dual_containing_poly(n, f)]
        for f in divisors:
            for g in divisors:
                if g != f and poly_divmod(f, g)[1] == 0:
                    rec_f = css_from_triple(n, f, f, f)
                    rec_g = css_from_triple(n, g, f, f)
                    assert rec_g.k >= rec_f.k


def test_polynomial_criterion_sufficient_for_ring_containment():
    # whenever every fi passes the criterion, the brute-force dual really is
    # contained; checked over all triples at n = 2, 3
    for n in (2, 3):
        for f1 in enumerate_divisors(n):
            for f2 in enumerate_divisors(n):
                for f3 in enumerate_divisors(n):
                    if not all(dual_containing_poly(n, f) for f in (f1, f2, f3)):
                        continue
                    span = span_enumerate(build_ring_cyclic(n, f1, f2, f3))
                    assert dual_ring_bruteforce(span, n) <= span, (n, f1, f2, f3)


def test_ring_containment_iff_criterion_for_equal_triples():
    for n in (1, 2, 3):
        for f in enumerate_divisors(n):
            span = span_enumerate(build_ring_cyclic(n, f, f, f))
            contained = dual_ring_bruteforce(span, n) <= span
            assert contained == dual_containing_poly(n, f), (n, f)


def test_enumerated_distance_overrides_component_formula():
    # distinct triple where the min-of-components rule is simply wrong:
    # the span contains a Lee-weight-1 word although every component code
    # generated by the fi has distance 2; the record carries the erratum
    rec = css_from_triple(3, P("x+1"), P("x+1"), P("x^2+x+1"),
                          enforce_dual_containment=False)
    assert rec.d == 1
    assert rec.d_method == "enumerated"
    assert any("component formula gives d = 2" in note for note in rec.notes)


def test_criterion_not_necessary_for_mixed_triples():
    # verified counterexample: at n = 3 with (f1, f2, f3) = (1, 1, x+1) the
    # brute-force dual is contained although x+1 fails the criterion
    n = 3
    f3 = parse_poly("x+1")
    assert not dual_containing_poly(n, f3)
    span = span_enumerate(build_ring_cyclic(n, 1, 1, f3))
    assert dual_ring_bruteforce(span, n) <= span


def test_record_invariants():
    for rec in search_triples(8, equal_triples_only=True).records:
        deg_sum = degree(rec.f1) + degree(rec.f2) + degree(rec.f3)
        assert rec.n == 3 * rec.ring_n
        assert rec.k == 2 * (3 * rec.ring_n - deg_sum) - 3 * rec.ring_n
        if rec.validated:
            val = validate_css_binary(rec.ring_n, rec.f1, rec.f2, rec.f3)
            assert rec.k == 2 * val.dim_code - 3 * rec.ring_n
            assert val.dim_dual == 3 * rec.ring_n - val.dim_code
        if rec.k >= 0:
            assert 2 * (3 * rec.ring_n - deg_sum) >= 3 * rec.ring_n


def test_enumerated_distance_equals_minimum_lee_weight_of_the_span():
    # the popcount distance on the Gray image against the Lee-weight walk
    # over the ring span that it replaced
    records = (search_triples(7).records
               + search_triples(8, equal_triples_only=True).records)
    enumerated = [r for r in records if r.d_method == "enumerated"]
    assert enumerated
    for rec in enumerated:
        span = span_enumerate(build_ring_cyclic(rec.ring_n, rec.f1, rec.f2, rec.f3))
        assert rec.d == min_lee_enum(span), rec


@pytest.mark.parametrize("n, equal", [(7, False), (8, False), (15, True), (21, True)])
def test_search_distances_match_direct_oracle(n, equal):
    # Every searched d that min_hamming computes, against the walk over every
    # coefficient vector: the Gray image where d is enumerated, the shared
    # component where an equal triple takes d from the component formula
    # (at n = 15 and 21 every image is over the enumeration cap).
    checked = 0
    for rec in search_triples(n, equal_triples_only=equal).records:
        if rec.d_method == "enumerated":
            code = gray_image_basis(build_ring_cyclic(n, rec.f1, rec.f2, rec.f3))
        elif equal and rec.f1 != 1:  # f = 1 is the full space, d = 1 unwalked
            code = binary_cyclic(n, rec.f1)
        else:
            continue
        assert min_hamming(code) == binary_min_weight_direct(code.basis, code.n) == rec.d, rec
        checked += 1
    assert checked
