from itertools import product

import pytest

from vcubed.codes import (
    binary_cyclic,
    gray_image_basis,
    min_hamming,
)
from vcubed.errors import PreconditionError
from vcubed.gf2poly import (
    degree,
    enumerate_divisors,
    parse_poly,
    poly_divmod,
    poly_mod,
    poly_mul,
    reciprocal,
    xn1,
)
from vcubed.quantum import css_from_triple, dual_containing_poly, search_triples

from oracles import (
    binary_min_weight_direct,
    build_ring_cyclic,
    contains_dual,
    cyclic_image,
    dual_binary,
    dual_ring_bruteforce,
    holds_dual_of,
    min_lee_enum,
    span_enumerate,
    validate_css_binary,
)

P = parse_poly


def test_dual_containing_examples():
    assert dual_containing_poly(8, P("x^3+x^2+x+1"))
    assert dual_containing_poly(7, P("x^3+x+1"))
    assert not dual_containing_poly(7, P("x+1"))
    with pytest.raises(PreconditionError):
        dual_containing_poly(7, P("x^2+1"))


def test_dual_containing_poly_is_the_f_times_reciprocal_criterion():
    # the criterion reads h* (f | h*); compare with f f* | x^n - 1 itself on
    # all 17,498 divisors of x^n - 1 at n <= 64, 8,192 of them at n = 63
    checked = 0
    for n in range(1, 65):
        for f in enumerate_divisors(n, cap=1 << 13):
            expected = poly_mod(xn1(n), poly_mul(f, reciprocal(f))) == 0
            assert dual_containing_poly(n, f) == expected, (n, f)
            checked += 1
    assert checked == 17498


def test_dual_containing_agrees_with_binary_dual_containment():
    # the polynomial criterion versus the row-space oracle
    for n in (3, 5, 7, 8, 9):
        for f in enumerate_divisors(n):
            code = binary_cyclic(n, f)
            direct = code.contains_code(dual_binary(code))
            assert dual_containing_poly(n, f) == direct


def test_holds_dual_of_matches_the_null_space_dual():
    # <g> holds <h>^perp exactly when g* h divides x^n - 1, for every ordered
    # pair of divisors; the diagonal is the paper's f f* | x^n - 1
    for n in range(1, 17):
        divisors = enumerate_divisors(n)
        cyclic = {f: binary_cyclic(n, f) for f in divisors}
        for g in divisors:
            for h in divisors:
                direct = cyclic[g].contains_code(dual_binary(cyclic[h]))
                assert holds_dual_of(n, g, h) == direct, (n, g, h)
            paper = poly_mod(xn1(n), poly_mul(g, reciprocal(g))) == 0
            assert dual_containing_poly(n, g) == holds_dual_of(n, g, g) == paper, (n, g)


def test_closed_form_containment_matches_the_image_dual_on_every_triple():
    # C^perp in C read from the code key against the null space of the Gray
    # image, on all 18,395 divisor triples at n <= 9 and n = 12, x^n - 1
    # parts included.  Every triple the paper's criterion admits holds its
    # dual, which is why css_from_triple computes no containment.
    checked = admitted = 0
    for n in (*range(1, 10), 12):
        held = {}
        for fs in product(enumerate_divisors(n), repeat=3):
            image = cyclic_image(n, *fs)
            if image not in held:
                held[image] = contains_dual(image)
            assert validate_css_binary(n, *fs).containment_ok == held[image], (n, fs)
            checked += 1
            if all(dual_containing_poly(n, f) for f in fs):
                assert held[image], (n, fs)
                admitted += 1
    assert checked == 18395
    assert admitted == 984


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
    assert rec.d_method == "enumerated"
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

    # 3n = 99: a search record is checked by rank at every length
    (rec,) = search_triples(33).records
    assert rec.parameters == (99, 99, 1)
    assert rec.validated and rec.notes == ()


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
    # x^n - 1 itself never passes the criterion, since (x^n - 1)^2 does not
    # divide x^n - 1, and is never emitted
    for n in range(1, 129):
        assert not dual_containing_poly(n, xn1(n)), n
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
    # dual-containing distinct triple where the min-of-components rule is
    # simply wrong: the span contains a Lee-weight-1 word although every
    # component code generated by the fi is a [7,4,3] Hamming code; the
    # record carries the erratum
    rec = css_from_triple(7, P("x^3+x+1"), P("x^3+x+1"), P("x^3+x^2+1"))
    assert rec.d == 1
    assert rec.d_method == "enumerated"
    assert "component formula gives d = 3; enumerated d = 1 is authoritative" in rec.notes


def test_criterion_not_necessary_for_mixed_triples():
    # verified counterexample: at n = 3 with (f1, f2, f3) = (1, 1, x+1) the
    # brute-force dual is contained although x+1 fails the criterion
    n = 3
    f3 = parse_poly("x+1")
    assert not dual_containing_poly(n, f3)
    span = span_enumerate(build_ring_cyclic(n, 1, 1, f3))
    assert dual_ring_bruteforce(span, n) <= span


def test_record_invariants():
    # every searched record against the oracle's rank and containment check
    records = [rec for n in (7, 8, 16, 21) for rec in search_triples(n).records]
    assert len(records) == 27 + 125 + 729 + 729
    for rec in records:
        deg_sum = degree(rec.f1) + degree(rec.f2) + degree(rec.f3)
        assert rec.n == 3 * rec.ring_n
        assert rec.k == 2 * (3 * rec.ring_n - deg_sum) - 3 * rec.ring_n
        val = validate_css_binary(rec.ring_n, rec.f1, rec.f2, rec.f3)
        assert rec.validated == val.validated, rec
        assert rec.k == val.k_formula, rec
        rank_note = f"Gray-image rank {val.dim_code} differs from claimed {val.expected_dim}"
        assert (rank_note in rec.notes) == (not rec.validated), rec
        if rec.validated:
            assert rec.k == 2 * val.dim_code - 3 * rec.ring_n
            assert val.dim_dual == 3 * rec.ring_n - val.dim_code
        if rec.k >= 0:
            assert 2 * (3 * rec.ring_n - deg_sum) >= 3 * rec.ring_n


# The Lee-weight and direct walks visit every codeword, so they check the
# records whose Gray image has at most this many.
WALK_CAP = 1 << 16


def _walkable(rec):
    return cyclic_image(rec.ring_n, rec.f1, rec.f2, rec.f3).size <= WALK_CAP


def test_enumerated_distance_equals_minimum_lee_weight_of_the_span():
    # the split distance against the Lee-weight walk over the ring span
    records = (search_triples(7).records
               + search_triples(8, equal_triples_only=True).records)
    walkable = [r for r in records if _walkable(r)]
    assert walkable
    for rec in walkable:
        span = span_enumerate(build_ring_cyclic(rec.ring_n, rec.f1, rec.f2, rec.f3))
        assert rec.d == min_lee_enum(span), rec


@pytest.mark.parametrize("n, equal", [(7, False), (8, False), (15, True), (21, True)])
def test_search_distances_match_direct_oracle(n, equal):
    # Searched distances against the walk over every coefficient vector: the
    # Gray image where it has at most WALK_CAP codewords, else the shared
    # component of an equal triple, whose d is the image's (at n = 15 and 21
    # every image is over the cap).
    checked = 0
    for rec in search_triples(n, equal_triples_only=equal).records:
        if _walkable(rec):
            code = gray_image_basis(build_ring_cyclic(n, rec.f1, rec.f2, rec.f3))
        elif equal and rec.f1 != 1:  # f = 1 is the full space, d = 1 unwalked
            code = binary_cyclic(n, rec.f1)
        else:
            continue
        assert min_hamming(code) == binary_min_weight_direct(code.basis, code.n) == rec.d, rec
        checked += 1
    assert checked


# Searched records per length where the paper's min-of-components rule
# overstates d; each carries the rule as a note.
FORMULA_OVERSTATES = {6: 6, 7: 6, 8: 0, 9: 0, 15: 6, 16: 0, 21: 322}


@pytest.mark.parametrize("n", sorted(FORMULA_OVERSTATES))
def test_split_distance_equals_the_rank_path_distance(n):
    # d = min(D(gcd(f2, f3)), 2 D(gcd(f1, f2)), D(f1)) against the exact
    # minimum weight of the whole Gray image, on every searched triple
    noted = 0
    for rec in search_triples(n).records:
        image = cyclic_image(n, rec.f1, rec.f2, rec.f3)
        assert rec.d == min_hamming(image, 1 << image.dim), rec
        assert rec.d_method == "enumerated"
        noted += any(note.startswith("component formula gives") for note in rec.notes)
    assert noted == FORMULA_OVERSTATES[n]
