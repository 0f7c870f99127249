"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two criteria are implemented exactly as stated and fail honestly:

* criterion 1: the published [[63,45,3]] row computes to [[63,45,2]] by
  exact enumeration (the weight-2 codeword x^7+1 lies in the [21,18]
  component), so 9/9 golden rows cannot all match;
* criterion 7: the dual-containment criterion is sufficient but not
  necessary, so the claimed equivalence has mixed-triple counterexamples
  (first one found: n=2 with f1=f2=1, f3=x^2+1).

Everything else is green.  Shared spans and brute-force duals are cached
across criteria to keep the suite quick.
"""

import random
import time
from functools import lru_cache

from vcubed.codes import (
    RingCode,
    audit_dual_formula,
    binary_cyclic,
    build_ring_cyclic,
    dual_binary,
    gray_image_basis,
    phi,
)
from vcubed.gf2poly import (
    degree,
    enumerate_divisors,
    factor_xn1,
    format_poly,
    is_irreducible,
    parse_poly,
    xn1,
)
from vcubed.quantum import dual_containing_poly, validate_css_binary
from vcubed.reference import REFERENCE_ROWS, reproduce_all
from vcubed.ring import (
    ELEMENTS,
    gray,
    gray_vec,
    lee_weight,
    lee_weight_vec,
    ring_add,
    ring_inner_product,
)
from oracles import (
    audit_decomposition,
    dual_ring_bruteforce,
    irreducible_by_trial_division,
    is_quasicyclic3,
    is_self_orthogonal,
    sigma,
    span_enumerate,
)

P = parse_poly


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@lru_cache(maxsize=None)
def _span(n: int, f1: int, f2: int, f3: int):
    return span_enumerate(build_ring_cyclic(n, f1, f2, f3))


@lru_cache(maxsize=None)
def _brute_dual(n: int, f1: int, f2: int, f3: int):
    return dual_ring_bruteforce(_span(n, f1, f2, f3), n)


def _triples(n: int):
    divisors = enumerate_divisors(n)
    return [(a, b, c) for a in divisors for b in divisors for c in divisors]


def test_criterion_1_golden_reproduction():
    start = time.perf_counter()
    results = reproduce_all()
    elapsed = time.perf_counter() - start
    mismatches = [r for r in results if not r.matches]
    detail = (
        f"{len(results) - len(mismatches)}/{len(results)} rows match "
        f"in {elapsed:.1f}s"
    )
    for r in mismatches:
        detail += (
            f"; {r.row.label} computed "
            f"[[{r.computed[0]},{r.computed[1]},{r.computed[2]}]] vs published "
            f"[[{r.row.published[0]},{r.row.published[1]},{r.row.published[2]}]]"
        )
    ok = not mismatches and elapsed < 60.0
    assert _report(1, ok, detail)


def test_criterion_2_factorization():
    start = time.perf_counter()
    displays = {
        7: ["x+1", "x^3+x+1", "x^3+x^2+1"],
        8: ["x+1"] * 8,
        15: ["x+1", "x^2+x+1", "x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"],
        16: ["x+1"] * 16,
        21: ["x+1", "x^2+x+1", "x^3+x+1", "x^3+x^2+1",
             "x^6+x^4+x^2+x+1", "x^6+x^5+x^4+x^2+1"],
    }
    ok = True
    for n, expected in displays.items():
        flat = []
        for f, mult in factor_xn1(n).factors:
            flat.extend([format_poly(f)] * mult)
        ok &= sorted(flat) == sorted(expected)
    for n in range(1, 65):
        fact = factor_xn1(n)
        ok &= fact.product() == xn1(n)
        for f, _ in fact.factors:
            ok &= is_irreducible(f)
            if degree(f) <= 16:
                ok &= irreducible_by_trial_division(f)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _report(2, ok, f"displays match, all n<=64 reconstruct, {elapsed:.1f}s")


def test_criterion_3_gray_map_properties():
    ok = True
    for x in ELEMENTS:
        for y in ELEMENTS:
            diff = ring_add(x, y)
            gx, gy = gray(x), gray(y)
            hamming = sum(a ^ b for a, b in zip(gx, gy))
            ok &= lee_weight(diff) == hamming
            ok &= gray(diff) == tuple(a ^ b for a, b in zip(gx, gy))
    rng = random.Random(163)
    n = 16
    for _ in range(10_000):
        x = tuple(rng.randrange(8) for _ in range(n))
        y = tuple(rng.randrange(8) for _ in range(n))
        mx, my = gray_vec(x), gray_vec(y)
        diff = tuple(a ^ b for a, b in zip(x, y))
        ok &= lee_weight_vec(diff) == (mx ^ my).bit_count()
        ok &= gray_vec(diff) == mx ^ my
    assert _report(3, ok, "64 pairs exhaustive + 10^4 random pairs at n=16, exact")


def _self_orthogonal_catalog():
    catalog = [
        (1, RingCode(1, ())),
        (1, RingCode(1, ((2,),))),
        (1, RingCode(1, ((3,),))),
        (1, RingCode(1, ((5,),))),
        (1, RingCode(1, ((6,),))),
        (1, RingCode(1, ((1,),))),
        (2, RingCode(2, ((2, 0),))),
        (2, RingCode(2, ((3, 2),))),
    ]
    for n in (1, 2, 3):
        for f in enumerate_divisors(n):
            catalog.append((n, build_ring_cyclic(n, f, f, f)))
    return catalog


def test_criterion_4_inner_product_bridge():
    rng = random.Random(311)
    n = 8
    ok = True
    for _ in range(10_000):
        x = tuple(rng.randrange(8) for _ in range(n))
        y = tuple(rng.randrange(8) for _ in range(n))
        binary_dot = (gray_vec(x) & gray_vec(y)).bit_count() & 1
        ok &= binary_dot == (ring_inner_product(x, y) >> 2) & 1
    self_orthogonal = 0
    for n_code, code in _self_orthogonal_catalog():
        span = span_enumerate(code)
        if not is_self_orthogonal(span, n_code):
            continue
        self_orthogonal += 1
        image = gray_image_basis(code)
        for r1 in image.basis:
            for r2 in image.basis:
                ok &= (r1 & r2).bit_count() & 1 == 0
    ok &= self_orthogonal > 0
    assert _report(
        4, ok,
        f"10^4 random pairs at n=8 exact; {self_orthogonal} self-orthogonal "
        "catalog codes have self-orthogonal Gray images",
    )


def test_criterion_5_shift_commutation_and_quasicyclicity():
    rng = random.Random(41)
    ok = True
    for _ in range(10_000):
        n = rng.randint(1, 16)
        vec = tuple(rng.randrange(8) for _ in range(n))
        ok &= gray_vec(sigma(vec)) == phi(gray_vec(vec), 3 * n)
    checked = 0
    for n in (2, 3, 4):
        for f1, f2, f3 in _triples(n):
            masks = {gray_vec(v) for v in _span(n, f1, f2, f3)}
            ok &= is_quasicyclic3(masks, 3 * n)
            checked += 1
    assert _report(
        5, ok,
        f"psi-sigma commutation on 10^4 vectors; {checked} Gray images "
        "quasi-cyclic by exhaustive membership",
    )


def test_criterion_6_dual_containment_oracle():
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in (3, 5, 7, 9, 15):
        for f in enumerate_divisors(n):
            code = binary_cyclic(n, f)
            direct = code.contains_code(dual_binary(code))
            ok &= dual_containing_poly(n, f) == direct
            checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert _report(6, ok, f"{checked} divisors agree exactly in {elapsed:.1f}s")


def test_criterion_7_ring_level_equivalence():
    ok = True
    disagreements = []
    for n in (2, 3, 4):
        for f1, f2, f3 in _triples(n):
            span = _span(n, f1, f2, f3)
            contained = _brute_dual(n, f1, f2, f3) <= span
            criterion = all(dual_containing_poly(n, f) for f in (f1, f2, f3))
            if contained != criterion:
                disagreements.append((n, f1, f2, f3, contained, criterion))
    ok &= not disagreements
    detail = f"{len(disagreements)} disagreements over all triples at n=2,3,4"
    if disagreements:
        n, f1, f2, f3, contained, criterion = disagreements[0]
        detail += (
            f"; first witness n={n} ({format_poly(f1)}; {format_poly(f2)}; "
            f"{format_poly(f3)}) containment={contained} criterion={criterion}"
        )
    assert _report(7, ok, detail)


def test_criterion_8_dual_formula_audit():
    ok = True
    confirmed = 0
    witnessed = 0
    for n in (1, 2, 3, 4):
        for f1, f2, f3 in _triples(n):
            audit = audit_dual_formula(n, f1, f2, f3)
            if audit.formula_matches_brute:
                confirmed += 1
                ok &= audit.witness is None
            else:
                witnessed += 1
                ok &= audit.witness is not None
                # the witness is machine-checkable: it separates the two sets
                span = span_enumerate(
                    build_ring_cyclic(n, f1, f2, f3)
                )
                dual = _brute_dual(n, f1, f2, f3)
                from vcubed.codes import dual_ring_formula

                formula_span = span_enumerate(dual_ring_formula(n, f1, f2, f3))
                ok &= (audit.witness in dual) != (audit.witness in formula_span)
    assert _report(
        8, ok,
        f"{confirmed} confirmed equalities, {witnessed} witnessed mismatches, "
        "no silent passes",
    )


def test_criterion_9_decomposition_audit():
    span = span_enumerate(RingCode(1, ((3,),)))  # the ideal <1+v>
    counterexample = audit_decomposition(span, 1)
    ok = (
        not counterexample.passed
        and counterexample.code_size == 4
        and counterexample.product_size == 8
        and counterexample.tensor_witness == (4,)  # v^2, hand-verified
        and (4,) not in span
    )
    records = 0
    passes = 0
    for n in (1, 2, 3, 4):
        for f1, f2, f3 in _triples(n):
            audit = audit_decomposition(_span(n, f1, f2, f3), n)
            records += 1
            passes += audit.passed
            if not audit.tensor_equal:
                ok &= audit.tensor_witness is not None
            if not audit.reconstruction_equal:
                ok &= audit.reconstruction_witness is not None
    assert _report(
        9, ok,
        f"<1+v> fails with |C|=4 vs 8 and witness (v^2); {records} cyclic "
        f"audits recorded ({passes} pass, {records - passes} fail with witnesses)",
    )


def test_criterion_10_css_binary_validation():
    ok = True
    for row in REFERENCE_ROWS:
        f = P(row.f)
        n = row.n
        assert 3 * n <= 72
        val = validate_css_binary(n, f, f, f)
        expected_dim = 3 * n - 3 * degree(f)
        ok &= val.dim_code == expected_dim
        ok &= val.containment_ok
        ok &= val.k_rank == 2 * val.dim_code - 3 * n
        ok &= val.k_rank == row.published[1]
        ok &= val.dim_dual == 3 * n - val.dim_code
    assert _report(
        10, ok,
        f"all {len(REFERENCE_ROWS)} reproduced rows: rank, containment and "
        "k agree exactly",
    )
