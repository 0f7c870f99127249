"""Dual-containment tests, CSS parameter derivation, and triple search.

A divisor f of x^n - 1 yields a dual-containing binary cyclic code exactly
when f*f_reciprocal still divides x^n - 1.  A triple (f1, f2, f3) of such
divisors gives a ring code whose Gray image supports the CSS construction;
the emitted parameters are [[3n, 2k - 3n, d]] with k = 3n - sum(deg fi).

That k is a claimed value: it can disagree with the actual Gray-image rank
when the fi differ, so records are only marked validated after the binary
rank and dual-containment checks pass.  The distance method is always
recorded ("enumerated" for the exact minimum Hamming weight of the Gray
image, searched over sums of its basis rows in order of how many rows they
use, which equals the minimum Lee weight of the ring code because the Gray
map is a weight-preserving isometry;
"component_formula" for the min-of-component-distances rule, which is
likewise a claim rather than a theorem).

The divisors of x^n - 1 are few and the triples many, so each layer of a
search is memoised in a bounded lru_cache where its work repeats:
divisibility (gf2poly.divides_xn1) and dual containment
(dual_containing_poly) per divisor, the Gray span per generator, the Gray
image per triple, and the distance, the dual and its containment per
distinct Gray image (codes).  Errors are raised, not cached, and a warm
search returns exactly what a cold one does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .codes import (
    _cyclic_image,
    binary_cyclic,
    contains_dual,
    dual_binary,
    gray_image_basis,  # noqa: F401  (bench/test_bench.py rebinds it here)
    min_hamming,
)
from .errors import CapExceeded, PreconditionError
from .gf2poly import (
    DEFAULT_DIVISOR_CAP,
    degree,
    divides_xn1,
    enumerate_divisors,
    format_poly,
    poly_mod,
    poly_mul,
    reciprocal,
    xn1,
)

DEFAULT_DIST_ENUM_CAP = 1 << 16


@lru_cache(maxsize=4096)
def dual_containing_poly(n: int, f: int) -> bool:
    """Whether x^n - 1 = 0 (mod f * f_reciprocal); f must divide x^n - 1."""
    modulus = xn1(n)
    if not divides_xn1(n, f):
        raise PreconditionError(f"{format_poly(f)} does not divide x^{n}+1")
    return poly_mod(modulus, poly_mul(f, reciprocal(f))) == 0


@lru_cache(maxsize=4096)
def _component_distance(n: int, f: int) -> int:
    # f = 1 generates the full space; no enumeration needed for distance 1.
    if f == 1:
        return 1
    return min_hamming(binary_cyclic(n, f))


class QuantumCodeRecord(NamedTuple):
    """One derived quantum parameter set [[n, k, d]] with provenance.

    ``ring_n`` is the length over the ring, so n = 3 * ring_n physical
    qubits.  ``k`` follows the claimed dimension formula and may be
    non-positive (flagged, not suppressed).
    """

    ring_n: int
    f1: int
    f2: int
    f3: int
    n: int
    k: int
    d: int
    d_method: str  # "enumerated" | "component_formula"
    validated: bool
    notes: tuple[str, ...]

    @property
    def parameters(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d)

    def __str__(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]]"


class CssValidation(NamedTuple):
    """Binary-level check of a triple: Gray-image rank and dual containment."""

    ring_n: int
    dim_code: int
    dim_dual: int
    expected_dim: int
    dim_matches: bool
    containment_ok: bool
    k_formula: int
    k_rank: int
    validated: bool
    reason: str


def validate_css_binary(n: int, f1: int, f2: int, f3: int) -> CssValidation:
    """Build the Gray image, compute its dual by null space, and verify
    containment plus the claimed dimension."""
    image = _cyclic_image(n, f1, f2, f3)
    expected = 3 * n - (degree(f1) + degree(f2) + degree(f3))
    dual = dual_binary(image)
    containment = contains_dual(image)
    dim_matches = image.dim == expected
    reasons = []
    if not containment:
        reasons.append("dual not contained in Gray image")
    if not dim_matches:
        reasons.append(
            f"Gray-image rank {image.dim} differs from claimed {expected}"
        )
    return CssValidation(
        ring_n=n,
        dim_code=image.dim,
        dim_dual=dual.dim,
        expected_dim=expected,
        dim_matches=dim_matches,
        containment_ok=containment,
        k_formula=2 * expected - 3 * n,
        k_rank=2 * image.dim - 3 * n,
        validated=containment and dim_matches,
        reason="; ".join(reasons),
    )


def css_from_triple(n: int, f1: int, f2: int, f3: int, *,
                    dist_enum_cap: int = DEFAULT_DIST_ENUM_CAP) -> QuantumCodeRecord:
    """Derive the quantum parameters for a dual-containing divisor triple.

    The distance is the exact minimum Hamming weight of the Gray image
    (``min_hamming``) when its size fits under ``dist_enum_cap``, otherwise
    the min-of-components rule on the binary cyclic codes generated by the fi.
    The same cached image feeds the rank and containment checks of
    validate_css_binary.
    """
    for label, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        if not divides_xn1(n, f):
            raise PreconditionError(f"{label} = {format_poly(f)} does not divide x^{n}+1")
        if not dual_containing_poly(n, f):
            raise PreconditionError(
                f"{label} = {format_poly(f)} fails the dual-containment criterion"
            )

    k = 2 * (3 * n - (degree(f1) + degree(f2) + degree(f3))) - 3 * n
    notes = []
    if k <= 0:
        notes.append("degenerate parameters (k <= 0)")

    image = _cyclic_image(n, f1, f2, f3)
    if image.dim == 0:
        raise PreconditionError("zero code has no distance")
    if image.size <= dist_enum_cap:
        d = min_hamming(image, dist_enum_cap)
        d_method = "enumerated"
        # Cross-check the min-of-components rule while enumeration is cheap;
        # on disagreement the enumerated value is authoritative.
        try:
            formula_d = min(_component_distance(n, f) for f in (f1, f2, f3))
        except (PreconditionError, CapExceeded):
            formula_d = None
        if formula_d is not None and formula_d != d:
            notes.append(
                f"component formula gives d = {formula_d}; "
                f"enumerated d = {d} is authoritative"
            )
    else:
        d = min(_component_distance(n, f) for f in (f1, f2, f3))
        d_method = "component_formula"

    check = validate_css_binary(n, f1, f2, f3)
    if check.reason:
        notes.append(check.reason)

    return QuantumCodeRecord(
        ring_n=n, f1=f1, f2=f2, f3=f3,
        n=3 * n, k=k, d=d,
        d_method=d_method, validated=check.validated, notes=tuple(notes),
    )


class SearchOutcome(NamedTuple):
    records: tuple[QuantumCodeRecord, ...]
    scanned: int
    admissible: int

    @property
    def emitted(self) -> int:
        return len(self.records)


def search_triples(n: int, *,
                   equal_triples_only: bool = False,
                   min_k: Optional[int] = None,
                   max_results: Optional[int] = None,
                   divisor_cap: int = DEFAULT_DIVISOR_CAP,
                   dist_enum_cap: int = DEFAULT_DIST_ENUM_CAP) -> SearchOutcome:
    """Evaluate divisor triples of x^n - 1 and emit records in canonical
    order: descending k, then the integer order of (f1, f2, f3).

    The all-of-x^n-1 component (the zero code) is always rejected; the
    trivial divisor 1 yields the full space and is emitted with d = 1.
    """
    divisors = enumerate_divisors(n, cap=divisor_cap)
    modulus = xn1(n)
    admitted = [f for f in divisors if f != modulus and dual_containing_poly(n, f)]
    if equal_triples_only:
        scanned = len(divisors)
        triples = [(f, f, f) for f in admitted]
    else:
        scanned = len(divisors) ** 3
        triples = [(a, b, c) for a in admitted for b in admitted for c in admitted]

    records = []
    for f1, f2, f3 in triples:
        rec = css_from_triple(n, f1, f2, f3, dist_enum_cap=dist_enum_cap)
        if min_k is not None and rec.k < min_k:
            continue
        records.append(rec)
    records.sort(key=lambda r: (-r.k, r.f1, r.f2, r.f3))
    if max_results is not None:
        records = records[:max_results]
    return SearchOutcome(records=tuple(records), scanned=scanned,
                         admissible=len(triples))
