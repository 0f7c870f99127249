"""Dual-containment tests, CSS parameter derivation, and triple search.

A divisor f of x^n - 1 yields a dual-containing binary cyclic code exactly
when f*f_reciprocal still divides x^n - 1, that is when f divides h*, the
generator of the dual <f>^perp (codes._dual_poly).  A triple (f1, f2, f3)
of such divisors gives a ring code whose Gray image supports the CSS
construction; the emitted parameters are [[3n, 2k - 3n, d]] with
k = 3n - sum(deg fi).

That k is a claimed value: it can disagree with the actual Gray-image rank
when the fi differ, so a record is marked validated only when the rank
equals it.  The Gray image needs no containment check: the per-fi
criterion already puts C^perp inside C (css_from_triple).
The distance d is exact at every length: under R = F2 x F2[w]/(w^2) the
Gray image splits into three binary cyclic codes of length n
(css_from_triple), and d is read off their distances, each the exact
minimum weight of <g> (min_hamming, a search over sums of basis rows in
order of how many rows they use), which equals the minimum Lee weight of
the ring code because the Gray map is a weight-preserving isometry.  The
paper's min-of-components rule is a claim, kept as a note where it
disagrees.

The divisors of x^n - 1 are few and the triples many, so a search caches
its work per divisor and per code key in bounded lru_caches.  Errors are
raised, not cached, and a warm search returns exactly what a cold one does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .codes import (
    _dual_poly,
    _key_image,
    audit_size_formula,
    binary_cyclic,
    code_key,
    gray_image_basis,  # noqa: F401  (bench/test_bench.py rebinds it here)
    min_hamming,
)
from .errors import PreconditionError
from .gf2poly import (
    DEFAULT_DIVISOR_CAP,
    enumerate_divisors,
    format_poly,
    poly_mod,
)


@lru_cache(maxsize=4096)
def dual_containing_poly(n: int, f: int) -> bool:
    """Whether x^n - 1 = 0 (mod f * f_reciprocal); f must divide x^n - 1.
    Decided once per divisor, which a search meets in many triples.

    That is when <f> holds its dual <h*>, h = (x^n - 1)/f (MacWilliams and
    Sloane, ch. 7), which is when f divides h*: f f* divides f h exactly
    when f* divides h, and the reciprocal keeps divisibility among the
    divisors of x^n - 1, which have constant term 1.  h* is codes._dual_poly,
    the one place it is computed, and it names an f that does not divide.
    """
    return poly_mod(_dual_poly(n, f), f) == 0


@lru_cache(maxsize=4096)
def _component_distance(n: int, f: int) -> int:
    """Minimum distance of the binary cyclic code <f> of length n, searched
    once per divisor; min_hamming keeps no cache of its own."""
    # f = 1 generates the full space; no enumeration needed for distance 1.
    if f == 1:
        return 1
    return min_hamming(binary_cyclic(n, f))


def format_parameters(parameters) -> str:
    """[[n,k,d]]: the one text of a quantum code's parameters."""
    return "[[{},{},{}]]".format(*parameters)


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
    d_method: str  # "enumerated": exact, from the three binary parts
    validated: bool
    notes: tuple[str, ...]

    @property
    def parameters(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d)

    def __str__(self) -> str:
        return format_parameters(self.parameters)


def css_from_triple(n: int, f1: int, f2: int, f3: int) -> QuantumCodeRecord:
    """Derive the quantum parameters for a dual-containing divisor triple.

    d = min(D(g_a), 2 D(g_u), D(g_v)) for the code key (g_a, g_u, g_v) =
    (gcd(f2, f3), gcd(f1, f2), f1), where D(g) is the minimum distance of
    the binary cyclic code <g> of length n.  The Gray image is the direct
    sum of C_A = <g_a> on the first third and the Plotkin code (u | u+y),
    u in C_u = <g_u> and y in C_v = <g_v>, on the other two (codes.code_key).
    A direct sum has the smaller distance of its parts, and (u | u+y) has
    distance min(2 d(C_u), d(C_v)) (MacWilliams and Sloane, ch. 2 sec. 9).
    No part is zero, because x^n - 1 fails the criterion and each gcd
    divides f1 or f2.

    The criterion on each fi already puts C^perp inside C, so no
    containment is computed.  C^perp is <g_a>^perp on the first third and
    {(b+c | b) : b in C_v^perp, c in C_u^perp} on the other two
    (codes._dual_key), which lies in the Plotkin code when C_v^perp lies in
    C_u, because C_v lies in C_u.
    Each <fi> holds <fi>^perp, and <g> holds <f> when g divides f.  g_a
    divides f2, so <g_a> holds <f2>, which holds <f2>^perp, which holds
    <g_a>^perp; g_u divides f1, so <g_u> holds <f1>, which holds
    <f1>^perp = <g_v>^perp.  None of the 1,049 triples the criterion admits
    at n <= 12 has C^perp outside C.

    k = 2 dim - 3n with the paper's dimension 3n - sum deg fi, which
    codes.audit_size_formula sets against the rank of the key's Gray image
    (codes._key_image); the record is validated when the two agree and
    carries the rank as a note when they do not.  The paper's rule
    min(D(f1), D(f2), D(f3)) is a claim; where it differs from d the record
    carries it as a note.
    """
    key = code_key(n, f1, f2, f3)
    for label, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        if not dual_containing_poly(n, f):
            raise PreconditionError(
                f"{label} = {format_poly(f)} fails the dual-containment criterion"
            )

    size = audit_size_formula(n, (f1, f2, f3), _key_image(n, *key).dim)
    k = 2 * size.claimed_log2 - 3 * n
    notes = []
    if k <= 0:
        notes.append("degenerate parameters (k <= 0)")

    g_a, g_u, g_v = key
    d = min(_component_distance(n, g_a), 2 * _component_distance(n, g_u),
            _component_distance(n, g_v))
    # <f2> lies in <gcd(f1, f2)> and <f3> in <gcd(f2, f3)>, so these are no
    # larger than the parts just searched, unless a part is the whole space.
    # D(1) = 1 is the least distance there is, so a rule holding <1> needs
    # no walk of the other parts.
    if 1 in (f1, f2, f3):
        formula_d = 1
    else:
        formula_d = min(_component_distance(n, f) for f in (f1, f2, f3))
    if formula_d != d:
        notes.append(
            f"component formula gives d = {formula_d}; "
            f"enumerated d = {d} is authoritative"
        )

    if not size.matches:
        notes.append(
            f"Gray-image rank {size.rank_log2} differs from claimed {size.claimed_log2}"
        )

    return QuantumCodeRecord(
        ring_n=n, f1=f1, f2=f2, f3=f3,
        n=3 * n, k=k, d=d,
        d_method="enumerated", validated=size.matches, notes=tuple(notes),
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
                   divisor_cap: int = DEFAULT_DIVISOR_CAP) -> SearchOutcome:
    """Evaluate divisor triples of x^n - 1 and emit records in canonical
    order: descending k, then the integer order of (f1, f2, f3).

    The all-of-x^n-1 component (the zero code) fails the criterion, since
    (x^n - 1)^2 does not divide x^n - 1; the trivial divisor 1 yields the
    full space and is emitted with d = 1.
    """
    divisors = enumerate_divisors(n, cap=divisor_cap)
    admitted = [f for f in divisors if dual_containing_poly(n, f)]
    if equal_triples_only:
        scanned = len(divisors)
        triples = [(f, f, f) for f in admitted]
    else:
        scanned = len(divisors) ** 3
        triples = [(a, b, c) for a in admitted for b in admitted for c in admitted]

    records = []
    for f1, f2, f3 in triples:
        rec = css_from_triple(n, f1, f2, f3)
        if min_k is not None and rec.k < min_k:
            continue
        records.append(rec)
    records.sort(key=lambda r: (-r.k, r.f1, r.f2, r.f3))
    if max_results is not None:
        records = records[:max_results]
    return SearchOutcome(records=tuple(records), scanned=scanned,
                         admissible=len(triples))
