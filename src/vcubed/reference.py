"""Reproduction of the published quantum-code parameter table.

Each row pins the length, the generator triple (all published rows use
f1 = f2 = f3) and the published [[n, k, d]].  Reproduction recomputes the
parameters from scratch as the CSS record of the triple (f, f, f)
(css_from_triple): its key is (f, f, f), so k comes from a dimension
3n - 3 deg f that equals the Gray-image rank, and d = min(D(f), 2 D(f), D(f))
is the exact minimum weight D(f) of the shared binary component code <f>.
A row passes only if the recomputed triple equals the published one; every
discrepancy, including cosmetic ones in the published generator displays, is
reported as a note rather than silently corrected.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .codes import _dual_poly
from .gf2poly import format_poly, parse_poly
from .quantum import QuantumCodeRecord, css_from_triple, format_parameters


class ReferenceRow(NamedTuple):
    label: str
    n: int
    f: str  # shared generator; published rows all use equal triples
    published: tuple[int, int, int]
    # Published single-generator displays, where the source shows them.
    code_display: Optional[str] = None
    dual_display: Optional[str] = None


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("n=8, f=x^3+x^2+x+1", 8, "x^3+x^2+x+1", (24, 6, 2),
                 code_display="x^3+x^2+x+1", dual_display="x^5+x^4+x+1"),
    ReferenceRow("n=8, f=x^2+1", 8, "x^2+1", (24, 12, 2),
                 code_display="x^2+1", dual_display="x^6+x^4+x^2+1"),
    ReferenceRow("n=8, f=x+1", 8, "x+1", (24, 18, 2)),
    ReferenceRow("n=7, f=x^3+x+1", 7, "x^3+x+1", (21, 3, 3),
                 code_display="x^3+x+1", dual_display="x^4+x^2+x+1"),
    ReferenceRow("n=15, f=x^4+x+1", 15, "x^4+x+1", (45, 21, 3),
                 code_display="x^4+x+1"),
    ReferenceRow("n=16, f=x^3+x^2+x+1", 16, "x^3+x^2+x+1", (48, 30, 2),
                 code_display="x^3+x^2+x+1",
                 dual_display="x^13+x^12+x^9+x^8+x^5+x^4+x+1"),
    ReferenceRow("n=16, f=x^4+1", 16, "x^4+1", (48, 24, 2)),
    ReferenceRow("n=21, f=x^6+x^5+x^4+x^2+1", 21, "x^6+x^5+x^4+x^2+1", (63, 27, 3),
                 code_display="x^4+x+1"),
    ReferenceRow("n=21, f=x^3+x^2+1", 21, "x^3+x^2+1", (63, 45, 3)),
)


class RowResult(NamedTuple):
    row: ReferenceRow
    computed: tuple[int, int, int]
    record: QuantumCodeRecord
    matches: bool
    notes: tuple[str, ...]


def reproduce_row(row: ReferenceRow) -> RowResult:
    f = parse_poly(row.f)
    n = row.n
    record = css_from_triple(n, f, f, f)
    computed = record.parameters
    notes = []

    # For an equal triple, the combined generator v*f + (1+v)*f + (1+v^2)*f
    # collapses to v^2 * f, and likewise v^2 * h_reciprocal for the dual.
    if row.code_display is not None:
        shown = parse_poly(row.code_display)
        if shown != f:
            notes.append(
                f"published combined generator shows v^2*({row.code_display}); "
                f"computed v^2*({format_poly(f)})"
            )
    if row.dual_display is not None:
        shown = parse_poly(row.dual_display)
        hr = _dual_poly(n, f)
        if shown != hr:
            notes.append(
                f"published dual generator shows v^2*({row.dual_display}); "
                f"computed reciprocal is v^2*({format_poly(hr)})"
            )
    if computed != row.published:
        notes.append(
            f"computed {format_parameters(computed)} "
            f"differs from published {format_parameters(row.published)}"
        )

    return RowResult(
        row=row,
        computed=computed,
        record=record,
        matches=computed == row.published,
        notes=tuple(notes),
    )


def reproduce_all() -> list[RowResult]:
    return [reproduce_row(row) for row in REFERENCE_ROWS]
