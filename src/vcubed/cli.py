"""Command-line surface.

Commands: factor, inspect, search, reproduce-paper, audit.  Output is either
a human-readable table (default) or line-delimited records ("--format
records", one JSON object per line with a leading "kind" field).  Every
polynomial appears in both algebraic and hexadecimal form.

Exit codes: 0 success, 1 usage or parse error, 2 resource cap exceeded,
3 mathematical precondition violated, 4 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from typing import Iterable

from . import codes, quantum, reference
from .errors import CapExceeded, ParseError, PreconditionError
from .gf2poly import (
    DEFAULT_DIVISOR_CAP,
    degree,
    enumerate_divisors,
    factor_xn1,
    format_poly,
    parse_poly,
    poly_hex,
)
from .ring import format_vec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4

# The dual-formula audit runs only up to this length.  The exact ring dual is
# dual_binary of the Gray image at any length, so the limit saves no time: it
# keeps the output identical to earlier versions, and lifting it belongs with
# the exact algebra of the ring (ROADMAP, open item 2).
AUDIT_BRUTE_N = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _poly_fields(p: int) -> dict:
    return {"poly": format_poly(p), "hex": poly_hex(p)}


def _emit(records: Iterable[dict], fmt: str, table_lines: Iterable[str]) -> None:
    if fmt == "records":
        for rec in records:
            print(json.dumps(rec))
    else:
        for line in table_lines:
            print(line)


def cmd_factor(args) -> int:
    fact = factor_xn1(args.n, bound=args.bound)
    divisors = fact.divisor_count
    record = {
        "kind": "factorization",
        "n": args.n,
        "factors": [
            {**_poly_fields(f), "multiplicity": m} for f, m in fact.factors
        ],
        "divisor_count": divisors,
    }
    lines = [f"x^{args.n}+1 ="]
    for f, m in fact.factors:
        suffix = f"^{m}" if m > 1 else ""
        lines.append(f"  ({format_poly(f)}){suffix}  [{poly_hex(f)}]")
    lines.append(f"divisors: {divisors}")
    _emit([record], args.format, lines)
    return EXIT_OK


def _component_report(n: int, f: int, dist_cap: int) -> dict:
    code = codes.binary_cyclic(n, f)
    entry = {**_poly_fields(f), "n": n, "dim": code.dim}
    if code.dim == 0:
        entry["d"] = None
    elif f == 1:
        entry["d"] = 1
        entry["d_method"] = "full_space"
    elif code.size <= dist_cap:
        entry["d"] = codes.min_hamming(code, dist_cap)
        entry["d_method"] = "enumerated"
    else:
        entry["d"] = None
        entry["d_method"] = f"skipped (2^{code.dim} over cap)"
    return entry


def cmd_inspect(args) -> int:
    n = args.n
    fs = tuple(parse_poly(t) for t in (args.f1, args.f2, args.f3))
    image = codes._cyclic_image(n, *fs)  # raises PreconditionError on bad fi
    deg_sum = sum(degree(f) for f in fs)
    claimed_dim = 3 * n - deg_sum

    record = {
        "kind": "inspection",
        "n": n,
        "f1": _poly_fields(fs[0]),
        "f2": _poly_fields(fs[1]),
        "f3": _poly_fields(fs[2]),
        "size_log2": image.dim,
        "size_method": "rank",
        "size_formula_log2": claimed_dim,
        "size_formula_matches": image.dim == claimed_dim,
    }
    lines = [
        f"n = {n}",
        f"f1 = {format_poly(fs[0])}  [{poly_hex(fs[0])}]",
        f"f2 = {format_poly(fs[1])}  [{poly_hex(fs[1])}]",
        f"f3 = {format_poly(fs[2])}  [{poly_hex(fs[2])}]",
        f"code size = 2^{image.dim} (rank); claimed 2^{claimed_dim}"
        + ("" if image.dim == claimed_dim else "  ** size formula mismatch"),
    ]

    if image.dim == 0:
        record["zero_code"] = True
        lines.append("zero code: no distance, no quantum parameters")
        _emit([record], args.format, lines)
        return EXIT_OK

    dc = {f"f{i + 1}": quantum.dual_containing_poly(n, f) for i, f in enumerate(fs)}
    record["dual_containing"] = dc
    lines.append(
        "dual-containing: "
        + ", ".join(f"{k}={str(v).lower()}" for k, v in dc.items())
    )

    record["components"] = [_component_report(n, f, args.enum_cap) for f in fs]
    for entry in record["components"]:
        d_text = entry["d"] if entry.get("d") is not None else "-"
        lines.append(
            f"component <{entry['poly']}>: [{n},{entry['dim']}] d={d_text}"
        )

    if all(dc.values()):
        rec = quantum.css_from_triple(
            n, *fs, dist_enum_cap=args.enum_cap_distance, validate=args.validate,
            rank_cap=args.rank_cap,
        )
        record["quantum"] = {
            "n": rec.n, "k": rec.k, "d": rec.d,
            "d_method": rec.d_method, "validated": rec.validated,
            "notes": list(rec.notes),
        }
        lines.append(
            f"quantum parameters {rec} (d_method={rec.d_method}, "
            f"validated={str(rec.validated).lower()})"
        )
        for note in rec.notes:
            lines.append(f"  note: {note}")
    else:
        record["quantum"] = None
        lines.append("not dual-containing: no quantum parameters")

    audits = []
    if image.size <= args.enum_cap and image.dim <= 16:
        dec = codes.audit_decomposition_image(image)
        audits.append(_decomposition_record(dec, "inspected code"))
        if n <= AUDIT_BRUTE_N:
            dual = codes.audit_dual_formula(n, *fs, enum_cap=args.enum_cap)
            audits.append(_dual_formula_record(dual))
    single = codes.audit_single_generator(n, *fs)
    audits.append(_single_generator_record(single))
    record["audits"] = audits
    for audit in audits:
        status = "PASS" if audit["pass"] else "FAIL"
        lines.append(f"audit {audit['target']}: {status}")

    _emit([record], args.format, lines)
    return EXIT_OK


def _decomposition_record(a: codes.DecompositionAudit, label: str) -> dict:
    rec = {
        "kind": "audit",
        "target": "decomposition",
        "code": label,
        "n": a.n,
        "code_size": a.code_size,
        "projection_sizes": list(a.projection_sizes),
        "product_size": a.product_size,
        "tensor_equal": a.tensor_equal,
        "reconstruction_equal": a.reconstruction_equal,
        "pass": a.passed,
    }
    if a.tensor_witness is not None:
        rec["tensor_witness"] = format_vec(a.tensor_witness)
    if a.reconstruction_witness is not None:
        rec["reconstruction_witness"] = format_vec(a.reconstruction_witness)
        rec["reconstruction_witness_side"] = a.reconstruction_witness_side
    return rec


def _dual_formula_record(a: codes.DualFormulaAudit) -> dict:
    rec = {
        "kind": "audit",
        "target": "dual_formula",
        "n": a.n,
        "fs": [format_poly(f) for f in a.fs],
        "code_size": a.code_size,
        "brute_dual_size": a.brute_dual_size,
        "formula_span_size": a.formula_span_size,
        "claimed_dual_size": a.claimed_dual_size,
        "formula_matches_brute": a.formula_matches_brute,
        "three_generator_matches_brute": a.three_generator_matches_brute,
        "size_claim_matches": a.size_claim_matches,
        "product_law_ok": a.product_law_ok,
        "pass": a.formula_matches_brute,
    }
    if a.witness is not None:
        rec["witness"] = format_vec(a.witness)
        rec["witness_side"] = a.witness_side
    return rec


def _single_generator_record(a: codes.SingleGeneratorAudit) -> dict:
    rec = {
        "kind": "audit",
        "target": "single_generator",
        "n": a.n,
        "fs": [format_poly(f) for f in a.fs],
        "code_size_log2": a.code_log2,
        "single_generator_size_log2": a.single_log2,
        "pass": a.equal,
    }
    if a.witness is not None:
        rec["witness"] = format_vec(a.witness)
    return rec


def _size_record(a: codes.SizeFormulaAudit) -> dict:
    return {
        "kind": "audit",
        "target": "size_formula",
        "n": a.n,
        "fs": [format_poly(f) for f in a.fs],
        "rank_log2": a.rank_log2,
        "claimed_log2": a.claimed_log2,
        "pass": a.matches,
    }


def cmd_search(args) -> int:
    outcome = quantum.search_triples(
        n=args.n,
        equal_triples_only=args.equal_triples_only,
        min_k=args.min_k,
        max_results=args.max_results,
        divisor_cap=args.divisor_cap,
        dist_enum_cap=args.enum_cap_distance,
        rank_cap=args.rank_cap,
    )
    records = []
    lines = []
    for rec in outcome.records:
        records.append({
            "kind": "search_result",
            "n": rec.ring_n,
            "f1": _poly_fields(rec.f1),
            "f2": _poly_fields(rec.f2),
            "f3": _poly_fields(rec.f3),
            "parameters": list(rec.parameters),
            "d_method": rec.d_method,
            "validated": rec.validated,
            "notes": list(rec.notes),
        })
        flags = " ".join(
            filter(None, [rec.d_method,
                          "validated" if rec.validated else "unvalidated",
                          "; ".join(rec.notes)])
        )
        lines.append(
            f"{rec}  f1={format_poly(rec.f1)} f2={format_poly(rec.f2)} "
            f"f3={format_poly(rec.f3)}  ({flags})"
        )
    summary = {
        "kind": "search_result",
        "summary": True,
        "scanned": outcome.scanned,
        "admissible": outcome.admissible,
        "emitted": outcome.emitted,
    }
    records.append(summary)
    lines.append(
        f"scanned {outcome.scanned} triples, {outcome.admissible} admissible, "
        f"{outcome.emitted} emitted"
    )
    _emit(records, args.format, lines)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    results = reference.reproduce_all()
    records = []
    lines = []
    all_match = True
    for res in results:
        all_match &= res.matches
        published = res.row.published
        records.append({
            "kind": "reproduction",
            "label": res.row.label,
            "n": res.row.n,
            "f": _poly_fields(parse_poly(res.row.f)),
            "published": list(published),
            "computed": list(res.computed),
            "match": res.matches,
            "validated": res.validation.validated,
            "notes": list(res.notes),
        })
        status = "PASS" if res.matches else "FAIL"
        lines.append(
            f"{status}  {res.row.label}: published "
            f"[[{published[0]},{published[1]},{published[2]}]], computed "
            f"[[{res.computed[0]},{res.computed[1]},{res.computed[2]}]]"
        )
        for note in res.notes:
            lines.append(f"      note: {note}")
    matched = sum(r.matches for r in results)
    records.append({
        "kind": "reproduction",
        "summary": True,
        "rows": len(results),
        "matched": matched,
    })
    lines.append(f"{matched}/{len(results)} rows match")
    _emit(records, args.format, lines)
    return EXIT_OK if all_match else EXIT_MISMATCH


# Fixed catalog of linear (mostly non-cyclic) codes the audit always runs,
# including the length-1 counterexample to the product-size claim.
AUDIT_CATALOG: tuple[tuple[str, int, tuple[tuple[int, ...], ...]], ...] = (
    ("zero code, n=1", 1, ()),
    ("ideal <v>, n=1", 1, ((2,),)),
    ("ideal <1+v>, n=1", 1, ((3,),)),
    ("ideal <1+v^2>, n=1", 1, ((5,),)),
    ("ideal <v+v^2>, n=1", 1, ((6,),)),
    ("full ring, n=1", 1, ((1,),)),
    ("span {(v,0)}, n=2", 2, ((2, 0),)),
    ("span {(1+v, v)}, n=2", 2, ((3, 2),)),
)


def _decompose(image: codes.BinaryCode, enum_cap: int) -> codes.DecompositionAudit:
    """The decomposition audit of a Gray image, refused over enum_cap."""
    codes.check_enum_cap(image, enum_cap)
    return codes.audit_decomposition_image(image)


def cmd_audit(args) -> int:
    records = []
    lines = []

    for label, n, gens in AUDIT_CATALOG:
        image = codes.gray_image_basis(codes.RingCode(n, gens))
        dec = _decompose(image, args.enum_cap)
        rec = _decomposition_record(dec, label)
        rec["product_law_ok"] = image.size * codes.dual_binary(image).size == 8 ** n
        records.append(rec)
        status = "PASS" if dec.passed else "FAIL"
        detail = (
            f"|C|={dec.code_size}, product={dec.product_size}, "
            f"tensor={'ok' if dec.tensor_equal else 'FAIL'}, "
            f"reconstruction={'ok' if dec.reconstruction_equal else 'FAIL'}"
        )
        lines.append(f"{status}  decomposition  {label}  ({detail})")
        if dec.tensor_witness is not None:
            lines.append(f"      tensor witness: {format_vec(dec.tensor_witness)}")
        if dec.reconstruction_witness is not None:
            lines.append(
                f"      reconstruction witness: {format_vec(dec.reconstruction_witness)} "
                f"({dec.reconstruction_witness_side})"
            )

    for n in range(1, args.n_max + 1):
        for f1, f2, f3 in product(enumerate_divisors(n), repeat=3):
            label = (f"cyclic n={n}, ({format_poly(f1)}; "
                     f"{format_poly(f2)}; {format_poly(f3)})")
            dec = _decompose(codes._cyclic_image(n, f1, f2, f3), args.enum_cap)
            records.append(_decomposition_record(dec, label))
            size = codes.audit_size_formula(n, f1, f2, f3)
            records.append(_size_record(size))
            single = codes.audit_single_generator(n, f1, f2, f3)
            records.append(_single_generator_record(single))
            line = (f"{label}: decomposition={'PASS' if dec.passed else 'FAIL'} "
                    f"size={'PASS' if size.matches else 'FAIL'} "
                    f"single_generator={'PASS' if single.equal else 'FAIL'}")
            if n <= AUDIT_BRUTE_N:
                dual = codes.audit_dual_formula(n, f1, f2, f3, enum_cap=args.enum_cap)
                records.append(_dual_formula_record(dual))
                line += f" dual_formula={'PASS' if dual.formula_matches_brute else 'FAIL'}"
            lines.append(line)

    failures = sum(not r["pass"] for r in records)
    lines.append(f"{len(records)} audits, {failures} failed claims (witnesses recorded)")
    _emit(records, args.format, lines)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "records"), default="table",
                        help="human table or line-delimited JSON records")
    parser.add_argument("--enum-cap", dest="enum_cap", type=_positive_int,
                        default=codes.DEFAULT_ENUM_CAP,
                        help="max code size 2^dim that distances and audits accept")
    parser.add_argument("--divisor-cap", dest="divisor_cap", type=_positive_int,
                        default=DEFAULT_DIVISOR_CAP,
                        help="max number of divisors of x^n+1")
    parser.add_argument("--rank-cap", dest="rank_cap", type=_positive_int,
                        default=quantum.DEFAULT_RANK_CAP,
                        help="max 3n for binary rank validation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vcubed",
                     description="Cyclic codes over F2[v]/(v^3 - v), Gray images, "
                                 "and CSS quantum-code parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", parents=[], help="factor x^n+1 over GF(2)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--bound", type=_positive_int, default=128)
    _add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("inspect", help="inspect one generator triple")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--f3", required=True)
    p.add_argument("--validate", action=argparse.BooleanOptionalAction, default=True)
    _add_common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("search", help="search divisor triples for quantum codes")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--min-k", dest="min_k", type=int, default=None)
    p.add_argument("--equal-triples-only", action="store_true")
    p.add_argument("--max-results", dest="max_results", type=_positive_int,
                   default=None)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce-paper",
                       help="recompute the published parameter table")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("audit", help="audit structural claims by exact rank algebra")
    p.add_argument("--n-max", dest="n_max", type=_positive_int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Distance enumeration keeps its own, tighter default.
    args.enum_cap_distance = min(args.enum_cap, quantum.DEFAULT_DIST_ENUM_CAP)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
