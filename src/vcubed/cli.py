"""Command-line surface.

Commands: factor, inspect, search, reproduce-paper, audit.  Output is either
a human-readable table (default) or line-delimited records ("--format
records", one JSON object per line with a leading "kind" field).  Every
polynomial appears in both algebraic and hexadecimal form.

A well-formed argv (a command followed only by exact spellings of its own
options) is read straight off the command table, COMMANDS, and builds no
parser; any other argv goes to the full argparse parser, which words every
usage, help and error text (main).  Each command builds its records once
and hands them to _emit with its table renderer, which draws the table
from the records alone; records mode encodes them and renders no table.
One JSON encoder serves the whole run (_encode), and each divisor's text
fields are built once (_poly_fields) and shared by the records that name it.
The audits of a divisor triple come from one pass (codes.audit_triple), and
its size, single-generator and dual-formula records share one fs list.

Exit codes: 0 success, 1 usage or parse error, 2 resource cap exceeded,
3 mathematical precondition violated, 4 reproduction mismatch.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from . import codes, quantum, reference
from .errors import CapExceeded, ParseError, PreconditionError
from .gf2poly import (
    DEFAULT_DIVISOR_CAP,
    DEFAULT_FACTOR_BOUND,
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


def _int(text: str) -> int:
    """An optional leading '-' and ASCII digits; int() alone would also take
    '_' separators, surrounding blanks and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        import argparse  # only a rejected value needs it, for its error type

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@lru_cache(maxsize=1024)
def _poly_fields(p: int) -> dict:
    """A divisor's two text forms, built once per divisor: records share
    the dict, which is safe because no record is changed once built."""
    return {"poly": format_poly(p), "hex": poly_hex(p)}


def _make_encode() -> Callable[[dict], str]:
    """JSONEncoder().encode with one C encoder for the whole run: encode()
    builds a new one per call.  Records are trees of dicts, lists, strs,
    ints and bools, so there is no cycle to check."""
    encoder = json.JSONEncoder(check_circular=False)
    make = json.encoder.c_make_encoder
    if make is None:  # a Python without the _json accelerator
        return encoder.encode
    chunks = make(None, encoder.default, json.encoder.encode_basestring_ascii,
                  encoder.indent, encoder.key_separator, encoder.item_separator,
                  encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)
    return lambda rec: "".join(chunks(rec, 0))


_encode = _make_encode()


def _encode_records(records: Iterable[dict]) -> list[str]:
    """One JSON line per record.  Sizes such as code_size = 2^(3n) can run
    past Python's limit on int-to-str digits, so the limit is lifted while
    the records are encoded, and restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons without the limit
        return [_encode(rec) for rec in records]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [_encode(rec) for rec in records]
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(records: list[dict], fmt: str, render: Callable[[list[dict]], Iterable[str]]) -> None:
    """Write a command's records to stdout in one write: one JSON line per
    record for "records", else the table lines that ``render`` draws from
    the records alone, so records mode renders no table.  The records are
    only read here and dropped after, so they may share the cached
    _poly_fields dicts and the fs list of a triple's audit records."""
    lines = _encode_records(records) if fmt == "records" else render(records)
    sys.stdout.write("\n".join([*lines, ""]))


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _factor_table(records: list[dict]) -> Iterator[str]:
    (rec,) = records
    yield f"x^{rec['n']}+1 ="
    for f in rec["factors"]:
        suffix = f"^{f['multiplicity']}" if f["multiplicity"] > 1 else ""
        yield f"  ({f['poly']}){suffix}  [{f['hex']}]"
    yield f"divisors: {rec['divisor_count']}"


def cmd_factor(args) -> int:
    fact = factor_xn1(args.n, bound=args.bound)
    record = {
        "kind": "factorization",
        "n": args.n,
        "factors": [
            {**_poly_fields(f), "multiplicity": m} for f, m in fact.factors
        ],
        "divisor_count": fact.divisor_count,
    }
    _emit([record], args.format, _factor_table)
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


def _inspect_table(records: list[dict]) -> Iterator[str]:
    (rec,) = records
    yield f"n = {rec['n']}"
    for name in ("f1", "f2", "f3"):
        yield f"{name} = {rec[name]['poly']}  [{rec[name]['hex']}]"
    yield (f"code size = 2^{rec['size_log2']} (rank); claimed 2^{rec['size_formula_log2']}"
           + ("" if rec["size_formula_matches"] else "  ** size formula mismatch"))

    if rec.get("zero_code"):
        yield "zero code: no distance, no quantum parameters"
        return

    yield "dual-containing: " + ", ".join(
        f"{k}={str(v).lower()}" for k, v in rec["dual_containing"].items())
    for entry in rec["components"]:
        d_text = entry["d"] if entry["d"] is not None else "-"
        yield f"component <{entry['poly']}>: [{entry['n']},{entry['dim']}] d={d_text}"

    q = rec["quantum"]
    if q is None:
        yield "not dual-containing: no quantum parameters"
    else:
        yield (f"quantum parameters {quantum.format_parameters([q['n'], q['k'], q['d']])} "
               f"(d_method={q['d_method']}, validated={str(q['validated']).lower()})")
        for note in q["notes"]:
            yield f"  note: {note}"

    for audit in rec["audits"]:
        yield f"audit {audit['target']}: {_status(audit['pass'])}"


def cmd_inspect(args) -> int:
    n = args.n
    fs = tuple(parse_poly(t) for t in (args.f1, args.f2, args.f3))
    audit = codes.audit_triple(n, *fs)  # raises PreconditionError on bad fi
    size = audit.size

    record = {
        "kind": "inspection",
        "n": n,
        "f1": _poly_fields(fs[0]),
        "f2": _poly_fields(fs[1]),
        "f3": _poly_fields(fs[2]),
        "size_log2": size.rank_log2,
        "size_method": "rank",
        "size_formula_log2": size.claimed_log2,
        "size_formula_matches": size.matches,
    }

    if size.rank_log2 == 0:
        record["zero_code"] = True
        _emit([record], args.format, _inspect_table)
        return EXIT_OK

    dc = {f"f{i + 1}": quantum.dual_containing_poly(n, f) for i, f in enumerate(fs)}
    record["dual_containing"] = dc
    record["components"] = [_component_report(n, f, args.enum_cap) for f in fs]

    if all(dc.values()):
        rec = quantum.css_from_triple(n, *fs)
        record["quantum"] = {
            "n": rec.n, "k": rec.k, "d": rec.d,
            "d_method": rec.d_method, "validated": rec.validated,
            "notes": list(rec.notes),
        }
    else:
        record["quantum"] = None

    texts = [record[name]["poly"] for name in ("f1", "f2", "f3")]
    record["audits"] = [
        _decomposition_record(audit.decomposition, "inspected code"),
        _dual_formula_record(audit.dual_formula, texts),
        _single_generator_record(audit.single_generator, texts),
    ]
    _emit([record], args.format, _inspect_table)
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


def _dual_formula_record(a: codes.DualFormulaAudit, fs: list[str]) -> dict:
    rec = {
        "kind": "audit",
        "target": "dual_formula",
        "n": a.n,
        "fs": fs,
        "code_size": a.code_size,
        "brute_dual_size": a.brute_dual_size,
        "formula_span_size": a.formula_span_size,
        "claimed_dual_size": a.claimed_dual_size,
        "formula_matches_brute": a.formula_matches_brute,
        "three_generator_matches_brute": a.three_generator_matches_brute,
        "size_claim_matches": a.size_claim_matches,
        "pass": a.formula_matches_brute,
    }
    if a.witness is not None:
        rec["witness"] = format_vec(a.witness)
        rec["witness_side"] = a.witness_side
    return rec


def _single_generator_record(a: codes.SingleGeneratorAudit, fs: list[str]) -> dict:
    rec = {
        "kind": "audit",
        "target": "single_generator",
        "n": a.n,
        "fs": fs,
        "code_size_log2": a.code_log2,
        "single_generator_size_log2": a.single_log2,
        "pass": a.equal,
    }
    if a.witness is not None:
        rec["witness"] = format_vec(a.witness)
    return rec


def _size_record(a: codes.SizeFormulaAudit, fs: list[str]) -> dict:
    return {
        "kind": "audit",
        "target": "size_formula",
        "n": a.n,
        "fs": fs,
        "rank_log2": a.rank_log2,
        "claimed_log2": a.claimed_log2,
        "pass": a.matches,
    }


def _search_table(records: list[dict]) -> Iterator[str]:
    *found, summary = records
    for rec in found:
        flags = " ".join(
            filter(None, [rec["d_method"],
                          "validated" if rec["validated"] else "unvalidated",
                          "; ".join(rec["notes"])])
        )
        yield (f"{quantum.format_parameters(rec['parameters'])}  f1={rec['f1']['poly']} "
               f"f2={rec['f2']['poly']} f3={rec['f3']['poly']}  ({flags})")
    yield (f"scanned {summary['scanned']} triples, {summary['admissible']} admissible, "
           f"{summary['emitted']} emitted")


def cmd_search(args) -> int:
    outcome = quantum.search_triples(
        n=args.n,
        equal_triples_only=args.equal_triples_only,
        min_k=args.min_k,
        max_results=args.max_results,
        divisor_cap=args.divisor_cap,
    )
    records = [{
        "kind": "search_result",
        "n": rec.ring_n,
        "f1": _poly_fields(rec.f1),
        "f2": _poly_fields(rec.f2),
        "f3": _poly_fields(rec.f3),
        "parameters": list(rec.parameters),
        "d_method": rec.d_method,
        "validated": rec.validated,
        "notes": list(rec.notes),
    } for rec in outcome.records]
    records.append({
        "kind": "search_result",
        "summary": True,
        "scanned": outcome.scanned,
        "admissible": outcome.admissible,
        "emitted": outcome.emitted,
    })
    _emit(records, args.format, _search_table)
    return EXIT_OK


def _reproduce_table(records: list[dict]) -> Iterator[str]:
    *rows, summary = records
    for row in rows:
        yield (f"{_status(row['match'])}  {row['label']}: published "
               f"{quantum.format_parameters(row['published'])}, computed "
               f"{quantum.format_parameters(row['computed'])}")
        for note in row["notes"]:
            yield f"      note: {note}"
    yield f"{summary['matched']}/{summary['rows']} rows match"


def cmd_reproduce(args) -> int:
    results = reference.reproduce_all()
    records = [{
        "kind": "reproduction",
        "label": res.row.label,
        "n": res.row.n,
        "f": _poly_fields(parse_poly(res.row.f)),
        "published": list(res.row.published),
        "computed": list(res.computed),
        "match": res.matches,
        "validated": res.record.validated,
        "notes": list(res.notes),
    } for res in results]
    matched = sum(r.matches for r in results)
    records.append({
        "kind": "reproduction",
        "summary": True,
        "rows": len(results),
        "matched": matched,
    })
    _emit(records, args.format, _reproduce_table)
    return EXIT_OK if matched == len(results) else EXIT_MISMATCH


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


def _audit_table(records: list[dict]) -> Iterator[str]:
    """A line per catalog code, with its witnesses, then a line per divisor
    triple for its four claims; every verdict is a record's "pass"."""
    catalog = len(AUDIT_CATALOG)
    for rec in records[:catalog]:
        detail = (
            f"|C|={rec['code_size']}, product={rec['product_size']}, "
            f"tensor={'ok' if rec['tensor_equal'] else 'FAIL'}, "
            f"reconstruction={'ok' if rec['reconstruction_equal'] else 'FAIL'}"
        )
        yield f"{_status(rec['pass'])}  decomposition  {rec['code']}  ({detail})"
        if "tensor_witness" in rec:
            yield f"      tensor witness: {rec['tensor_witness']}"
        if "reconstruction_witness" in rec:
            yield (f"      reconstruction witness: {rec['reconstruction_witness']} "
                   f"({rec['reconstruction_witness_side']})")
    for i in range(catalog, len(records), 4):
        claims = records[i:i + 4]
        yield f"{claims[0]['code']}: " + " ".join(
            f"{claim}={_status(rec['pass'])}"
            for claim, rec in zip(("decomposition", "size", "single_generator",
                                   "dual_formula"), claims))
    failed = sum(not rec["pass"] for rec in records)
    yield f"{len(records)} audits, {failed} failed claims (witnesses recorded)"


def cmd_audit(args) -> int:
    records = [
        _decomposition_record(
            codes.audit_decomposition_image(codes.gray_image_basis(codes.RingCode(n, gens))),
            label)
        for label, n, gens in AUDIT_CATALOG
    ]
    for n in range(1, args.n_max + 1):
        named = [(f, format_poly(f)) for f in enumerate_divisors(n)]
        for (f1, t1), (f2, t2), (f3, t3) in product(named, repeat=3):
            audit = codes.audit_triple(n, f1, f2, f3)
            texts = [t1, t2, t3]
            records += (
                _decomposition_record(audit.decomposition, f"cyclic n={n}, ({t1}; {t2}; {t3})"),
                _size_record(audit.size, texts),
                _single_generator_record(audit.single_generator, texts),
                _dual_formula_record(audit.dual_formula, texts),
            )
    _emit(records, args.format, _audit_table)
    return EXIT_OK


_N_OPTION = {"--n": {"type": _positive_int, "required": True}}
_FORMAT_OPTION = {"--format": {"choices": ("table", "records"), "default": "table",
                               "help": "human table or line-delimited JSON records"}}

# One entry per command: its help, its handler and the options it reads,
# each an exact long spelling with its add_argument keywords.  Both the
# full parser and _parse_argv read it.
COMMANDS: dict[str, tuple[str, Callable, dict[str, dict]]] = {
    "factor": ("factor x^n+1 over GF(2)", cmd_factor, {
        **_N_OPTION,
        "--bound": {"type": _positive_int, "default": DEFAULT_FACTOR_BOUND},
        **_FORMAT_OPTION,
    }),
    "inspect": ("inspect one generator triple", cmd_inspect, {
        **_N_OPTION,
        "--f1": {"required": True},
        "--f2": {"required": True},
        "--f3": {"required": True},
        **_FORMAT_OPTION,
        "--enum-cap": {"type": _positive_int, "default": codes.DEFAULT_ENUM_CAP,
                       "help": "max size 2^dim of a component <fi> whose "
                               "distance the component reports search; "
                               "the quantum d does not read it"},
    }),
    "search": ("search divisor triples for quantum codes", cmd_search, {
        **_N_OPTION,
        "--min-k": {"type": _int, "default": None},
        "--equal-triples-only": {"action": "store_true", "default": False},
        "--max-results": {"type": _positive_int, "default": None},
        **_FORMAT_OPTION,
        "--divisor-cap": {"type": _positive_int, "default": DEFAULT_DIVISOR_CAP,
                          "help": "max number of divisors of x^n+1"},
    }),
    "reproduce-paper": ("recompute the published parameter table", cmd_reproduce,
                        _FORMAT_OPTION),
    "audit": ("audit structural claims by exact rank algebra", cmd_audit, {
        "--n-max": {"type": _positive_int, "default": 3},
        **_FORMAT_OPTION,
    }),
}


def build_parser():
    """The full parser: the top-level parser with one subparser per entry of
    COMMANDS.  A usage problem exits 1, not argparse's 2."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="vcubed",
                    description="Cyclic codes over F2[v]/(v^3 - v), Gray images, "
                                "and CSS quantum-code parameters.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read straight
    off COMMANDS, when argv is a command followed only by exact spellings of
    its own options, every value well formed and every required option
    given; any other argv gives None.  A value may not start with "-", so
    argparse could not take it for an option."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # the full parser calls the same type and words the error
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    # argparse's dest for a long option: its name with "-" turned into "_"
    dests = {flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
             for flag, spec in options.items()}
    return SimpleNamespace(command=argv[0], **dests, func=func)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A well-formed argv is read straight off COMMANDS
    (_parse_argv) and builds no parser; any other argv goes to the full
    parser, so every usage, help and error text is argparse's."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_argv(argv) or build_parser().parse_args(argv)
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
