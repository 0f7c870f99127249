"""The layers the benchmark traces and the per-layer metrics derived from them.

Each traced name is ``<module>.<function>`` inside the vcubed package.  The
hooks turn a call's arguments or result into a work count (codewords walked,
candidates scanned, useful outcomes), so ratios are measured where the work
happens.
"""

from __future__ import annotations

TRACED = (
    "cli.main",
    "quantum.search_triples",
    "quantum.css_from_triple",
    "quantum.validate_css_binary",
    "quantum.dual_containing_poly",
    "codes.build_ring_cyclic",
    "codes.gray_image_basis",
    "codes.rref",
    "codes.nullspace",
    "codes.span_enumerate",
    "codes.min_lee_enum",
    "codes.min_hamming",
    "codes.dual_ring_bruteforce",
    "codes.audit_decomposition",
    "codes.audit_dual_formula",
    "codes.audit_single_generator",
    "codes.audit_size_formula",
    "gf2poly.enumerate_divisors",
    "gf2poly.factor_xn1",
)

# Called about 10^6 times per workload: timing each call would distort the
# traced run, so these are only counted, in a pass of their own.
COUNTED = (
    "ring.ring_mul",
    "ring.scale_vec",
    "ring.gray_vec",
    "ring.gray_vec_inverse",
    "ring.ring_inner_product",
)


def _css_outcome(args, kwargs, rec):
    return {f"d_method.{rec.d_method}": 1, "validated": int(rec.validated)}


HOOKS = {
    "codes.span_enumerate": lambda a, k, span: {"codewords": len(span)},
    "codes.min_lee_enum": lambda a, k, _: {"codewords": len(a[0])},
    "codes.min_hamming": lambda a, k, _: {"codewords": 1 << a[0].dim},
    "codes.dual_ring_bruteforce": lambda a, k, _: {"candidates": 8 ** a[1]},
    "gf2poly.enumerate_divisors": lambda a, k, divisors: {"listed": len(divisors)},
    "quantum.dual_containing_poly": lambda a, k, ok: {"true": int(ok)},
    "quantum.css_from_triple": _css_outcome,
}

# The three codeword walkers behind codes.walk_rate.
WALKERS = ("codes.span_enumerate", "codes.min_lee_enum", "codes.min_hamming")

# (metric, traced name, field, unit) read straight from the traced summary.
_DIRECT = (
    ("codes.gray_image_basis.calls", "codes.gray_image_basis", "calls", "count"),
    ("codes.gray_image_basis.self_s", "codes.gray_image_basis", "self_s", "s"),
    ("codes.build_ring_cyclic.self_s", "codes.build_ring_cyclic", "self_s", "s"),
    ("codes.rref.calls", "codes.rref", "calls", "count"),
    ("codes.rref.self_s", "codes.rref", "self_s", "s"),
    ("codes.nullspace.self_s", "codes.nullspace", "self_s", "s"),
    ("codes.span_enumerate.calls", "codes.span_enumerate", "calls", "count"),
    ("codes.span_enumerate.self_s", "codes.span_enumerate", "self_s", "s"),
    ("codes.span_enumerate.codewords", "codes.span_enumerate", "codewords", "count"),
    ("codes.min_lee_enum.self_s", "codes.min_lee_enum", "self_s", "s"),
    ("codes.min_hamming.calls", "codes.min_hamming", "calls", "count"),
    ("codes.min_hamming.self_s", "codes.min_hamming", "self_s", "s"),
    ("codes.min_hamming.codewords", "codes.min_hamming", "codewords", "count"),
    ("codes.dual_ring_bruteforce.calls", "codes.dual_ring_bruteforce", "calls", "count"),
    ("codes.dual_ring_bruteforce.self_s", "codes.dual_ring_bruteforce", "self_s", "s"),
    ("codes.dual_ring_bruteforce.candidates", "codes.dual_ring_bruteforce", "candidates", "count"),
    ("codes.audit_decomposition.self_s", "codes.audit_decomposition", "self_s", "s"),
    ("codes.audit_dual_formula.self_s", "codes.audit_dual_formula", "self_s", "s"),
    ("codes.audit_single_generator.self_s", "codes.audit_single_generator", "self_s", "s"),
    ("codes.audit_size_formula.self_s", "codes.audit_size_formula", "self_s", "s"),
    ("gf2poly.enumerate_divisors.calls", "gf2poly.enumerate_divisors", "calls", "count"),
    ("gf2poly.enumerate_divisors.self_s", "gf2poly.enumerate_divisors", "self_s", "s"),
    ("gf2poly.divisors_listed", "gf2poly.enumerate_divisors", "listed", "count"),
    ("gf2poly.factor_xn1.calls", "gf2poly.factor_xn1", "calls", "count"),
    ("gf2poly.factor_xn1.self_s", "gf2poly.factor_xn1", "self_s", "s"),
    ("quantum.dual_containing_poly.calls", "quantum.dual_containing_poly", "calls", "count"),
    ("quantum.dual_containing_poly.self_s", "quantum.dual_containing_poly", "self_s", "s"),
    ("quantum.search_triples.self_s", "quantum.search_triples", "self_s", "s"),
    ("quantum.css_from_triple.calls", "quantum.css_from_triple", "calls", "count"),
    ("quantum.css_from_triple.self_s", "quantum.css_from_triple", "self_s", "s"),
    ("quantum.validate_css_binary.calls", "quantum.validate_css_binary", "calls", "count"),
    ("quantum.validate_css_binary.self_s", "quantum.validate_css_binary", "self_s", "s"),
    ("quantum.d_method.enumerated", "quantum.css_from_triple", "d_method.enumerated", "count"),
    ("quantum.d_method.component_formula", "quantum.css_from_triple",
     "d_method.component_formula", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, counts: dict, plain_wall_s: float,
                  traced_wall_s: float, plain_cpu_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``traced`` is SpanTracer.summary() of the traced run, ``counts`` is
    CallCounter.counts() of the count-only run, and the plain figures come
    from the untraced run of the same workload.
    """
    out = {name: (traced[t].get(field, 0), unit) for name, t, field, unit in _DIRECT}
    walked = sum(traced[t].get("codewords", 0) for t in WALKERS)
    walk_time = sum(traced[t]["self_s"] for t in WALKERS)
    out["codes.walk_rate"] = (_ratio(walked, walk_time), "1/s")
    dcp = traced["quantum.dual_containing_poly"]
    out["quantum.dual_containing_poly.true_ratio"] = (
        _ratio(dcp.get("true", 0), dcp["calls"]), "ratio")
    css = traced["quantum.css_from_triple"]
    out["quantum.validated_ratio"] = (_ratio(css.get("validated", 0), css["calls"]), "ratio")
    for target in COUNTED:
        out[f"{target}.calls"] = (counts.get(target, 0), "count")
    out["cli.cpu_s"] = (plain_cpu_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - plain_wall_s, "s")
    return out


# The layer predicted, when the benchmark was defined, to hold each workload's
# largest self time; the runner reports whether the traced run agrees.
PREDICTED_HOTSPOT = {
    "search_n21": ("codes.gray_image_basis", "codes.rref"),
    "search_n8": ("codes.span_enumerate", "codes.min_lee_enum"),
    "audit_n4": ("codes.dual_ring_bruteforce",),
    "divisor_scan": ("gf2poly.enumerate_divisors", "quantum.dual_containing_poly"),
}


def hotspot_report(workload: str, traced: dict) -> dict:
    """Largest self time in the traced run against the predicted layer."""
    ranked = sorted(traced, key=lambda t: traced[t]["self_s"], reverse=True)
    total = sum(v["self_s"] for v in traced.values())
    predicted = PREDICTED_HOTSPOT[workload]
    share = _ratio(sum(traced[t]["self_s"] for t in predicted), total)
    return {
        "largest": ranked[0],
        "top3": [[t, traced[t]["self_s"]] for t in ranked[:3]],
        "predicted": list(predicted),
        "predicted_share": share,
        "as_predicted": ranked[0] in predicted,
    }
