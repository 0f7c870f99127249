"""One workload run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --mode plain|traced|counted|probe --result PATH

The workload's output goes to this process's stdout, exactly as a CLI user
sees it.  Measurements go to PATH as one JSON object.  ``ready`` is the
CLOCK_MONOTONIC reading once the package is imported, so the parent can
take set-up time from its own reading before the spawn.  The timed region
is the call into ``vcubed.cli.main(argv)`` or the ``divisor_scan`` loop.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import vcubed  # noqa: E402
import vcubed.cli  # noqa: E402  (the CLI's own imports count as set-up too)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
from tracer import CallCounter, SpanTracer  # noqa: E402

CLI_WORKLOADS = {
    "search_n21": ["search", "--n", "21", "--format", "records"],
    "search_n8": ["search", "--n", "8", "--format", "records"],
    "audit_n4": ["audit", "--n-max", "4", "--format", "records"],
}

SCAN_DIVISOR_CAP = 16384
# x^n + 1 has more than SCAN_DIVISOR_CAP divisors at these lengths; n = 127
# alone would take about 27 s per run.
SCAN_SKIPPED = frozenset({105, 120, 124, 126, 127})
SCAN_LENGTHS = tuple(n for n in range(1, 129) if n not in SCAN_SKIPPED)

WORKLOADS = (*CLI_WORKLOADS, "divisor_scan")


def divisor_scan(found: list) -> int:
    """Admitted divisors per length, built exactly as search_triples does."""
    gf2poly, quantum = vcubed.gf2poly, vcubed.quantum
    for n in SCAN_LENGTHS:
        modulus = gf2poly.xn1(n)
        divisors = gf2poly.enumerate_divisors(n, cap=SCAN_DIVISOR_CAP)
        admitted = [f for f in divisors
                    if f != modulus and quantum.dual_containing_poly(n, f)]
        found.append((n, len(divisors), admitted))
    return 0


def run_workload(name: str) -> tuple[int, float, float]:
    """Run once; returns (exit code, wall seconds, CPU seconds)."""
    found: list = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    if name == "divisor_scan":
        code = divisor_scan(found)
    else:
        code = vcubed.cli.main(list(CLI_WORKLOADS[name]))
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    for n, count, admitted in found:
        print(n, count, *(format(f, "x") for f in admitted))
    sys.stdout.flush()
    return code, wall, cpu


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "traced", "counted", "probe"))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="write traced spans here")
    args = parser.parse_args()

    result: dict = {"ready": READY, "vcubed_file": vcubed.__file__}
    if args.mode != "probe":
        instrument = None
        if args.mode == "traced":
            instrument = SpanTracer(layers.TRACED, layers.HOOKS).install()
        elif args.mode == "counted":
            instrument = CallCounter(layers.COUNTED).install()
        try:
            code, wall, cpu = run_workload(args.workload)
            result.update(exit=code, wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb())
        except Exception:
            result.update(exit=None, error=traceback.format_exc())
        finally:
            if instrument is not None:
                instrument.uninstall()
        if isinstance(instrument, SpanTracer):
            result["layers"] = instrument.summary()
            if args.spans is not None:
                args.spans.write_text(json.dumps(instrument.span_rows()))
        elif isinstance(instrument, CallCounter):
            result["counts"] = instrument.counts()
    args.result.write_text(json.dumps(result))
    return 0 if result.get("exit", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
