"""vcubed benchmark: exhaustive workloads, each run in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

BENCHMARK.json lists search_n8 and audit_n4, which between them reach every
traced layer.  search_n21 and divisor_scan run the same way and are kept for
before/after figures on the Gray-basis and divisor layers, but are left out
of BENCHMARK.json: wall times on a shared 2-core host drift by about 20%
over minutes, so each run measures for 60 s, and a full set of benchmark
runs must fit in under an hour, which allows that for two workloads only.

Run from the root of a vcubed checkout; nothing outside it is read or
written.  Load is a closed loop with one client: one workload run at a
time, each in a new interpreter, so lru_caches start cold as they do for a
CLI user.

--trace 0 repeats untraced runs until the next one would end after T
seconds, interleaved with import-only probes, and reports the medians of
wall_s, peak_rss_mb and setup_s plus pass_ratio.  --trace 1 makes one
untraced, one traced and one count-only run, in an order set by the seed,
and reports the per-layer metrics.  The workloads are exhaustive, so the
seed changes only the interleaving, never the program's inputs.

Every workload run counts as failed when it raises, exits other than 0,
breaks an invariant of checks.py, or prints stdout that differs from the
first run of the same source in this checkout.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  Provenance and
per-run samples go to the line before it and to .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "vcubed"
STATE = ROOT / ".bench_build" / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("search_n21", "search_n8", "audit_n4", "divisor_scan")
MIN_SETUP_SAMPLES = 11
# Every run must end within 180 s; a workload run still going at this point
# is killed and counted as failed.
HARD_LIMIT_S = 170.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not its own git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Session:
    """Workload runs of one benchmark invocation and what they measured."""

    def __init__(self, workload: str, started: float) -> None:
        self.workload = workload
        self.started = started
        self.digest = source_digest()
        self.runs: list[dict] = []
        self.setup_s: list[float] = []
        self.tmp = STATE / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def _spawn(self, mode: str) -> tuple[dict, str, str]:
        """One fresh worker; returns (its result file, stdout, stderr)."""
        result = self.tmp / f"{os.getpid()}-{mode}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--mode", mode, "--result", str(result)]
        if mode == "traced":
            cmd += ["--spans", str(STATE / f"{self.workload}.spans.json")]
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {budget:.0f} s"}, "", ""
        try:
            data = json.loads(result.read_text())
            result.unlink()
        except (OSError, ValueError):
            data = {"error": f"worker exited {proc.returncode} without a result"}
        if "ready" in data:
            self.setup_s.append(data["ready"] - spawned)
        data["elapsed_s"] = time.monotonic() - spawned
        return data, proc.stdout, proc.stderr

    def probe(self) -> None:
        data, _, stderr = self._spawn("probe")
        if "ready" not in data:
            raise RuntimeError(f"import failed: {data.get('error')}\n{stderr}")
        if Path(data["vcubed_file"]).resolve().parent != PACKAGE.resolve():
            raise RuntimeError(f"imported vcubed from {data['vcubed_file']}, not {PACKAGE}")

    def run(self, mode: str) -> dict:
        """One workload run, with its failure reasons (empty when it passed)."""
        data, stdout, stderr = self._spawn(mode)
        reasons = []
        if "error" in data:
            reasons.append(data["error"].strip().splitlines()[-1])
        elif data.get("exit") != 0:
            reasons.append(f"exit code {data.get('exit')}")
        if not reasons:
            reasons += checks.check(self.workload, stdout)
            if self._first_stdout_digest(stdout) != _sha(stdout):
                reasons.append("stdout differs from the first run of this source")
        data.update(mode=mode, failures=reasons, stderr_tail=stderr[-2000:])
        self.runs.append(data)
        return data

    def _first_stdout_digest(self, stdout: str) -> str:
        """Digest of the first stdout this source printed for the workload."""
        path = STATE / f"stdout-{self.workload}-{self.digest[:16]}.sha256"
        if not path.exists():
            path.write_text(_sha(stdout))
        return path.read_text().strip()

    @property
    def failed(self) -> int:
        return sum(bool(r["failures"]) for r in self.runs)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _good(session: Session, mode: str) -> dict:
    for r in session.runs:
        if r["mode"] == mode and not r["failures"]:
            return r
    raise RuntimeError(f"no {mode} run of {session.workload} passed")


def measure_end_to_end(session: Session, seconds: float, rng: random.Random) -> dict:
    deadline = session.started + seconds
    elapsed = []
    while True:
        for _ in range(rng.randint(0, 2)):
            session.probe()
        rep = session.run("plain")
        elapsed.append(rep["elapsed_s"])
        if rep["failures"] and "wall_s" not in rep:
            break  # crashed or killed: more repetitions would not help
        if time.monotonic() + statistics.median(elapsed) > deadline:
            break
    while len(session.setup_s) < MIN_SETUP_SAMPLES:
        session.probe()
    good = [r for r in session.runs if not r["failures"]]
    if not good:
        raise RuntimeError(f"no run of {session.workload} passed")
    attempted = len(session.runs)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in good), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MiB"),
        "setup_s": (statistics.median(session.setup_s), "s"),
        "pass_ratio": ((attempted - session.failed) / attempted, "ratio"),
    }


def measure_layers(session: Session, rng: random.Random) -> tuple[dict, dict]:
    modes = ["plain", "traced", "counted"]
    rng.shuffle(modes)
    for mode in modes:
        session.run(mode)
    plain, traced, counted = (_good(session, m) for m in ("plain", "traced", "counted"))
    metrics = layers.layer_metrics(traced["layers"], counted["counts"], plain["wall_s"],
                                   traced["wall_s"], plain["cpu_s"])
    return metrics, layers.hotspot_report(session.workload, traced["layers"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no vcubed sources at {PACKAGE}", file=sys.stderr)
        return 2

    session = Session(args.workload, started)
    rng = random.Random(args.seed)
    hotspot = None
    try:
        session.probe()
        if args.trace:
            metrics, hotspot = measure_layers(session, rng)
        else:
            metrics = measure_end_to_end(session, args.seconds, rng)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        for r in session.runs:
            if r["failures"]:
                print(f"  {r['mode']}: {r['failures']}\n{r['stderr_tail']}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": session.digest,
        },
        "setup_s": session.setup_s,
        "runs": [{k: r.get(k) for k in ("mode", "wall_s", "cpu_s", "peak_rss_mb",
                                        "elapsed_s", "failures")} for r in session.runs],
        "hotspot": hotspot,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": len(session.runs),
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
