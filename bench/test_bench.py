"""Tests of the benchmark's own parts: invariant checks, tracer and worker."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import vcubed.codes  # noqa: E402
import vcubed.quantum  # noqa: E402
from tracer import SpanTracer  # noqa: E402


@pytest.fixture(scope="module")
def search_n8(tmp_path_factory):
    """stdout and result of search_n8 in each worker mode, run side by side."""
    tmp = tmp_path_factory.mktemp("worker")
    procs = {}
    for mode in ("plain", "traced", "counted"):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "search_n8",
               "--mode", mode, "--result", str(tmp / f"{mode}.json")]
        procs[mode] = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = {}
    for mode, proc in procs.items():
        stdout, _ = proc.communicate(timeout=170)
        assert proc.returncode == 0
        out[mode] = (stdout, json.loads((tmp / f"{mode}.json").read_text()))
    return out


def _corrupt(stdout: str, edit) -> str:
    records = [json.loads(line) for line in stdout.splitlines()]
    edit(records)
    return "".join(json.dumps(r) + "\n" for r in records)


def test_checker_accepts_seed_output(search_n8):
    assert checks.check("search_n8", search_n8["plain"][0]) == []


def test_checker_rejects_corrupted_triple(search_n8):
    def edit(records):
        records[0]["f1"]["hex"] = "0x7"  # x^2+x+1 does not divide x^8+1

    problems = checks.check("search_n8", _corrupt(search_n8["plain"][0], edit))
    assert any("emitted triples differ" in p for p in problems)


def test_checker_rejects_corrupted_summary_count(search_n8):
    def edit(records):
        records[-1]["scanned"] -= 1

    problems = checks.check("search_n8", _corrupt(search_n8["plain"][0], edit))
    assert problems == ["summary scanned = 728, expected 729"]


def test_admissible_divisors_match_the_paper_rows():
    assert len(checks.admissible_divisors(8)) == 5
    assert len(checks.admissible_divisors(21)) == 9


def test_traced_runs_print_the_same_stdout(search_n8):
    plain = search_n8["plain"][0]
    assert search_n8["traced"][0] == plain
    assert search_n8["counted"][0] == plain
    traced = search_n8["traced"][1]["layers"]
    assert traced["quantum.css_from_triple"]["calls"] == 125
    assert search_n8["counted"][1]["counts"]["ring.gray_vec_inverse"] > 0


def test_tracer_rebinds_direct_imports_and_tolerates_missing_names():
    rref, basis = vcubed.codes.rref, vcubed.codes.gray_image_basis
    tracer = SpanTracer(["codes.rref", "codes.gray_image_basis",
                         "codes.no_such_function", "no_such_module.f"])
    tracer.install()
    try:
        assert vcubed.quantum.gray_image_basis is not basis
        vcubed.codes.BinaryCode.from_rows(3, [0b011, 0b110])
    finally:
        tracer.uninstall()
    assert vcubed.codes.rref is rref and vcubed.quantum.gray_image_basis is basis
    summary = tracer.summary()
    assert summary["codes.rref"]["calls"] == 1
    assert summary["codes.no_such_function"] == {"calls": 0, "self_s": 0.0}
    assert summary["no_such_module.f"] == {"calls": 0, "self_s": 0.0}


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    zero = {t: {"calls": 0, "self_s": 0.0} for t in layers.TRACED}
    produced = layers.layer_metrics(zero, {}, 0.0, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()}
