import hashlib
import json

import pytest

from vcubed.cli import main
from vcubed.codes import BinaryCode
from vcubed.gf2poly import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_factor_table(capsys):
    code, out, _ = run(capsys, "factor", "--n", "15")
    assert code == 0
    assert "(x+1)" in out
    assert "(x^4+x^3+x^2+x+1)" in out
    assert "divisors: 32" in out


def test_factor_records_round_trip(capsys):
    code, out, _ = run(capsys, "factor", "--n", "16", "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    assert rec["kind"] == "factorization"
    assert rec["factors"] == [{"poly": "x+1", "hex": "0x3", "multiplicity": 16}]
    assert rec["divisor_count"] == 17
    for f in rec["factors"]:
        assert parse_poly(f["poly"]) == parse_poly(f["hex"])


def test_factor_n1(capsys):
    code, out, _ = run(capsys, "factor", "--n", "1")
    assert code == 0 and "(x+1)" in out


def test_factor_out_of_bounds_exit_code(capsys):
    code, _, err = run(capsys, "factor", "--n", "500")
    assert code == 3
    assert "precondition" in err


@pytest.mark.parametrize("argv", [
    ("search", "--n", "8", "--enum-cap", "-5"),
    ("search", "--n", "8", "--rank-cap", "-1"),
    ("search", "--n", "8", "--divisor-cap", "-1"),
    ("search", "--n", "8", "--enum-cap", "0"),
    ("factor", "--n", "0"),
    ("search", "--n", "0"),
    ("inspect", "--n", "0", "--f1", "1", "--f2", "1", "--f3", "1"),
    ("factor", "--n", "eight"),
    ("factor", "--n", "8", "--bound", "0"),
    ("search", "--n", "8", "--max-results", "-1"),
    ("search", "--n", "8", "--max-results", "0"),
    ("audit", "--n-max", "-2"),
    ("audit", "--n-max", "0"),
])
def test_nonpositive_caps_and_lengths_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    assert "argument --" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["factor"])  # missing --n
    assert info.value.code == 1


def test_inspect_example19(capsys):
    code, out, _ = run(capsys, "inspect", "--n", "8", "--f1", "x^3+x^2+x+1",
                       "--f2", "x^3+x^2+x+1", "--f3", "0xF",
                       "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    assert rec["kind"] == "inspection"
    assert rec["dual_containing"] == {"f1": True, "f2": True, "f3": True}
    assert rec["quantum"]["n"] == 24
    assert rec["quantum"]["k"] == 6
    assert rec["quantum"]["d"] == 2
    assert rec["quantum"]["validated"] is True
    assert rec["size_log2"] == 15 and rec["size_formula_matches"] is True
    targets = {a["target"] for a in rec["audits"]}
    assert "decomposition" in targets and "single_generator" in targets


def test_inspect_example22(capsys):
    code, out, _ = run(capsys, "inspect", "--n", "15", "--f1", "x^4+x+1",
                       "--f2", "x^4+x+1", "--f3", "x^4+x+1",
                       "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    assert (rec["quantum"]["n"], rec["quantum"]["k"], rec["quantum"]["d"]) == (45, 21, 3)
    assert rec["quantum"]["validated"] is True


def test_inspect_zero_code(capsys):
    code, out, _ = run(capsys, "inspect", "--n", "1", "--f1", "x+1",
                       "--f2", "x+1", "--f3", "x+1")
    assert code == 0
    assert "zero code" in out


def test_inspect_non_divisor_exit_code(capsys):
    code, _, err = run(capsys, "inspect", "--n", "8", "--f1", "x^2+x+1",
                       "--f2", "x+1", "--f3", "x+1")
    assert code == 3
    assert "f1" in err


def test_inspect_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "inspect", "--n", "8", "--f1", "x^3+y",
                       "--f2", "x+1", "--f3", "x+1")
    assert code == 1
    assert "parse error" in err


def test_search_n8_equal_triples(capsys):
    code, out, _ = run(capsys, "search", "--n", "8", "--equal-triples-only",
                       "--format", "records")
    assert code == 0
    recs = records_of(out)
    summary = recs[-1]
    assert summary.get("summary") is True
    assert summary["emitted"] == 5
    params = [tuple(r["parameters"]) for r in recs[:-1]]
    assert (24, 18, 2) in params and (24, 12, 2) in params and (24, 6, 2) in params


def test_search_n1(capsys):
    code, out, _ = run(capsys, "search", "--n", "1", "--format", "records")
    assert code == 0
    recs = records_of(out)
    assert len(recs) == 2  # one record plus summary
    assert tuple(recs[0]["parameters"]) == (3, 3, 1)


def test_search_divisor_cap_exit_code(capsys):
    code, _, err = run(capsys, "search", "--n", "15", "--divisor-cap", "10")
    assert code == 2
    assert "cap" in err


def test_search_output_deterministic(capsys):
    _, out1, _ = run(capsys, "search", "--n", "7", "--equal-triples-only",
                     "--format", "records")
    _, out2, _ = run(capsys, "search", "--n", "7", "--equal-triples-only",
                     "--format", "records")
    assert out1 == out2


def test_reproduce_paper(capsys):
    code, out, _ = run(capsys, "reproduce-paper", "--format", "records")
    rows = [r for r in records_of(out) if not r.get("summary")]
    assert len(rows) == 9
    matched = [r for r in rows if r["match"]]
    # the published [[63,45,3]] row disagrees with exact enumeration
    assert len(matched) == 8
    bad = next(r for r in rows if not r["match"])
    assert bad["published"] == [63, 45, 3]
    assert bad["computed"] == [63, 45, 2]
    assert code == 4  # nonzero exactly because a row mismatches


def test_reproduce_paper_table_summary(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 4
    lines = out.strip().splitlines()
    assert lines[-1] == "8/9 rows match"
    assert sum(line.startswith("PASS") for line in lines) == 8
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_reproduce_paper_emits_display_errata(capsys):
    _, out, _ = run(capsys, "reproduce-paper", "--format", "records")
    rows = [r for r in records_of(out) if not r.get("summary")]
    n7 = next(r for r in rows if r["label"].startswith("n=7"))
    assert any("x^4+x^3+x^2+1" in note for note in n7["notes"])
    n21 = next(r for r in rows if r["label"] == "n=21, f=x^6+x^5+x^4+x^2+1")
    assert any("x^4+x+1" in note for note in n21["notes"])


def test_audit_counterexample_row(capsys):
    code, out, _ = run(capsys, "audit", "--n-max", "1", "--format", "records")
    assert code == 0
    recs = records_of(out)
    counterexample = next(
        r for r in recs if r.get("code") == "ideal <1+v>, n=1"
    )
    assert counterexample["pass"] is False
    assert counterexample["code_size"] == 4
    assert counterexample["product_size"] == 8
    assert counterexample["tensor_witness"] == "(v^2)"


def test_audit_enum_cap_exit_code(capsys):
    # the first n = 3 code has 2^9 codewords, over the cap of 100
    code, out, err = run(capsys, "audit", "--n-max", "3", "--enum-cap", "100")
    assert code == 2
    assert out == ""
    assert err == "cap exceeded: span estimate 2^9 exceeds enumeration cap 100\n"


def test_audit_and_inspect_walk_no_codewords(capsys, monkeypatch):
    # every audit is rank algebra on bases: no codeword set is walked
    def refuse(self):
        raise AssertionError("codeword walk")

    monkeypatch.setattr(BinaryCode, "codewords", refuse)
    code, out, _ = run(capsys, "audit", "--n-max", "4", "--format", "records")
    assert code == 0
    assert len(records_of(out)) == 904
    f = "x^3+x^2+x+1"
    code, out, _ = run(capsys, "inspect", "--n", "8", "--f1", f, "--f2", f, "--f3", f,
                       "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    assert {a["target"] for a in rec["audits"]} == {"decomposition", "single_generator"}


def test_audit_table_runs(capsys):
    code, out, _ = run(capsys, "audit", "--n-max", "2")
    assert code == 0
    assert "witness" in out
    assert "audits" in out.splitlines()[-1]


def test_polynomials_in_records_round_trip(capsys):
    _, out, _ = run(capsys, "search", "--n", "8", "--equal-triples-only",
                    "--format", "records")
    for rec in records_of(out):
        for key in ("f1", "f2", "f3"):
            if key in rec:
                assert parse_poly(rec[key]["poly"]) == parse_poly(rec[key]["hex"])


# Digests of stdout from before the search was memoised; the caches must not
# change a byte.
@pytest.mark.parametrize("argv, digest", [
    (("search", "--n", "8", "--format", "records"),
     "aeae3bd73a82db013287e229af10bd752fb8e75d890fe32e82d70c1e194569e4"),
    (("search", "--n", "7"),
     "0a247e71ff7576ff64658a82b45ab57b63d1dd1e0fb8787a47b1ec15b13c2934"),
])
def test_search_stdout_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
