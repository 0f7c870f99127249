import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from vcubed import cli
from vcubed.cli import build_parser, main
from vcubed.codes import BinaryCode
from vcubed.gf2poly import enumerate_divisors, parse_poly


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


def test_factor_stdout_is_pinned_up_to_the_default_bound(capsys):
    # Digest of the joined stdout from before x^n + 1 was split by
    # cyclotomic coset sums, when each factor was built as a minimal
    # polynomial in GF(2^t); no factorization may change a byte.
    outs = []
    for n in range(1, 129):
        code, out, err = run(capsys, "factor", "--n", str(n), "--format", "records")
        assert (code, err) == (0, ""), n
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "3b192adb7bc295e3b45568822a19b98872053642a0d5c029206037f2e8475030")


@pytest.mark.parametrize("argv", [
    ("inspect", "--n", "8", "--f1", "1", "--f2", "1", "--f3", "1", "--enum-cap", "-5"),
    ("inspect", "--n", "8", "--f1", "1", "--f2", "1", "--f3", "1", "--enum-cap", "0"),
    ("search", "--n", "8", "--divisor-cap", "-1"),
    ("search", "--n", "8", "--divisor-cap", "0"),
    ("factor", "--n", "0"),
    ("search", "--n", "0"),
    ("inspect", "--n", "0", "--f1", "1", "--f2", "1", "--f3", "1"),
    ("factor", "--n", "eight"),
    ("factor", "--n", "8", "--bound", "0"),
    ("search", "--n", "8", "--max-results", "-1"),
    ("search", "--n", "8", "--max-results", "0"),
    ("audit", "--n-max", "-2"),
    ("audit", "--n-max", "0"),
    ("search", "--n", "\uff18"),
    ("search", "--n", "1_0"),
    ("search", "--n", "8", "--min-k=-1_0"),
    ("search", "--n", "8", "--min-k", "\uff18"),
])
def test_nonpositive_caps_and_lengths_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    assert "argument --" in capsys.readouterr().err


# The option dests each subcommand declares: exactly the ones it reads.
PARSER_DESTS = {
    "factor": {"n", "bound", "format"},
    "inspect": {"n", "f1", "f2", "f3", "format", "enum_cap"},
    "search": {"n", "min_k", "equal_triples_only", "max_results", "format",
               "divisor_cap"},
    "reproduce-paper": {"format"},
    "audit": {"n_max", "format"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in p._actions if a.dest != "help"}
             for name, p in sub.choices.items()}
    assert dests == PARSER_DESTS
    assert sum(map(len, dests.values())) == 18


INSPECT_ARGV = ("inspect", "--n", "8", "--f1", "1", "--f2", "1", "--f3", "1")
REMOVED_OPTIONS = [
    (("factor", "--n", "8"), ("--enum-cap", "5")),
    (("factor", "--n", "8"), ("--divisor-cap", "5")),
    (("factor", "--n", "8"), ("--rank-cap", "5")),
    (INSPECT_ARGV, ("--divisor-cap", "5")),
    (INSPECT_ARGV, ("--rank-cap", "5")),
    (INSPECT_ARGV, ("--validate",)),
    (INSPECT_ARGV, ("--no-validate",)),
    (("search", "--n", "8"), ("--rank-cap", "5")),
    (("search", "--n", "8"), ("--enum-cap", "5")),
    (("reproduce-paper",), ("--enum-cap", "5")),
    (("reproduce-paper",), ("--divisor-cap", "5")),
    (("reproduce-paper",), ("--rank-cap", "5")),
    (("audit", "--n-max", "3"), ("--enum-cap", "100")),
    (("audit", "--n-max", "3"), ("--divisor-cap", "5")),
    (("audit", "--n-max", "3"), ("--rank-cap", "5")),
]


@pytest.mark.parametrize("argv, option", REMOVED_OPTIONS,
                         ids=[argv[0] + option[0] for argv, option in REMOVED_OPTIONS])
def test_removed_options_are_usage_errors(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main([*argv, *option])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


# A well-formed argv of each command: a command followed only by exact
# spellings of its own options, each with a well-formed value.
WELL_FORMED = [
    ("factor", "--n", "21", "--bound", "64"),
    ("inspect", "--n", "8", "--f1", "x^3+x^2+x+1", "--f2", "1", "--f3", "0xF",
     "--enum-cap", "256"),
    ("search", "--n", "8", "--min-k", "2", "--equal-triples-only", "--max-results", "3",
     "--divisor-cap", "64"),
    ("reproduce-paper",),
    ("audit", "--n-max", "2"),
]


def test_a_well_formed_argv_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in WELL_FORMED:
        assert main([*argv, "--format", "records"]) in (0, 4), argv
    capsys.readouterr()
    assert built == []
    # help comes from the full parser: the top level and its five subparsers
    with pytest.raises(SystemExit):
        main(["search", "--n", "8", "-h"])
    capsys.readouterr()
    assert len(built) == 6


# Argvs that the table parse must read exactly as argparse does, or leave
# to it (None): abbreviations, "=" spellings, negative and empty values,
# repeats, help, "--", and each kind of usage error.
DIFFERENTIAL = [
    *([*argv, "--format", fmt] for argv in WELL_FORMED for fmt in ("table", "records")),
    *WELL_FORMED,
    ["search", "--n", "8", "--equal"],
    ["audit", "--n-m", "4"],
    ["search", "--n=8"],
    ["search", "--n", "8", "--min-k", "-3"],
    ["search", "--n", "8", "--n", "16", "--format", "table", "--format", "records"],
    ["search", "--n", "8", "--equal-triples-only", "--equal-triples-only"],
    ["search", "--", "--n", "8"],
    ["search", "--n", "8", "--"],
    ["search", "-h"],
    ["search", "--n", "8", "-h"],
    ["inspect", "--n", "8", "--f1", "", "--f2", "1", "--f3", "1"],
    ["inspect", "--n", "8", "--f1", "1", "--f2", "1"],
    ["factor"],
    ["factor", "--n", "eight"],
    ["factor", "--n", "0"],
    ["search", "--n", "8", "--format", "json"],
    ["search", "--n", "8", "--equal-triples-only", "x"],
    ["search", "--n"],
    ["search", "--n", "8", "--bogus"],
    ["bogus"],
    [],
]


def _argv_id(argv):
    """The argv as a shell quotes it, so an empty value reads '' and no id
    is empty."""
    return shlex.join(argv) or "(no arguments)"


@pytest.mark.parametrize("argv", DIFFERENTIAL, ids=_argv_id)
def test_table_parse_agrees_with_argparse(argv):
    args = cli._parse_argv(list(argv))
    if args is None:
        return
    assert vars(args) == vars(build_parser().parse_args(list(argv)))


def test_well_formed_argvs_take_the_table_parse():
    for argv in WELL_FORMED:
        for fmt in ("table", "records"):
            assert cli._parse_argv([*argv, "--format", fmt]) is not None


def _exit_and_output(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# Exit code and the digests of stdout and stderr, recorded from the full
# parser built with all five subparsers.  The text is Python 3.11's argparse
# at 80 columns; its wording and layout differ between Python versions.
@pytest.mark.parametrize("argv, exit_code, out_digest, err_digest", [
    ((), 1, EMPTY, "8e8dd0450570c638982abc255a961d4b10f8f401de2047950ee6290187623fa9"),
    (("-h",), 0, "047ba65d1ce87c4a1884039caab7545c7793929a6a8e8695f7dd570e52634a67", EMPTY),
    (("bogus",), 1, EMPTY,
     "1c763f19c13639f3c6eb3a1e37d98307723bd769009378eaa95f9e1b36f3194d"),
    (("--n", "8", "search"), 1, EMPTY,
     "8b53b12d5e53930bc8b4e7c703d7ad140dddf3115a7565dc5c0cbcfa4c01c1d4"),
    (("search",), 1, EMPTY,
     "957135ff2fe2982cb9b9e48163e9aae263b832538b1af06fb58b503b21bd088b"),
    (("search", "-h"), 0,
     "7d9bd99607a6e6fb1b76d6fce973706956d0e7e01ec2d8f8c155c786d1694e5c", EMPTY),
    (("audit", "-h"), 0,
     "1acc69a8c623e88500edb9af8069c7b87d6114ac217a4386d63f0896e00c9bb9", EMPTY),
    (("inspect", "--n", "8"), 1, EMPTY,
     "f3afbb73644b6960c92eca2a6c15d63001418c54f18bde8dd5e0994bc3c24b36"),
    (("search", "--n", "8", "--bogus"), 1, EMPTY,
     "e4d21058298a71b7be37a1da7fcb9644955a2ee3571430f17e53e227cc23197a"),
    (("search", "--n", "8", "--bogus", "-h"), 0,
     "7d9bd99607a6e6fb1b76d6fce973706956d0e7e01ec2d8f8c155c786d1694e5c", EMPTY),
    (("factor", "--n", "3", "extra"), 1, EMPTY,
     "416d704b234841db0d6bf1c7472b8700d57e59bccfd51e402e5bcdfd522ec970"),
    (("audit", "--n-max", "2", "x"), 1, EMPTY,
     "57c5ef946623ca1720db311d9217c4d3e3ec28ff4f97b981216b133199348b25"),
])
def test_usage_help_and_error_text_is_pinned(monkeypatch, capsys, argv, exit_code,
                                             out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output(capsys, lambda: main(list(argv)))
    # the full parser prints the same bytes, on any Python version
    assert (code, out, err) == _exit_and_output(
        capsys, lambda: build_parser().parse_args(list(argv)))
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == (exit_code, out_digest, err_digest)


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
    # every audit runs at any length and dimension (here 2^33 codewords)
    assert [a["target"] for a in rec["audits"]] == [
        "decomposition", "dual_formula", "single_generator"]


def test_inspect_with_a_full_space_part_walks_no_large_code(capsys):
    # <x+1> at n = 22 has 2^21 codewords, over the distance cap, but the
    # paper's rule holds <1>, whose distance 1 is already the least.
    code, out, _ = run(capsys, "inspect", "--n", "22", "--f1", "1", "--f2", "1",
                       "--f3", "x+1", "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    q = rec["quantum"]
    assert (q["n"], q["k"], q["d"]) == (66, 64, 1)
    assert not any(note.startswith("component formula") for note in q["notes"])


def test_inspect_zero_code(capsys):
    code, out, _ = run(capsys, "inspect", "--n", "1", "--f1", "x+1",
                       "--f2", "x+1", "--f3", "x+1")
    assert code == 0
    assert "zero code" in out


def test_inspect_stdout_is_pinned_on_every_small_triple(capsys):
    # Digest of the joined stdout from before the code key was read in one
    # place (codes.code_key) and the image built from the key's own
    # generators; no inspection may change a byte.
    outs = []
    for n in range(1, 5):
        for fs in product(enumerate_divisors(n), repeat=3):
            code, out, err = run(capsys, "inspect", "--n", str(n), "--f1", hex(fs[0]),
                                 "--f2", hex(fs[1]), "--f3", hex(fs[2]),
                                 "--format", "records")
            assert (code, err) == (0, ""), (n, fs)
            outs.append(out)
    assert len(outs) == 224
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "35df71eb864d960b34b8b40c920c282393ec2eb782480dd1e2b8e9a5df247230")


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on str-to-int digits")
def test_inspect_of_an_exponent_too_long_to_read_is_a_parse_error(capsys):
    # 5,000 digits are over Python's default int() conversion limit of 4,300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "inspect", "--n", "4", "--f1", "x+x^" + "1" * 5000,
                             "--f2", "1", "--f3", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err == "parse error: exponent of 5000 digits is too long (at position 2)\n"


def test_inspect_of_a_huge_non_divisor_exits_quickly(capsys):
    # the error message names x^1000000; its text takes one pass over the bits
    start = time.perf_counter()
    code, _, err = run(capsys, "inspect", "--n", "4", "--f1", "x^1000000",
                       "--f2", "1", "--f3", "1")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert "f1 = x^1000000 does not divide x^4+1" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str digits")
def test_records_carry_sizes_past_the_int_digit_limit(capsys):
    # code_size = 2^2400 has 723 digits, over a limit of 640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "inspect", "--n", "800", "--f1", "1",
                             "--f2", "1", "--f3", "1", "--format", "records")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    (record,) = records_of(out)
    decomposition = record["audits"][0]
    assert decomposition["target"] == "decomposition"
    assert decomposition["code_size"] == 2 ** 2400


def _records(monkeypatch, argv):
    """The records a command hands to _emit."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", lambda records, fmt, render: seen.extend(records))
        main(list(argv))
    return seen


@pytest.mark.parametrize("argv", [
    ("search", "--n", "8"),
    ("audit", "--n-max", "3"),
    ("factor", "--n", "15"),
    INSPECT_ARGV,
    ("reproduce-paper",),
], ids=_argv_id)
def test_the_run_encoder_writes_what_json_dumps_does(monkeypatch, argv):
    records = _records(monkeypatch, argv)
    expected = [json.dumps(rec) for rec in records]
    assert cli._encode_records(records) == expected
    # a Python without the _json accelerator encodes through JSONEncoder.encode
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert list(map(cli._make_encode(), records)) == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str digits")
def test_encoding_restores_the_int_digit_limit(monkeypatch):
    (record,) = _records(monkeypatch, ("inspect", "--n", "5000", "--f1", "1",
                                       "--f2", "1", "--f3", "1"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        # code_size = 2^15000 has 4,516 digits, past the limit
        with pytest.raises(ValueError):
            json.dumps(record)
        lines = cli._encode_records([record])
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        expected = json.dumps(record)
    finally:
        sys.set_int_max_str_digits(limit)
    assert lines == [expected]


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ("audit", "--n-max", "2", "--format", "records"),
    ("search", "--n", "7"),
    ("audit", "--n-max", "2"),
    ("search", "--n", "7", "--format", "records"),
    ("factor", "--n", "15"),
    ("factor", "--n", "15", "--format", "records"),
    INSPECT_ARGV,
    (*INSPECT_ARGV, "--format", "records"),
    ("reproduce-paper",),
    ("reproduce-paper", "--format", "records"),
])
def test_each_command_writes_stdout_once(monkeypatch, capsys, argv):
    # reproduce-paper exits 4: one published row disagrees with the computation
    exit_code = 4 if argv[0] == "reproduce-paper" else 0
    stdout = _CountingStdout()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == exit_code
    assert len(stdout.writes) == 1
    # the one write is the command's whole stdout
    assert run(capsys, *argv) == (exit_code, stdout.writes[0], "")


def _no_table(records):
    raise AssertionError("records mode rendered a table")


@pytest.mark.parametrize("argv", [
    ("search", "--n", "8", "--format", "records"),
    ("audit", "--n-max", "2", "--format", "records"),
])
def test_records_mode_renders_no_table(monkeypatch, capsys, argv):
    renderers = [name for name in vars(cli) if name.endswith("_table")]
    assert len(renderers) == 5
    for name in renderers:
        monkeypatch.setattr(cli, name, _no_table)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert all(json.loads(line)["kind"] for line in out.splitlines())


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


def test_audit_and_inspect_walk_no_codewords(capsys):
    # every audit is rank algebra on bases: the package has no codeword walk
    # to call (the tests' oracles.codewords is the only one)
    assert not hasattr(BinaryCode, "codewords")
    code, out, _ = run(capsys, "audit", "--n-max", "4", "--format", "records")
    assert code == 0
    assert len(records_of(out)) == 904
    f = "x^3+x^2+x+1"
    code, out, _ = run(capsys, "inspect", "--n", "8", "--f1", f, "--f2", f, "--f3", f,
                       "--format", "records")
    assert code == 0
    (rec,) = records_of(out)
    assert {a["target"] for a in rec["audits"]} == {
        "decomposition", "dual_formula", "single_generator"}


def test_audit_runs_the_dual_formula_at_every_length(capsys):
    # 8 catalog codes, then four audits of each of the 8 + 27 + 64 + 125 + 64
    # divisor triples at n = 1..5
    code, out, _ = run(capsys, "audit", "--n-max", "5", "--format", "records")
    assert code == 0
    recs = records_of(out)
    assert len(recs) == 1160
    assert sum(r["target"] == "dual_formula" and r["n"] == 5 for r in recs) == 64


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


# Digests of stdout from before the search was memoised, each record then
# given the d of the rank-path oracle (min_hamming of the whole Gray image),
# d_method "enumerated" and, where the min-of-components rule differs, its
# note; the caches and the split distance must not change a byte.  The last
# two are from before the Gray image was built once per code key: n = 16
# has repeated factors (729 triples over 201 keys), n = 21 has 729 triples
# over 121 keys.
@pytest.mark.parametrize("argv, digest", [
    (("search", "--n", "8", "--format", "records"),
     "36198c998e6345ee3861a226d6e496f841f267c7397de6cfb139aa4b58e1e27d"),
    (("search", "--n", "7"),
     "d12c27a574957851c00c4f073eebb20db8778a52d3dd9669da3f07e55ef15dc4"),
    (("search", "--n", "16", "--format", "records"),
     "4c70823c119d9c6b5b1208ab513169fdf7b3d5e0909f69f6853ef72195a4b959"),
    (("search", "--n", "21", "--format", "records"),
     "80af4ea1a56b0cfefddabd69a8592b66bde14f1e79ab5f5489b4d293f7238964"),
    # from before the table lines were built only when the table is asked for
    (("search", "--n", "8"),
     "911f38689c4566226d65be7ab6a53beeaaecd58d61498025211400071cbc770a"),
])
def test_search_stdout_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_entry_point_process_prints_the_pinned_search():
    # the real cold path: a fresh interpreter running the package's __main__
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "vcubed", "search", "--n", "8", "--format", "records"],
        env=env, capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "36198c998e6345ee3861a226d6e496f841f267c7397de6cfb139aa4b58e1e27d")


# Digests of stdout from before the unread options and the codeword-walk
# limits were removed, (the next three) from before the witnesses were
# read off leading-bit pivot tables and the decomposition audit was cached
# per image, with the always-true product_law_ok key then deleted from each
# audit record, and (the last) from before the audits built their images
# through the idempotent split, which matters most at n = 8, where
# x^8 + 1 = (x+1)^8; no run may change a byte.
@pytest.mark.parametrize("argv, exit_code, digest", [
    (("audit", "--n-max", "4", "--format", "records"), 0,
     "84bf15f73d02abdd86a02c23e0572841253c450bc509cbcf77efd74abd285535"),
    (("reproduce-paper", "--format", "records"), 4,
     "62ff5bc215a0319f50fc6b7f53f734889c2c92be7c014e37610a857ffd2be6df"),
    (("audit", "--n-max", "5", "--format", "records"), 0,
     "347beb44184644e65fc07281ef6e34d742cd89a571e6fa21e701a0e8824dd9dc"),
    (("audit", "--n-max", "4"), 0,
     "8d860e8b849ff8b071d32f8325973d1567070e943d8db40aadf7c6633fdc21d1"),
    (("audit", "--n-max", "6", "--format", "records"), 0,
     "eb9fd7d9e4b645007086c72053512d2541d46c4f1883fabaf87684237df7361c"),
    (("audit", "--n-max", "8", "--format", "records"), 0,
     "6168143db548dbf64282d8049db742a6ee22778319234db85a97b6aaf1c10805"),
])
def test_audit_and_reproduction_stdout_is_pinned(capsys, argv, exit_code, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _joined_digest(capsys, argvs, exit_code):
    outs = []
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (exit_code, ""), argv
        outs.append(out)
    return hashlib.sha256("".join(outs).encode()).hexdigest()


SMALL_INSPECTIONS = [
    ("inspect", "--n", str(n), "--f1", hex(fs[0]), "--f2", hex(fs[1]), "--f3", hex(fs[2]))
    for n in range(1, 5) for fs in product(enumerate_divisors(n), repeat=3)]


# Digests of the joined table stdout, recorded by running commit af3cc42,
# before each table was rendered from its command's records: inspect on all
# 224 divisor triples at n <= 4, reproduce-paper, and factor at n = 1..128.
# No table may change a byte.
@pytest.mark.parametrize("argvs, exit_code, digest", [
    (SMALL_INSPECTIONS, 0,
     "c3b94c7132c6494a2c5fd390b1ae9bc4dec911090e4f02439ddf9aa175fd8236"),
    ([("reproduce-paper",)], 4,
     "d6cafe78655a3c90c3738eb6708141f8bf052db3d59f2d591d855378cee4f368"),
    ([("factor", "--n", str(n)) for n in range(1, 129)], 0,
     "8c1a4c853aefd37eefe27d2294961fe3e73382fbd2ebe7bf9daf8d4dcbae70b0"),
], ids=["inspect", "reproduce-paper", "factor"])
def test_table_stdout_is_pinned(capsys, argvs, exit_code, digest):
    assert _joined_digest(capsys, argvs, exit_code) == digest
