"""Invariants each workload's stdout must satisfy.

Correctness is checked by facts, not by a digest of the whole output: later
changes may legitimately change k, d and ``d_method`` for mixed triples, but
not which triples a search covers, its summary counts, the equal-triple rows
that exact computation settles, the audit verdicts (mathematical facts), or
the divisors that pass the paper's criterion.

Search triples are recomputed here with a few lines of GF(2) arithmetic of
the benchmark's own.  Audit verdicts and the divisor-scan lists come from
``expected.json``, recorded from the initial vcubed commit with

    python3 bench/worker.py --workload audit_n4 --mode plain --result /dev/null \\
        | python3 bench/checks.py audit_n4

and likewise for ``divisor_scan``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")

SEARCHES = {
    "search_n8": {"n": 8, "scanned": 729, "admissible": 125, "emitted": 125,
                  "rows": ((24, 6, 2), (24, 12, 2), (24, 18, 2))},
    "search_n21": {"n": 21, "scanned": 262144, "admissible": 729, "emitted": 729,
                   "rows": ((63, 27, 3), (63, 45, 2))},
}


# --- GF(2) polynomials as ints (bit i = coefficient of x^i) -----------------

def _mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _div(a: int, b: int) -> int:
    q, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q


def _reciprocal(f: int) -> int:
    return int(format(f, "b")[::-1], 2)


def _irreducible_factors(p: int) -> list[int]:
    """Factors with multiplicity; the smallest divisor of degree >= 1 of what
    is left is always irreducible."""
    factors = []
    d = 2
    while p.bit_length() > 1:
        if 2 * (d.bit_length() - 1) > p.bit_length() - 1:
            factors.append(p)
            break
        if _mod(p, d) == 0:
            factors.append(d)
            p = _div(p, d)
        else:
            d += 1
    return factors


def admissible_divisors(n: int) -> list[int]:
    """Divisors f != x^n + 1 with f * f_reciprocal dividing x^n + 1."""
    modulus = (1 << n) | 1
    divisors = {1}
    for f in _irreducible_factors(modulus):
        divisors |= {_mul(d, f) for d in divisors}
    return sorted(f for f in divisors
                  if f != modulus and _mod(modulus, _mul(f, _reciprocal(f))) == 0)


# --- checks -----------------------------------------------------------------

def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def check_search(stdout: str, n: int, scanned: int, admissible: int,
                 emitted: int, rows: tuple) -> list[str]:
    problems = []
    lines = _records(stdout)
    summaries = [r for r in lines if r.get("summary")]
    records = [r for r in lines if not r.get("summary")]
    if len(summaries) != 1:
        problems.append(f"{len(summaries)} summary records, expected 1")
    else:
        for key, want in (("scanned", scanned), ("admissible", admissible),
                          ("emitted", emitted)):
            if summaries[0].get(key) != want:
                problems.append(f"summary {key} = {summaries[0].get(key)}, expected {want}")
    triples = [tuple(int(r[f]["hex"], 16) for f in ("f1", "f2", "f3")) for r in records]
    adm = admissible_divisors(n)
    want_triples = {(a, b, c) for a in adm for b in adm for c in adm}
    if len(set(triples)) != len(triples):
        problems.append("a triple is emitted twice")
    if set(triples) != want_triples:
        problems.append(
            f"emitted triples differ from the {len(want_triples)} recomputed: "
            f"{len(set(triples) - want_triples)} unexpected, "
            f"{len(want_triples - set(triples))} missing")
    wrong_n = sum(r["parameters"][0] != 3 * n or r["n"] != n for r in records)
    if wrong_n:
        problems.append(f"{wrong_n} records without parameters[0] == 3n = {3 * n}")
    equal = {tuple(r["parameters"]) for r, t in zip(records, triples) if t[0] == t[1] == t[2]}
    for row in rows:
        if row not in equal:
            problems.append(f"equal-triple row [[{row[0]},{row[1]},{row[2]}]] missing")
    return problems


def _audit_key(rec: dict) -> str:
    if rec["target"] == "decomposition":
        return f"decomposition|{rec['code']}"
    return f"{rec['target']}|n={rec['n']}|{'; '.join(rec['fs'])}"


def audit_verdicts(stdout: str) -> dict[str, bool]:
    return {_audit_key(r): r["pass"] for r in _records(stdout)}


def check_audit(stdout: str, expected: dict) -> list[str]:
    problems = []
    records = _records(stdout)
    if len(records) != expected["records"]:
        problems.append(f"{len(records)} audit records, expected {expected['records']}")
    verdicts = audit_verdicts(stdout)
    if len(verdicts) != len(records):
        problems.append("two audit records share a key")
    want = expected["verdicts"]
    missing = want.keys() - verdicts.keys()
    extra = verdicts.keys() - want.keys()
    flipped = sorted(k for k in want.keys() & verdicts.keys() if want[k] != verdicts[k])
    if missing or extra:
        problems.append(f"audit keys differ: {len(missing)} missing, {len(extra)} unexpected")
    if flipped:
        problems.append(f"{len(flipped)} verdicts differ, first: {flipped[0]}")
    return problems


def scan_lists(stdout: str) -> dict[str, list]:
    """n -> [divisors tested, admitted count, digest of the admitted list]."""
    out = {}
    for line in stdout.splitlines():
        n, count, *admitted = line.split()
        digest = hashlib.sha256(" ".join(admitted).encode()).hexdigest()[:16]
        out[n] = [int(count), len(admitted), digest]
    return out


def check_scan(stdout: str, expected: dict) -> list[str]:
    got = scan_lists(stdout)
    problems = []
    if got.keys() != expected.keys():
        problems.append(f"{len(got)} lengths scanned, expected {len(expected)}")
    wrong = sorted((int(n) for n in got.keys() & expected.keys() if got[n] != expected[n]))
    if wrong:
        problems.append(f"admitted lists differ at n = {wrong[:5]}")
    return problems


def check(workload: str, stdout: str) -> list[str]:
    """Broken invariants of one run's stdout; empty when it is correct."""
    try:
        if workload in SEARCHES:
            return check_search(stdout, **SEARCHES[workload])
        expected = json.loads(EXPECTED.read_text())[workload]
        if workload == "audit_n4":
            return check_audit(stdout, expected)
        return check_scan(stdout, expected)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def expected_entry(workload: str, stdout: str) -> dict:
    """The expected.json entry for a workload, from a trusted run's stdout."""
    if workload == "audit_n4":
        return {"records": len(_records(stdout)), "verdicts": audit_verdicts(stdout)}
    return scan_lists(stdout)


if __name__ == "__main__":
    print(json.dumps({sys.argv[1]: expected_entry(sys.argv[1], sys.stdin.read())}))
