"""Compare what two vcubed source trees print, command by command.

    python tools/same_output.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the vcubed package (a checkout's
src).  Every command of one fixed list runs once under each tree, each in a
fresh `python -m vcubed` process of the interpreter that runs this script,
with PYTHONDONTWRITEBYTECODE=1, so neither tree gains a __pycache__.  The
two runs of a command must agree on stdout, stderr and exit code.

The list, each command in the table and the records format: search --n
1..9, 12, 15, 16, 21; audit --n-max 1..7; reproduce-paper; inspect on all
224 divisor triples at n <= 4; factor --n 21.

Prints each command whose runs differ, and how many did; exits 1 if any
did, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import product
from pathlib import Path


def divisors(n: int) -> list[int]:
    """The divisors of x^n + 1 over GF(2), as bitmasks, in ascending order."""
    def mod(p: int, d: int) -> int:
        while p.bit_length() >= d.bit_length():
            p ^= d << (p.bit_length() - d.bit_length())
        return p

    modulus = 1 << n | 1
    return [g for g in range(1, modulus + 1) if mod(modulus, g) == 0]


def poly_text(p: int) -> str:
    """p as the CLI reads it, highest term first: x^2+x+1."""
    terms = {0: "1", 1: "x"}
    return "+".join(terms.get(k, f"x^{k}") for k in range(p.bit_length() - 1, -1, -1)
                    if p >> k & 1)


def commands() -> list[list[str]]:
    argvs = [["search", "--n", str(n)] for n in (*range(1, 10), 12, 15, 16, 21)]
    argvs += [["audit", "--n-max", str(n)] for n in range(1, 8)]
    argvs.append(["reproduce-paper"])
    argvs += [["inspect", "--n", str(n), "--f1", poly_text(f1), "--f2", poly_text(f2),
               "--f3", poly_text(f3)]
              for n in range(1, 5) for f1, f2, f3 in product(divisors(n), repeat=3)]
    argvs.append(["factor", "--n", "21"])
    return [[*argv, "--format", fmt] for argv in argvs for fmt in ("table", "records")]


def run(src: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "vcubed", *argv], cwd=src, env=env,
                          capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:])
    argvs = commands()
    differ = 0
    for argv in argvs:
        if run(parent, argv) != run(change, argv):
            differ += 1
            print("differs: vcubed " + " ".join(argv))
    print(f"{differ} of {len(argvs)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
