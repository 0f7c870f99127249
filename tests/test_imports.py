"""Cold start: importing the package loads only what it uses.

The records are typing.NamedTuple classes, so importing vcubed pulls in
neither dataclasses nor what dataclasses imports (inspect, ast, dis, ...).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the modules that `import vcubed, vcubed.cli` adds to sys.modules,
# one a line; diffing against the modules loaded before it keeps the check
# independent of whatever the interpreter loads at start-up.
PROBE = """\
import sys
before = set(sys.modules)
import vcubed, vcubed.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cold_import_loads_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True)
    added = set(result.stdout.split())
    assert "vcubed.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
