import re
import shlex
from pathlib import Path

from vcubed import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    # the sketch is the README's only python block; run it as written
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_examples_run(capsys):
    # every `vcubed ...` line of the CLI section's block, through cli.main;
    # reproduce-paper exits 4, the reproduction mismatch the README reports
    text = README.read_text()
    assert "(exit code 4)" in text
    block = re.search(r"^## CLI\n\n```\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("vcubed ")]
    assert len(lines) == 5
    for _, *argv in lines:
        expected = 4 if argv == ["reproduce-paper"] else 0
        assert cli.main(argv) == expected, argv
        assert capsys.readouterr().out
