"""Cold start: importing the package loads only what it uses.

The records are typing.NamedTuple classes, so importing vcubed pulls in
neither dataclasses nor what dataclasses imports (inspect, ast, dis, ...).
The CLI reads a well-formed argv off its command table and imports argparse
(and with it gettext) only to build the full parser for help and errors.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from types import ModuleType

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

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
    assert not added & {"dataclasses", "inspect", "argparse", "gettext"}, sorted(added)


# Every public name of the package: an addition or a removal shows up here.
PUBLIC = """
BinaryCode CapExceeded Factorization ParseError PreconditionError
QuantumCodeRecord REFERENCE_ROWS RingCode SearchOutcome
audit_decomposition_image audit_dual_formula audit_single_generator
audit_size_formula binary_cyclic css_from_triple cyclic_image degree
divides_xn1 dual_containing_poly enumerate_divisors factor_xn1
format_poly gray_image_basis gray_vec gray_vec_inverse min_hamming
parse_poly poly_divmod poly_gcd poly_hex poly_mod poly_mul reciprocal
reproduce_all search_triples xn1
""".split()


def _public_names():
    import vcubed

    return sorted(name for name, obj in vars(vcubed).items()
                  if not name.startswith("_") and not isinstance(obj, ModuleType))


def test_public_names_are_pinned():
    assert _public_names() == sorted(PUBLIC)


def _modules():
    """Every module of the package but __init__.py, which re-exports the
    names of the others, parsed with ast."""
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((SRC / "vcubed").glob("*.py"))
            if path.name != "__init__.py"]


def _loaded_names():
    """Every name and attribute that some module of the package loads."""
    loaded = set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_public_names_are_used_by_the_program():
    # A public name that no module of the package loads serves only the
    # tests, and belongs in tests/oracles.py.
    assert sorted(set(_public_names()) - _loaded_names()) == []


def _definitions(tree):
    """The top-level functions, classes and constants of a module."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined


def test_every_definition_is_used_by_the_program():
    # The same for every top-level function, class and constant of a
    # module, private ones included: a helper left behind when its last
    # caller moved to tests/oracles.py fails here.
    defined = set().union(*map(_definitions, _modules()))
    assert defined
    assert sorted(defined - _loaded_names()) == []


def test_every_parameter_is_read():
    # A parameter that its function never reads (a read in a nested function
    # counts) asks every caller for an argument that changes nothing.
    unread = []
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a]
                loaded = {name.id for name in ast.walk(node)
                          if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
                unread += [f"{getattr(node, 'name', 'lambda')}.{p}"
                           for p in params if p not in loaded]
    assert unread == []


def _writes_stdout(node):
    """Does the node touch sys.stdout or call _encode_records?  A print
    without a file= argument writes to sys.stdout too."""
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "stdout"
         and isinstance(sub.value, ast.Name) and sub.value.id == "sys")
        or (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and (sub.func.id == "_encode_records"
                 or sub.func.id == "print" and not any(k.arg == "file" for k in sub.keywords)))
        for sub in ast.walk(node))


def test_only_emit_writes_a_command_output():
    # Each command hands its records to cli._emit, which encodes them or
    # renders the table from them: no other function writes to stdout or
    # encodes records, so a command has one data path in either format.
    tree = ast.parse((SRC / "vcubed" / "cli.py").read_text())
    writers = sorted(node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and _writes_stdout(node))
    assert writers == ["_emit"]


# A dotted name such as codes._mask_span in prose: the module, then the name.
DOTTED = re.compile(r"\b(codes|quantum|ring|gf2poly|cli|reference)\.([A-Za-z_]\w*)")


def _prose():
    """README.md and every docstring and comment of the package."""
    texts = [README.read_text()]
    for path in sorted((SRC / "vcubed").glob("*.py")):
        source = path.read_text()
        texts += [ast.get_docstring(node, clean=False) or ""
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                  if tok.type == tokenize.COMMENT]
    return texts


def test_dotted_names_in_the_docs_are_defined():
    # A doc that cites module.name for a name the module no longer defines
    # (renamed, removed, or only imported there) fails here.
    cited = {match.groups() for text in _prose() for match in DOTTED.finditer(text)}
    assert cited
    defined = {module: _definitions(ast.parse((SRC / "vcubed" / f"{module}.py").read_text()))
               for module, _ in cited}
    stale = sorted(f"{module}.{name}" for module, name in cited
                   if name not in defined[module])
    assert stale == []
