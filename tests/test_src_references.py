"""Every top-level function and class in `src/legquad` is reached by the
program itself.  A helper that only the tests call belongs in a test
oracle module, next to the tests that use it."""

import ast
import io
import tokenize
from pathlib import Path

import legquad

SRC = Path(legquad.__file__).parent
# reached from outside the package: the console script of pyproject.toml
ENTRY_POINTS = {"cli.py": {"main"}}


def test_every_top_level_definition_is_referenced_by_src():
    """A name counts as referenced when a name token, leaving out strings
    and comments, spells it in `src/legquad/*.py` outside the name's own
    definition.  The re-exports of `__init__.py` do not count."""
    definitions = {}  # name -> [(file, first line, last line)]
    references = {}  # name -> [(file, line)]
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                definitions.setdefault(node.name, []).append((path.name, first, node.end_lineno))
        if path.name != "__init__.py":
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type == tokenize.NAME:
                    references.setdefault(token.string, []).append((path.name, token.start[0]))
    unreferenced = sorted(
        f"{file}:{name}"
        for name, places in definitions.items()
        for file, _, _ in places
        if name not in ENTRY_POINTS.get(file, ())
        and all(any(rf == f and first <= line <= last for f, first, last in places)
                for rf, line in references.get(name, []))
    )
    assert unreferenced == []
