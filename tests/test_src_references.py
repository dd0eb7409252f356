"""Every top-level function and class, and every method, in `src/legquad`
is reached by the program itself.  A helper that only the tests call
belongs in a test oracle module, next to the tests that use it.  And every
Python name the README's prose names is defined in `src/legquad` or the
tests."""

import ast
import importlib
import inspect
import re
import typing
from pathlib import Path

import legquad
from legquad import catalog, cli

SRC = Path(legquad.__file__).parent
TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"
# reached from outside the package: the console script of pyproject.toml
ENTRY_POINTS = {"cli.py": {"main"}}


def _bound_names(fn) -> set:
    """The names a function or lambda binds in its own scope: its
    parameters and every name it stores, leaving out the bodies of the
    functions and classes nested in it (their names are bound, though)."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    pending = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        pending.extend(ast.iter_child_nodes(node))
    return names


def _references(tree) -> list:
    """(name, line, whether an attribute) of every reference in a module:
    an attribute `.name`, a name imported from another module, and a name
    read where no enclosing function binds a local of that name.  Strings
    and comments are no references."""
    out = []

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _bound_names(node)
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno, False) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return out


def _definitions(tree):
    """(name, first line, last line, is a method) of each top-level function
    and class, and of each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def test_every_top_level_definition_is_referenced_by_src():
    """The top-level definitions and the methods of top-level classes.  A
    top-level name counts as referenced when `src/legquad/*.py` reads,
    imports or takes an attribute of that name outside its own definition; a
    method, when an attribute `.name` spells it there.  A local variable
    that shadows a top-level name is not a reference to it, and the
    re-exports of `__init__.py` do not count."""
    definitions = {}  # (name, is a method) -> [(file, first line, last line)]
    references = {}  # name -> [(file, line, whether an attribute)]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node, method in _definitions(tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            definitions.setdefault((node.name, method), []).append((path.name, first, node.end_lineno))
        if path.name != "__init__.py":
            for name, line, attribute in _references(tree):
                references.setdefault(name, []).append((path.name, line, attribute))
    unreferenced = sorted(
        f"{file}:{name}"
        for (name, method), places in definitions.items()
        for file, _, _ in places
        if name not in ENTRY_POINTS.get(file, ())
        and all(any(rf == f and first <= line <= last for f, first, last in places)
                for rf, line, attribute in references.get(name, []) if attribute or not method)
    )
    assert unreferenced == []


# README words that name no Python definition: the package itself, report
# statuses, a report key and the standard library's Fraction
README_WORDS = {"legquad", "ok", "undecided", "type", "fractions.Fraction"}


def _defined_names() -> set:
    """Every name a module of `src/legquad` or of the tests binds, at any
    depth: modules, functions, classes, parameters, assigned names and
    assigned attributes."""
    names = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        names.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
    return names


def test_every_name_in_the_readme_prose_is_defined():
    """Each backticked Python name, dotted or not, in the README outside its
    code blocks is defined in `src/legquad` or the tests, component by
    component; subcommand and catalog names count as defined."""
    subcommands = next(a for a in cli._parser()._actions if a.dest == "command").choices
    names = _defined_names() | set(subcommands) | set(catalog.entry_names()) | README_WORDS
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    undefined = [
        word for word in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", prose)
        if word not in names and not all(part in names for part in word.split("."))
    ]
    assert undefined == []


def _package_imports(tree):
    """(source, name) of every name a module imports from another module of
    the package, the source being that module: "rootdata" for
    `from .rootdata import name` and "linalg" for `from . import linalg`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module or ""
        elif (node.module or "").partition(".")[0] == "legquad":
            base = node.module.partition(".")[2]
        else:
            continue
        yield from ((base or alias.name, alias.name) for alias in node.names)


def test_modules_keep_their_layers():
    """No module imports another's private (underscore) name, the verdict
    engine `legendrian` imports nothing from the scan `classify`, and
    `rootdata`, which owns the Dynkin diagram and the closed orbit, imports
    no other module of the package."""
    private, layering = [], []
    for path in sorted(SRC.glob("*.py")):
        for source, name in _package_imports(ast.parse(path.read_text())):
            if name.startswith("_"):
                private.append(f"{path.stem}: {source}.{name}")
            if path.stem == "rootdata" or (path.stem, source) == ("legendrian", "classify"):
                layering.append(f"{path.stem}: {source}.{name}")
    assert private == [] and layering == []


def test_every_imported_name_is_read():
    """Every name a module of `src/legquad` binds by an import, `__future__`
    aside, is read in that module; `__init__.py`, whose imports are the
    package's exports, is left out."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno}: {name}" for name in bound if name not in read]
    assert unread == []


def test_every_annotation_resolves():
    """`typing.get_type_hints` resolves the annotations of every function,
    class and method defined in a module of `src/legquad`: each name an
    annotation reads is bound in that module."""
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"legquad.{path.stem}".removesuffix(".__init__"))
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        targets.append((f"{name}.{attr}", member))
            for label, target in targets:
                if inspect.isclass(target) or inspect.isfunction(target):
                    try:
                        typing.get_type_hints(target)
                    except NameError as exc:
                        unresolved.append(f"{path.name}: {label}: {exc}")
    assert unresolved == []
