"""src/ keeps contracts: measurements live in CHANGES.md, narrative in the
README, so no docstring or comment carries a timing and module docstrings
stay short; and every top-level name has a reader in src/ or is exported."""

import ast
import io
import pathlib
import re
import tokenize

import pytest

import cglsolve

MODULES = sorted(pathlib.Path(cglsolve.__file__).parent.glob("*.py"))
TIME_FIGURE = re.compile(r"\d\s*(?:ms|us|µs)\b|\b[Mm]edians?\b|\bTimed\b")
MODULE_DOCSTRING_LINES = 16


def _docstrings(tree):
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in nodes:
        text = ast.get_docstring(node, clean=False)
        if text:
            yield getattr(node, "name", "module"), text


def _comments(source):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield f"line {tok.start[0]}", tok.string


def test_the_modules_are_found():
    assert {"integrators.py", "spectral.py", "io.py"} <= {
        m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_docstring_or_comment_carries_a_time_figure(path):
    source = path.read_text(encoding="utf-8")
    found = [(where, match.group(0))
             for where, text in [*_docstrings(ast.parse(source)),
                                 *_comments(source)]
             for match in TIME_FIGURE.finditer(text)]
    assert not found, f"timings belong in CHANGES.md: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_docstring_is_short(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), "every module states its contract"
    node = tree.body[0]
    lines = node.end_lineno - node.lineno + 1
    assert lines <= MODULE_DOCSTRING_LINES, lines


def _top_level_names(tree):
    """The names a module binds at its top level: functions, classes and
    assigned names, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (
                            name.id.startswith("__")
                            and name.id.endswith("__")):
                        yield name.id


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _used(tree):
    """Every name the code reads: names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_top_level_name_has_a_caller_or_is_exported():
    # src/ holds no dead helpers: a name no src/ code reads, and that its
    # module does not export, is left over from a deletion
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    used = {name for tree in trees.values() for name in _used(tree)}
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name in _top_level_names(tree)
               if name not in used and name not in _exported(tree)]
    assert not orphans, f"neither used in src/ nor exported: {orphans}"
