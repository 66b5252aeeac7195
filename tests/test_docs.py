"""src/ keeps contracts: measurements live in CHANGES.md, narrative in the
README, so no docstring or comment carries a timing and module docstrings
stay short."""

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
