"""Print the code lines of each ``src/cglsolve`` module, then their total.

A code line holds a token of code: docstrings (a module's, class's or
function's first statement when it is a string), comments and blank
lines do not count. A statement over several lines counts each line.

Run from the repository root: ``python3 tools/code_lines.py``.
"""

import ast
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cglsolve")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of lines of the file that hold code."""
    with open(path, "rb") as f:
        source = f.read()
    docs = docstring_lines(ast.parse(source))
    with open(path, "rb") as f:
        lines = set()
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    total = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(SRC, name))
            total += n
            print(f"{name:16s} {n:5d}")
    print(f"{'total':16s} {total:5d}")


if __name__ == "__main__":
    sys.exit(main())
