"""Print the lines and the code lines of each module under ``src/hilbstrata``.

A code line holds at least one token that is neither a comment nor a
docstring: blank lines, comment-only lines and the lines of module, class
and function docstrings (found by ``ast``) are left out.  Run it from
anywhere with ``python tools/code_lines.py``; the last line gives the
totals.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hilbstrata"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` holding code outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = code = 0
    print(f"{'module':16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        counts = (len(source.splitlines()), code_lines(source))
        print(f"{path.name:16} {counts[0]:6,} {counts[1]:6,}")
        total += counts[0]
        code += counts[1]
    print(f"{'total':16} {total:6,} {code:6,}")


if __name__ == "__main__":
    main()
