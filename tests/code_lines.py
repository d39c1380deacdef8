"""Count the code lines of the package: lines that hold code, with no
blank, comment or docstring lines.

A line counts when some token other than a comment, a line break or an
indent sits on it; a string that spans lines counts on each line it
covers, unless it is a docstring (the first statement of a module, class
or function body, when that is a string). Standard library only.

    python tests/code_lines.py            # src/lambda_tree/*.py
    python tests/code_lines.py FILE ...   # the given files
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambda_tree"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every docstring, as tokenize gives them."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    spans = _docstring_spans(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start < b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = [Path(p) for p in paths] or sorted(_PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:<12} {n:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
