"""Count the code lines of the package under src/: each line that holds a
token of code, so neither a blank line, a comment nor a docstring (a
module's, class's or function's first statement when it is a string)
counts; a line that holds a string spanning lines counts once per line.

Run from the repository root:

    python tests/source_lines.py [root]

prints the total for root (src/ by default), then each file's count."""

import ast
import io
import pathlib
import sys
import tokenize

# Tokens that are no code of their own: layout, comments and line ends.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file at path."""
    source = pathlib.Path(path).read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(root="src"):
    counts = {path: code_lines(path) for path in sorted(pathlib.Path(root).rglob("*.py"))}
    print(sum(counts.values()))
    for path, count in counts.items():
        print(f"{count:6d} {path}")


if __name__ == "__main__":
    main(*sys.argv[1:])
