"""Line counts of the library, per module and in total.

Prints, for each module of ``src/stieltjesmp/``, its line count and its count
of code lines: lines outside docstrings that hold a token other than a
comment.  Usage: ``python3 tools/src_lines.py [package_dir]``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text):
    """``(lines, code lines)`` of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "stieltjesmp")
total = [0, 0]
for path in sorted(root.glob("*.py")):
    n, c = counts(path.read_text())
    total = [total[0] + n, total[1] + c]
    print(f"{path.name:16} {n:6} {c:6}")
print(f"{'total':16} {total[0]:6} {total[1]:6}")
