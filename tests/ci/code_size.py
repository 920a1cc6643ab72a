"""Print the code lines of src/membw, per module and in total.

A code line holds a token other than a comment, and is no part of a
docstring. ROADMAP and CHANGES quote this count. Run it from the repository
root: ``python3 tests/ci/code_size.py``.
"""

import ast
import io
import pathlib
import tokenize

total = 0
for path in sorted(pathlib.Path("src/membw").glob("*.py")):
    source = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    count = len(lines - docs)
    total += count
    print(f"{count:6d}  {path.name}")
print(f"{total:6d}  total")
