"""README's Library example runs, and each expression in it gives the literal in its comment."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)


def test_library_example_matches_its_comments():
    source = _library_block()
    comments = {tok.start[0]: tok.string.removeprefix("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        text = ast.get_source_segment(source, stmt)
        # an expression's comment sits on its last line and is the value it shows
        assert stmt.end_lineno in comments, f"{text!r} has no value comment"
        expected = ast.literal_eval(comments[stmt.end_lineno])
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        assert (type(value), value) == (type(expected), expected), text
        checked.append(text)
    assert len(checked) == 8
