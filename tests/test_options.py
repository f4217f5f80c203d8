"""The package's settable surface does not grow.

Every parameter with a default value, of every function and lambda in
src/conedge, is a value a caller can set independently; the count is held
at or below its present value so that a new option has to replace one.
"""

import ast
from pathlib import Path

import conedge

MAX_SETTABLE_VALUES = 68


def settable_values() -> int:
    total = 0
    for path in sorted(Path(conedge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                total += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return total


def test_no_new_settable_values():
    assert settable_values() <= MAX_SETTABLE_VALUES
