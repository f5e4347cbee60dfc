"""The optional-parameter budget of src/fricke, counted from the syntax tree.

An option is a default in a def line: each entry of args.defaults and each
keyword-only default that is not None.  The budget only goes down: a new
option needs two callers outside the tests that pass different values.

Only defaults are counted.  A required parameter is a value callers can
still set, so turning a default into a required parameter lowers this
count without removing the knob; such a parameter needs a caller outside
the tests that passes it.
"""

import ast
from pathlib import Path

OPTION_BUDGET = 7

SRC = Path(__file__).resolve().parent.parent / "src" / "fricke"


def _options():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count = len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
                found.extend([f"{path.name}:{node.name}"] * count)
    return found


def test_optional_parameters_within_budget():
    options = _options()
    assert len(options) <= OPTION_BUDGET, sorted(options)
