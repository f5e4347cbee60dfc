"""The optional-parameter budget of src/fricke, counted from the syntax tree.

An option is a default in a def line: each entry of args.defaults and each
keyword-only default that is not None.  The budget only goes down: a new
option needs two callers outside the tests that pass different values.

Only defaults are counted.  A required parameter is a value callers can
still set, so turning a default into a required parameter lowers this
count without removing the knob; such a parameter needs a caller outside
the tests that passes it.

The cache budget counts the functools.lru_cache and functools.cache
decorators in src/fricke, and also only goes down.  A new cache needs a
workload whose single pass hits it: replaying the same task list, as a
benchmark does, does not count.  The one cache left is abelmono's
_baker_sections, and a single pass hits it.  On one pass of the
benchmark's seed-1 task lists, the node chunks and root batch of each
sweep and of each match_y task read the nodes memo of one cached
sections object: sweep makes 4 sections builds and 5 coefficient calls
(16 and 19 if every form built its own), locus_match 24 and 31 (31 and
39), of them 1 and 1 per match_y task.  The rank checks between the two
match_y tasks, three moduli each, evict the first task's sections, so
the second builds its own.
"""

import ast
from pathlib import Path

OPTION_BUDGET = 7
CACHE_BUDGET = 1

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


def _caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("lru_cache", "cache"):
                        found.append(f"{path.name}:{node.name}")
    return found


def test_caches_within_budget():
    caches = _caches()
    assert len(caches) <= CACHE_BUDGET, sorted(caches)
