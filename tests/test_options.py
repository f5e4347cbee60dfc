"""The optional-parameter budget of src/fricke, counted from the syntax tree.

An option is a default in a def line: each entry of args.defaults and each
keyword-only default that is not None.  The budget only goes down: a new
option needs two callers outside the tests that pass different values.

Only defaults are counted.  A required parameter is a value callers can
still set, so turning a default into a required parameter lowers this
count without removing the knob; such a parameter needs a caller outside
the tests that passes it.

The cache budget counts the entries that the functools.lru_cache and
functools.cache decorators in src/fricke may hold: each lru_cache adds its
maxsize (128 when none is given), and an unbounded one (maxsize None, or
functools.cache) fails the gate.  It also only goes down, and it is 0: no
cache is left.  A new cache needs a workload whose single pass it
measurably speeds up: replaying the same task list, as a benchmark does,
does not count.  The last one, abelmono's one-entry Baker-sections cache
and its nodes memo, saved 4 of 35 coefficient calls on a seed-1
locus_match pass, 24 of 541 on scatter and none on sweep or cli, and
interleaved benchmark passes read no end-to-end difference without it.
"""

import ast
from pathlib import Path

OPTION_BUDGET = 7
CACHE_BUDGET = 0

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


def _maxsize(decorator):
    """The entries an lru_cache decorator may hold: None when unbounded or not a literal."""
    args = []
    if isinstance(decorator, ast.Call):
        args = decorator.args or [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    if not args:
        return 128  # lru_cache's default maxsize
    try:
        size = ast.literal_eval(args[0])
    except ValueError:  # lru_cache(function) or a computed size
        return None
    return size if isinstance(size, int) else None


def _caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name == "cache":
                        found.append((f"{path.name}:{node.name}", None))
                    elif name == "lru_cache":
                        found.append((f"{path.name}:{node.name}", _maxsize(decorator)))
    return found


def test_caches_within_budget():
    caches = _caches()
    assert all(size is not None for _, size in caches), sorted(caches)
    assert sum(max(size, 1) for _, size in caches) <= CACHE_BUDGET, sorted(caches)
