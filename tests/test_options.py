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
functools.cache) fails the gate.  It also only goes down.  A new entry
needs a workload whose single pass hits it: replaying the same task list,
as a benchmark does, does not count.  The one cache left is abelmono's
_baker_sections, with one entry, and a single pass hits it.  On one pass
of the benchmark's seed-1 task lists, the root transport of each match_y
task reads the nodes memo of the one cached sections object: locus_match
makes 24 sections builds and 31 coefficient calls (27 and 35 if every form
built its own), of them 1 and 1 per match_y task (2 and 2), and scatter
128 and 328.  sweep makes 4 and 5 either way: each of its four sweeps is
one 17-node transport, with no later pass to read the memo.  Eight
entries save no build and no call on any of the three: the rank checks
between the two match_y tasks, three moduli each, evict the first task's
sections from eight entries as from one, so the second task builds its
own.
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
