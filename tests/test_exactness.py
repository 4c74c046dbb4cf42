"""Static guards on src/liftsim.

Exactness: no decision may depend on a float.  Every call that makes a float
(float(), math.log2, math.log, log2_float) must sit in a rendering site
listed below: the CLI's report and CSV writers, and log2_float itself.  A new
call anywhere else, such as a float comparison inside a checker, fails this
test.

The garbage collector: no module switches it off, freezes it, retunes it or
runs it.  The CLI runs inside its callers' processes (the bench runs every
call in one), so such a setting would carry into every later call; the
library is made fast by making fewer objects instead.
"""

import ast
from collections import Counter
from pathlib import Path

import liftsim

FLOAT_CALLS = {"float", "math.log2", "math.log", "log2_float"}
GC_CALLS = {"gc.disable", "gc.freeze", "gc.set_threshold", "gc.collect"}

RENDERING_SITES = {
    ("cli.rat", "float"): 1,
    ("cli.cmd_partition", "log2_float"): 1,
    ("cli.cmd_refine", "log2_float"): 2,
    ("cli.cmd_simulate", "float"): 1,
    ("cli.cmd_verify", "float"): 2,
    ("cli.cmd_sweep", "float"): 3,
    ("entropy.log2_float", "float"): 2,
    ("entropy.log2_float", "math.log2"): 1,
}


def _callee(func):
    """A call's target as "name", "module.name" or "log2_float"."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr == "log2_float":
            return "log2_float"
        if isinstance(func.value, ast.Name):
            return f"{func.value.id}.{func.attr}"
    return None


def _float_calls(tree, module):
    """(module.function, callee) for every watched call, by the innermost
    enclosing function ("<module>" at top level)."""
    sites = Counter()

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and (callee := _callee(node.func)) in FLOAT_CALLS:
            sites[where, callee] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, f"{module}.<module>")
    return sites


def test_floats_only_at_rendering_sites():
    src = Path(liftsim.__file__).parent
    sites = Counter()
    for path in sorted(src.glob("*.py")):
        sites += _float_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert dict(sites) == RENDERING_SITES


def test_no_collector_settings():
    """No call of GC_CALLS, and no import of gc under another name or of a
    name from it, which would hide such a call from this check."""
    src = Path(liftsim.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _callee(node.func) in GC_CALLS:
                found.append((path.stem, node.lineno, _callee(node.func)))
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append((path.stem, node.lineno, "from gc import"))
            elif isinstance(node, ast.Import) and any(
                    a.name == "gc" and a.asname not in (None, "gc") for a in node.names):
                found.append((path.stem, node.lineno, "import gc as"))
    assert found == []
