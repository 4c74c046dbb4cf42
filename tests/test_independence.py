"""Static independence guard: the oracles never reach the Bob-set mask code.

Slice enumeration, the protocol runs and the replays built on them are the
references the count oracle and the explicit Bob sets are checked against,
so none of them may reach the masks: the per-position masks, a table map's
1-inputs or mask, or `ExplicitBobSet`'s split and count methods.  Reach is
read from the source by name, conservatively: a function reaches every
function or method named by any name or attribute it uses (a class name: its
constructor), every node map's `__call__`, and what those reach.

`leaf_rectangles`, refinement's reference, keeps its Alice split one call of
the map per tuple; its Bob split goes through the one helper listed in SHARED.

Likewise the partition verifier (`verify_partition_lemma` and the density
check it runs, `is_blockwise_dense`) reaches none of the partition's own
code: the partition, its marginal keys, its count threshold and root, and
its choice of violating set.

And the ledger check, the independent judge of every run's ledger, reaches
neither the walk law that builds the ledgers nor the refinement under it.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import liftsim

ORACLES = ("iter_slice", "run_refined", "run_protocol", "replay_transcript_dist",
           "source_transcript_dist", "leaf_rectangles")

MASK_CODE = {"_position_mask", "TableFn.bob_mask", "TableFn.ones",
             "ExplicitBobSet._pieces", "ExplicitBobSet.split",
             "ExplicitBobSet.split_fn", "ExplicitBobSet.slice_counts"}

PARTITION_VERIFIERS = ("verify_partition_lemma", "is_blockwise_dense")

PARTITION_CODE = {"density_restoring_partition", "_key", "violation_threshold",
                  "_iroot", "_choose_violating_set"}

# helper -> why an oracle may call it although it reaches the mask code
SHARED = {
    "_split_bob": "leaf_rectangles cuts Bob's side with the split refine uses "
                  "(ROADMAP item 6: the source-protocol reference is still open)",
}

LEDGER_CHECK = "ledger_check"

LEDGER_BUILDERS = {"walk_law", "refine"}

CONSTRUCTORS = ("__init__", "__post_init__", "__new__")


def _definitions():
    """Qualified name ("f" or "Class.f") -> body, for every module-level
    function and method in src/liftsim; nested functions count as part of
    the function that holds them."""
    defs = {}
    for path in sorted(Path(liftsim.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef):
                defs[top.name] = top
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        defs[f"{top.name}.{node.name}"] = node
    return defs


def _graph():
    defs = _definitions()
    by_name = defaultdict(set)
    for qual in defs:
        by_name[qual.rpartition(".")[2]].add(qual)
    classes = {qual.partition(".")[0] for qual in defs if "." in qual}
    for cls in classes:
        by_name[cls] |= {f"{cls}.{c}" for c in CONSTRUCTORS if f"{cls}.{c}" in defs}
    calls = by_name["__call__"]
    edges = {}
    for qual, node in defs.items():
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out |= by_name.get(sub.id, set())
            elif isinstance(sub, ast.Attribute):
                out |= by_name.get(sub.attr, set())
            elif isinstance(sub, ast.Call):
                out |= calls
        edges[qual] = out - {qual}
    return edges


def _reach(edges, root):
    """Every function root reaches, each with the chain that first reached it;
    SHARED helpers are reached but not entered."""
    chains = {root: (root,)}
    todo = [root]
    while todo:
        qual = todo.pop()
        if qual in SHARED and qual != root:
            continue
        for nxt in sorted(edges[qual]):
            if nxt not in chains:
                chains[nxt] = chains[qual] + (nxt,)
                todo.append(nxt)
    return chains


def test_mask_code_and_shared_helpers_exist():
    edges = _graph()
    assert MASK_CODE | PARTITION_CODE | LEDGER_BUILDERS <= edges.keys()
    assert set(ORACLES) | set(PARTITION_VERIFIERS) | {LEDGER_CHECK} <= edges.keys()
    # each exemption is in use and is needed: without it the oracle would
    # reach the mask code
    assert "_split_bob" in edges["leaf_rectangles"]
    assert MASK_CODE & _reach(edges, "_split_bob").keys()


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_reaches_no_mask_code(oracle):
    chains = _reach(_graph(), oracle)
    found = {" -> ".join(chains[q]) for q in MASK_CODE & chains.keys()}
    assert not found


@pytest.mark.parametrize("verifier", PARTITION_VERIFIERS)
def test_partition_verifier_reaches_no_partition_code(verifier):
    chains = _reach(_graph(), verifier)
    found = {" -> ".join(chains[q]) for q in PARTITION_CODE & chains.keys()}
    assert not found


def test_ledger_check_reaches_no_ledger_builder():
    chains = _reach(_graph(), LEDGER_CHECK)
    found = {" -> ".join(chains[q]) for q in LEDGER_BUILDERS & chains.keys()}
    assert not found
