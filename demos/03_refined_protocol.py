"""Refining a protocol.

The refinement inserts two bookkeeping rounds after every Alice bit: she
announces which density-restoring part her input fell into, and Bob pins the
bits her fixed pointers select, extending a running partial assignment rho.
The rectangle at the start of every iteration stays rho-structured, and
input/output behavior is untouched: dropping the inserted messages recovers
the original transcript.
"""

from fractions import Fraction

from liftsim import is_structured, project_transcript, refine, run_protocol, run_refined
from liftsim.fixtures import one_bit_fixture
from liftsim.protocol import RAlice, RBob, RLeaf

DELTA = Fraction(9, 10)

pt = one_bit_fixture(m=2)
rp = refine(pt, DELTA)

print("source protocol: Alice announces [x = 1], cost", pt.cost)


def show(node, depth, edge):
    pad = "  " * depth
    kind = type(node).__name__
    print(f"{pad}{edge} {kind}: rho={node.rho} |X|={len(node.rect.X)} "
          f"|Y|={node.rect.Y.size}"
          + (f" value={node.value}" if isinstance(node, RLeaf) else ""))
    if isinstance(node, RBob):
        for b, child in node.children.items():
            if child:
                show(child, depth + 1, f"b={b} ->")
    elif isinstance(node, RAlice):
        for b, parts in node.branches.items():
            for part in parts or []:
                label = f"b={b}, i={part.order} (fix x_{part.coords}={part.alpha})"
                for s, child in sorted(part.s_children.items()):
                    if child is None:
                        print("  " * (depth + 1) + f"{label}, s={s} -> absent")
                    else:
                        show(child, depth + 1, f"{label}, s={s} ->")


show(rp.root, 0, "root:")

print("\nevery iteration node is structured:",
      all(is_structured(nd.rect, nd.rho, DELTA, rp.G)
          for nd in rp.iter_nodes() if not isinstance(nd, RLeaf)))

print("\nbehavior is unchanged on every input:")
for xs in rp.G.alice_domain():
    for ys in rp.G.bob_domain():
        t, v = run_protocol(pt, xs, ys)
        rt, rv = run_refined(rp, xs, ys)
        assert v == rv and project_transcript(rt) == t
print("  all", rp.G.alice_size * rp.G.bob_size, "inputs agree")
