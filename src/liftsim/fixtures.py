"""Bundled fixtures, protocol families, and seeded random instance generators.

The bundled families are parameterized by the block-domain size m so the same
family can be instantiated along a sweep.  Bob nodes in the sweep families use
single-bit readouts: their announcement correlates with the slice constraint
(the bit may be pointed to), which is what gives these protocols a nonzero
simulator-vs-truth gap at small m, and they stay representable when the Bob
domain is too large to tabulate.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .core import BOT, ComposedInstance, OuterFunction
from .protocol import (
    ALICE,
    BOB,
    BitFn,
    DLeaf,
    DQuery,
    DecisionTree,
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedProtocol,
    TableFn,
    dt_to_protocol,
)


def instance(n: int, m: int) -> ComposedInstance:
    return ComposedInstance(n, m)


def alice_predicate(G: ComposedInstance, pred) -> TableFn:
    return TableFn(G, ALICE, "".join("1" if pred(xs) else "0" for xs in G.alice_domain()))


def one_bit_fixture(m: int = 2) -> ProtocolTree:
    """n=1: Alice announces [x = 1], then both sides are leaves.

    The simulator is exact on this protocol, which makes it the reference
    fixture for transcript-distribution equality.
    """
    G = instance(1, m)
    fn = alice_predicate(G, lambda xs: xs[0] == 1)
    return ProtocolTree(G, PNode(ALICE, fn, PLeaf(0), PLeaf(1)))


def bob_first_fixture(m: int = 2) -> ProtocolTree:
    """n=1: Bob announces y_1, then Alice announces [x = 1].

    On the Bob branch disagreeing with z_1 the part that fixes x = 1 has no
    consistent bit-fixing child, so the simulator fails there with
    probability exactly 1/4.
    """
    G = instance(1, m)
    alice = alice_predicate(G, lambda xs: xs[0] == 1)
    sub = lambda: PNode(ALICE, alice, PLeaf(0), PLeaf(1))  # noqa: E731
    return ProtocolTree(G, PNode(BOB, BitFn(1, 1, m), sub(), sub()))


def _alice_table(G: ComposedInstance, pred):
    """A function returning G's Alice table of pred, built on first call and
    then shared; each sweep_family call makes its own and drops them."""
    return functools.cache(lambda: alice_predicate(G, pred))


def _family_n1(G: ComposedInstance) -> dict:
    """Sweep family at n=1, depth <= 4, instantiable at any power-of-two m:
    member name -> a function that builds its root."""
    m = G.m
    a_first = _alice_table(G, lambda xs: xs[0] == 1)
    a_half = _alice_table(G, lambda xs: xs[0] <= m // 2)
    leaf0, leaf1 = PLeaf(0), PLeaf(1)
    return {
        "bob1-alice1": lambda: PNode(BOB, BitFn(1, 1, m),
                                     PNode(ALICE, a_first(), leaf0, leaf1),
                                     PNode(ALICE, a_first(), leaf1, leaf0)),
        "alice1-bob2": lambda: PNode(ALICE, a_first(),
                                     PNode(BOB, BitFn(1, min(2, m), m), leaf0, leaf1),
                                     PNode(BOB, BitFn(1, min(2, m), m), leaf1, leaf0)),
        "bob1-bob2-alicehalf": lambda: PNode(
            BOB, BitFn(1, 1, m),
            PNode(BOB, BitFn(1, min(2, m), m),
                  PNode(ALICE, a_half(), leaf0, leaf1), leaf1),
            PNode(BOB, BitFn(1, min(2, m), m), leaf0,
                  PNode(ALICE, a_half(), leaf1, leaf0))),
        "alicehalf-bob1-alice1": lambda: PNode(
            ALICE, a_half(),
            PNode(BOB, BitFn(1, 1, m),
                  PNode(ALICE, a_first(), leaf0, leaf1), leaf1),
            PNode(BOB, BitFn(1, 1, m), leaf0, leaf1)),
    }


def _family_n2(G: ComposedInstance) -> dict:
    """Sweep family at n=2, depth <= 4: name -> a function building its root.

    Every member opens with Bob reading a bit of a block whose pointer is
    still free: that announcement carries the Theta(1/m) slice bias this
    family is meant to expose.  Alice-led protocols are omitted here because
    at very small m their density repairs fix every block and the walk
    becomes trivially exact, which reverses the closeness-vs-m trend.
    """
    m = G.m
    a1 = _alice_table(G, lambda xs: xs[0] == 1)
    a2 = _alice_table(G, lambda xs: xs[1] == 1)
    leaf0, leaf1 = PLeaf(0), PLeaf(1)
    p2 = min(2, m)
    return {
        "bob11-alice1": lambda: PNode(BOB, BitFn(1, 1, m),
                                      PNode(ALICE, a1(), leaf0, leaf1),
                                      PNode(ALICE, a1(), leaf1, leaf0)),
        "bob21-alice1": lambda: PNode(BOB, BitFn(2, 1, m),
                                      PNode(ALICE, a1(), leaf0, leaf1),
                                      PNode(ALICE, a1(), leaf1, leaf0)),
        "bob11-alice2-bob22": lambda: PNode(
            BOB, BitFn(1, 1, m),
            PNode(ALICE, a2(),
                  PNode(BOB, BitFn(2, p2, m), leaf0, leaf1),
                  leaf1),
            PNode(ALICE, a2(), leaf0,
                  PNode(BOB, BitFn(2, p2, m), leaf1, leaf0))),
        "bob11-bob21-alice1": lambda: PNode(
            BOB, BitFn(1, 1, m),
            PNode(BOB, BitFn(2, 1, m),
                  PNode(ALICE, a1(), leaf0, leaf1),
                  PNode(ALICE, a1(), leaf1, leaf0)),
            PNode(BOB, BitFn(2, 1, m), leaf0,
                  PNode(ALICE, a1(), leaf1, leaf0))),
        "bob12-alice1-bob22": lambda: PNode(
            BOB, BitFn(1, p2, m),
            PNode(ALICE, a1(),
                  PNode(BOB, BitFn(2, p2, m), leaf0, leaf1),
                  PNode(BOB, BitFn(2, p2, m), leaf1, leaf0)),
            PNode(ALICE, a1(), leaf1, leaf0)),
    }


# n -> the family on an instance: member name -> a function building its root
SWEEP_FAMILIES = {1: _family_n1, 2: _family_n2}


def sweep_family(n: int, m: int, name: str | None = None) -> list:
    """The bundled sweep family at n in {1, 2} as (name, ProtocolTree) pairs,
    or only the named member's pair, built with only the tables it reads."""
    family = SWEEP_FAMILIES.get(n)
    if family is None:
        raise ValueError("bundled sweep families cover n in {1, 2}")
    G = instance(n, m)
    members = family(G)
    if name is not None:
        if name not in members:
            raise ValueError(f"the n={n} sweep family has no member {name!r}")
        members = {name: members[name]}
    return [(key, ProtocolTree(G, build())) for key, build in members.items()]


def xor_outer(n: int = 2) -> OuterFunction:
    return OuterFunction(
        n, {z: sum(z) % 2 for z in itertools.product((0, 1), repeat=n)}
    )


def xor_decision_tree(n: int = 2) -> DecisionTree:
    def build(i, parity):
        if i > n:
            return DLeaf(parity)
        return DQuery(i, build(i + 1, parity), build(i + 1, parity ^ 1))

    return DecisionTree(n, build(1, 0))


def third_error_mixture(m: int = 2) -> tuple:
    """(PI, f): a randomized protocol with max error exactly 1/3 on f = XOR2.

    Weight 2/3 on the lifted correct decision tree, 1/3 on the constant-0
    protocol, which errs exactly on the z with f(z) = 1.
    """
    f = xor_outer(2)
    G = instance(2, m)
    good = dt_to_protocol(xor_decision_tree(2), G)
    bad = ProtocolTree(G, PLeaf(0))
    return RandomizedProtocol([(Fraction(2, 3), good), (Fraction(1, 3), bad)]), f


# --- seeded random generators ---

def random_protocol(rng: random.Random, G: ComposedInstance,
                    max_depth: int) -> ProtocolTree:
    """Random tree shape (each non-root node above max_depth is a leaf with
    probability 1/4) with random extensional node maps and random leaf bits."""
    def build(d):
        if d >= max_depth or (d > 0 and rng.random() < 0.25):
            return PLeaf(rng.randint(0, 1))
        owner, size = (ALICE, G.alice_size) if rng.random() < 0.5 else (BOB, G.bob_size)
        fn = TableFn(G, owner, "".join(str(rng.randint(0, 1)) for _ in range(size)))
        return PNode(owner, fn, build(d + 1), build(d + 1))

    return ProtocolTree(G, build(0))


def random_decision_tree(rng: random.Random, n: int, depth: int,
                         allow_bot: bool = False) -> DecisionTree:
    def build(avail, d):
        if d >= depth or not avail or rng.random() < 0.3:
            values = (0, 1, BOT) if allow_bot else (0, 1)
            return DLeaf(rng.choice(values))
        c = rng.choice(sorted(avail))
        return DQuery(c, build(avail - {c}, d + 1), build(avail - {c}, d + 1))

    return DecisionTree(n, build(frozenset(range(1, n + 1)), 0))


def random_support(rng: random.Random, n_coords: int, m: int,
                   max_size: int = 64) -> set:
    # m^k for k past max_size's bit length exceeds max_size when m > 1
    size = rng.randint(1, min(max_size, m ** min(n_coords, max_size.bit_length())))
    out = set()
    while len(out) < size:
        out.add(tuple(rng.randint(1, m) for _ in range(n_coords)))
    return out
