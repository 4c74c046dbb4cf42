"""Protocol trees, refinement, decision trees, and conversion tests."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftsim.core import (
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    PartialAssignment,
    Rect,
    bob_size,
    compose_eval,
    is_structured,
)
from liftsim.errors import DomainError, ResourceError
from liftsim.fixtures import bob_first_fixture, random_decision_tree, sweep_family
from liftsim.protocol import (
    ALICE,
    BOB,
    BitFn,
    DLeaf,
    DQuery,
    DecisionTree,
    PLeaf,
    PNode,
    ProtocolTree,
    RAlice,
    RBob,
    RLeaf,
    RPart,
    RandomizedDecisionTree,
    RandomizedProtocol,
    TableFn,
    dt_eval,
    dt_from_dict,
    dt_to_dict,
    dt_to_protocol,
    leaf_rectangles,
    project_transcript,
    protocol_from_dict,
    protocol_to_dict,
    refine,
    run_protocol,
    run_refined,
)

D = Fraction(9, 10)


def G(n, m):
    return ComposedInstance(n, m)


def table(G_, owner, f):
    """The owner's table map of f on G_, written out over that side's inputs."""
    domain = G_.alice_domain() if owner == ALICE else G_.bob_domain()
    return TableFn(G_, owner, "".join(str(f(inp)) for inp in domain))


def alice_eq(G_, i, val):
    """Alice announces [x_i == val]."""
    return table(G_, ALICE, lambda xs: int(xs[i - 1] == val))


def const_protocol(G_, value):
    return ProtocolTree(G_, PLeaf(value))


def one_bit_fixture(m=2):
    """Alice announces [x_1 = 1], then leaves 0 / 1."""
    g = G(1, m)
    root = PNode(ALICE, alice_eq(g, 1, 1), PLeaf(0), PLeaf(1))
    return ProtocolTree(g, root)


def random_protocol(rng, G_, max_depth):
    """Random tree shapes, random extensional maps, random leaf bits."""
    def coin(_=None):
        return rng.randint(0, 1)

    def build(d):
        if d >= max_depth or rng.random() < 0.25:
            return PLeaf(coin())
        owner = ALICE if rng.random() < 0.5 else BOB
        return PNode(owner, table(G_, owner, coin), build(d + 1), build(d + 1))

    root = build(0)
    if isinstance(root, PLeaf):
        root = PNode(ALICE, table(G_, ALICE, coin), PLeaf(coin()), PLeaf(coin()))
    return ProtocolTree(G_, root)


# --- deterministic protocols ---

def test_run_protocol_zero_communication():
    g = G(1, 2)
    assert run_protocol(const_protocol(g, 1), (1,), (0,)) == ((), 1)


def test_run_protocol_one_bit():
    pt = one_bit_fixture()
    assert run_protocol(pt, (1,), (0b10,)) == ((1,), 1)
    assert run_protocol(pt, (2,), (0b10,)) == ((0,), 0)


def test_run_protocol_depth_two():
    g = G(1, 2)
    bob_fn = table(g, BOB, lambda ys: ys[0] & 1)  # last bit of y
    root = PNode(ALICE, alice_eq(g, 1, 1),
                 PNode(BOB, bob_fn, PLeaf("a"), PLeaf("b")),
                 PNode(BOB, bob_fn, PLeaf("c"), PLeaf("d")))
    pt = ProtocolTree(g, root)
    assert run_protocol(pt, (1,), (0b01,)) == ((1, 1), "d")
    assert run_protocol(pt, (2,), (0b10,)) == ((0, 0), "a")


@pytest.mark.parametrize("node_owner, g, owner, bits, match", [
    (ALICE, G(1, 2), ALICE, "1", "needs 2"),
    (ALICE, G(1, 2), ALICE, "101", "needs 2"),
    (ALICE, G(1, 2), ALICE, "12", "needs 2"),
    (ALICE, G(1, 2), ALICE, 0b10, "needs 2"),
    (ALICE, G(1, 4), ALICE, "1000", "built for"),
    (BOB, G(1, 2), ALICE, "10", "built for"),
], ids=["short", "long", "digit-2", "not-str", "other-instance", "alice-under-bob"])
def test_table_refused(node_owner, g, owner, bits, match):
    """A table is one '0'/'1' string of its owner's domain size, and a tree
    takes only tables built for its own instance and the node's owner:
    refine reads an Alice table's 1-inputs and a Bob table's 1-mask from it."""
    with pytest.raises(DomainError, match=match):
        ProtocolTree(G(1, 2), PNode(node_owner, TableFn(g, owner, bits), PLeaf(0), PLeaf(1)))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), shape=st.sampled_from([(1, 2), (2, 2), (1, 4), (2, 4)]),
       owner=st.sampled_from([ALICE, BOB]))
def test_table_views_read_its_bits(data, shape, owner):
    """Every view of a table map agrees with a direct read of its string:
    the i-th input of the owner's domain maps to bits[i]."""
    g = G(*shape)
    domain = list(g.alice_domain() if owner == ALICE else g.bob_domain())
    bits = data.draw(st.text("01", min_size=len(domain), max_size=len(domain)))
    fn = TableFn(g, owner, bits)
    assert [fn(inp) for inp in domain] == [int(b) for b in bits]
    ones = [inp for inp, b in zip(domain, bits) if b == "1"]
    if owner == ALICE:
        assert fn.ones == frozenset(ones)
    else:
        assert fn.bob_mask == ExplicitBobSet(*shape, ones).bits
    pt = ProtocolTree(g, PNode(owner, fn, PLeaf(0), PLeaf(1)))
    assert protocol_from_dict(protocol_to_dict(pt)).root.fn.bits == bits


def test_leaf_rectangles_zero_comm():
    g = G(1, 2)
    rects = leaf_rectangles(const_protocol(g, 1))
    assert set(rects) == {()}
    assert len(rects[()].X) == 2 and rects[()].Y.size == 4


def test_leaf_rectangles_one_bit():
    rects = leaf_rectangles(one_bit_fixture())
    assert rects[(1,)].X == {(1,)} and rects[(0,)].X == {(2,)}
    assert rects[(1,)].Y.size == 4 and rects[(0,)].Y.size == 4


def test_leaf_rectangles_partition_property():
    rng = random.Random(13)
    for _ in range(20):
        n, m = rng.choice([(1, 2), (1, 4), (2, 2)])
        g = G(n, m)
        pt = random_protocol(rng, g, 3)
        rects = leaf_rectangles(pt)
        count = 0
        for t, rect in rects.items():
            for xs in rect.X:
                for ys in rect.Y.materialize():
                    assert run_protocol(pt, xs, ys)[0] == t
                    count += 1
        assert count == g.alice_size * g.bob_size


def test_leaf_rectangles_do_not_write_out_the_bob_domain():
    """An empty Bob side is the mask 0, built without listing the 2^(nm)
    Bob inputs: at n=2, m=32 that list would be 2^64 bits."""
    [(_, pt)] = sweep_family(2, 32, "bob11-alice1")
    rects = leaf_rectangles(pt)
    assert sorted(rects) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(r.Y, BobCube) for r in rects.values())
    assert sum(len(r.X) * r.Y.size for r in rects.values()) == 32 ** 2 * 2 ** 64


def test_root_bob_set_one_rule():
    """refine and leaf_rectangles start from one Bob set: the cube when every
    Bob map is a bit readout, whatever the budget; else the explicit domain,
    refused when its 2^(nm) tuples exceed the budget."""
    readouts = bob_first_fixture(4)
    assert isinstance(refine(readouts, D, pair_budget=4).root.rect.Y, BobCube)
    assert isinstance(leaf_rectangles(readouts, pair_budget=4)[(0, 1)].Y, BobCube)
    g = G(1, 4)
    tabled = ProtocolTree(g, PNode(BOB, table(g, BOB, lambda ys: ys[0] & 1),
                                   PLeaf(0), PLeaf(1)))
    for build in (lambda b: refine(tabled, D, pair_budget=b).root.rect,
                  lambda b: leaf_rectangles(tabled, pair_budget=b)[(1,)]):
        with pytest.raises(ResourceError) as err:
            build(8)
        assert (err.value.required, err.value.budget) == (16, 8)
        assert isinstance(build(16).Y, ExplicitBobSet)


# --- refinement ---

def test_refine_zero_communication():
    g = G(1, 2)
    rp = refine(const_protocol(g, 1), D)
    assert isinstance(rp.root, RLeaf)
    assert str(rp.root.rho) == "*"
    assert run_refined(rp, (1,), (2,)) == ((), 1)


def test_refine_one_bit_structure():
    """Hand-traceable: both Alice branches collapse to a single fixed part with
    both bit-fixing children present."""
    rp = refine(one_bit_fixture(), D)
    root = rp.root
    assert isinstance(root, RAlice)
    for b, alpha in ((1, 1), (0, 2)):
        parts = root.branches[b]
        assert parts is not None and len(parts) == 1
        part = parts[0]
        assert part.coords == (1,) and part.alpha == (alpha,)
        assert set(part.s_children) == {"0", "1"}
        for s, child in part.s_children.items():
            assert isinstance(child, RLeaf)
            assert str(child.rho) == s
            assert len(child.rect.X) == 1 and child.rect.Y.size == 2


def test_refine_bob_only_keeps_rho_free():
    g = G(1, 2)
    bob_fn = table(g, BOB, lambda ys: ys[0] & 1)
    pt = ProtocolTree(g, PNode(BOB, bob_fn, PLeaf(0), PLeaf(1)))
    rp = refine(pt, D)
    assert isinstance(rp.root, RBob)
    for node in rp.iter_nodes():
        assert str(node.rho) == "*"
    # shape is isomorphic to the source: one Bob node, two leaves
    kinds = sorted(type(nd).__name__ for nd in rp.iter_nodes())
    assert kinds == ["RBob", "RLeaf", "RLeaf"]


_RANDOM_PROTOCOLS = dict(proto_seed=st.integers(0, 2 ** 32 - 1),
                         shape=st.sampled_from([(1, 2), (1, 4), (2, 2)]),
                         depth=st.integers(0, 4))


@settings(max_examples=25, deadline=None, database=None)
@given(**_RANDOM_PROTOCOLS)
def test_run_refined_matches_run_protocol_exhaustively(proto_seed, shape, depth):
    """run_refined, which builds its own transcript, agrees with the source
    protocol, and reaches the leaf that holds the same transcript."""
    n, m = shape
    g = G(n, m)
    pt = random_protocol(random.Random(proto_seed), g, depth)
    rp = refine(pt, D)
    leaves = dict(rp.leaves())
    assert all(t is leaf.transcript for t, leaf in rp.leaves())
    for xs in g.alice_domain():
        for ys in g.bob_domain():
            t, v = run_protocol(pt, xs, ys)
            rt, rv = run_refined(rp, xs, ys)
            assert v == rv
            assert project_transcript(rt) == t
            leaf = leaves[rt]
            assert leaf.transcript == rt and leaf.value == rv
            assert xs in leaf.rect.X and leaf.rect.Y.contains(ys)


@settings(max_examples=25, deadline=None, database=None)
@given(**_RANDOM_PROTOCOLS)
def test_refined_potentials_match_their_formula(proto_seed, shape, depth):
    """Every node's potential is 2^(log m |free|) / |X|; every part's is the
    same formula with its blocks I fixed, which each present s-child shares."""
    n, m = shape
    g = G(n, m)
    rp = refine(random_protocol(random.Random(proto_seed), g, depth), D)
    for node in rp.iter_nodes():
        free = len(node.rho.free)
        assert (Fraction(2 ** node.free_bits, len(node.rect.X))
                == Fraction(2 ** (g.log_m * free), len(node.rect.X)))
        if not isinstance(node, RAlice):
            continue
        for parts in node.branches.values():
            for part in parts or []:
                potential = Fraction(2 ** part.free_bits, len(part.X))
                assert potential == Fraction(
                    2 ** (g.log_m * (free - len(part.coords))), len(part.X))
                for child in part.s_children.values():
                    assert (child is None
                            or Fraction(2 ** child.free_bits, len(child.rect.X)) == potential)


# (kind, rho, |X|, |Y|) of each node iter_nodes lists for the n=2 sweep
# member bob11-alice2-bob22 at m=16: 255 lines "kind,rho,x,y", sha256
_BOB11_ALICE2_BOB22_M16_NODES = (
    255, "cd39208737e6daaf667fef50e623ab2095d3c241c311eadf2e1d1ceb6943939f")


def test_refined_node_order_is_pinned():
    """iter_nodes lists nodes depth first, children pushed in b, part and s
    order, so the last pushed comes out first; the refine command writes
    nodes.csv in this order."""
    [(_, pt)] = sweep_family(2, 16, "bob11-alice2-bob22")
    rp = refine(pt, D)
    assert isinstance(rp.root.rect.Y, BobCube)
    nodes = [(type(nd).__name__, str(nd.rho), len(nd.rect.X), nd.rect.Y.size)
             for nd in rp.iter_nodes()]
    assert nodes[:4] == [("RBob", "**", 256, 2 ** 32), ("RAlice", "**", 256, 2 ** 31),
                         ("RBob", "11", 1, 2 ** 29), ("RLeaf", "11", 1, 2 ** 28)]
    text = "\n".join(",".join(map(str, row)) for row in nodes)
    assert ((len(nodes), hashlib.sha256(text.encode()).hexdigest())
            == _BOB11_ALICE2_BOB22_M16_NODES)


def test_refined_iteration_nodes_are_structured():
    rng = random.Random(102)
    for _ in range(15):
        n, m = rng.choice([(1, 2), (2, 2)])
        g = G(n, m)
        rp = refine(random_protocol(rng, g, 3), D)
        for node in (nd for nd in rp.iter_nodes() if not isinstance(nd, RLeaf)):
            assert is_structured(node.rect, node.rho, D, g)


def test_refined_leaf_rects_refine_source_partition():
    rng = random.Random(103)
    g = G(2, 2)
    pt = random_protocol(rng, g, 3)
    rp = refine(pt, D)
    source = leaf_rectangles(pt)
    for rt, leaf in rp.leaves():
        t = project_transcript(rt)
        big = source[t]
        assert leaf.rect.X <= big.X
        for ys in leaf.rect.Y.materialize():
            assert big.Y.contains(ys)


def _tabulate_bob_maps(pt):
    """The same protocol with every Bob bit readout written out as a table."""
    g = pt.G

    def copy(node):
        if isinstance(node, PLeaf):
            return node
        fn = node.fn
        if isinstance(fn, BitFn):
            fn = table(g, BOB, fn)
        return PNode(node.owner, fn, copy(node.zero), copy(node.one))

    return ProtocolTree(g, copy(pt.root))


def _assert_same_refinement(a, b):
    assert type(a) is type(b)
    assert a.rect.X == b.rect.X and a.rho == b.rho
    assert a.rect.Y.materialize() == b.rect.Y.materialize()
    assert a.def_y == b.def_y
    assert Fraction(2 ** a.free_bits, len(a.rect.X)) == Fraction(2 ** b.free_bits, len(b.rect.X))
    if isinstance(a, RLeaf):
        assert a.value == b.value
        return
    if isinstance(a, RBob):
        pairs = [(a.children[bit], b.children[bit]) for bit in (0, 1)]
    else:
        pairs = []
        for bit in (0, 1):
            ba, bb = a.branches[bit], b.branches[bit]
            assert (ba is None) == (bb is None)
            if ba is None:
                continue
            assert ([(p.order, p.coords, p.alpha, p.X, Fraction(p.input_size, p.tail_size))
                     for p in ba]
                    == [(p.order, p.coords, p.alpha, p.X, Fraction(p.input_size, p.tail_size))
                        for p in bb])
            for pa, pb in zip(ba, bb):
                assert sorted(pa.s_children) == sorted(pb.s_children)
                pairs.extend((pa.s_children[s], pb.s_children[s]) for s in pa.s_children)
    for ca, cb in pairs:
        assert (ca is None) == (cb is None)
        if ca is not None:
            _assert_same_refinement(ca, cb)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_sweep_family_builds_one_named_member(n, m):
    """sweep_family(n, m, name) is the full family's member of that name, and
    an unknown name is refused."""
    family = sweep_family(n, m)
    for name, pt in family:
        [(got, one)] = sweep_family(n, m, name)
        assert got == name and protocol_to_dict(one) == protocol_to_dict(pt)
    with pytest.raises(ValueError):
        sweep_family(n, m, "no-such-member")


def _bit_readout_protocols():
    for n in (1, 2):
        for m in (2, 4):
            yield from (pt for _, pt in sweep_family(n, m))
    for m in (2, 4, 8):
        yield bob_first_fixture(m)


def test_refine_cube_and_explicit_bob_sets_agree():
    """Bit-readout Bob maps refine on cube Bob sets; the same maps written as
    tables refine on explicit ones.  The two refinements must coincide."""
    for pt in _bit_readout_protocols():
        cube = refine(pt, D)
        explicit = refine(_tabulate_bob_maps(pt), D)
        assert isinstance(cube.root.rect.Y, BobCube)
        assert not isinstance(explicit.root.rect.Y, BobCube)
        _assert_same_refinement(cube.root, explicit.root)
        assert ([(t, leaf.value) for t, leaf in cube.leaves()]
                == [(t, leaf.value) for t, leaf in explicit.leaves()])


def _records(rp):
    """Every node of a refined protocol with its rectangle, rho and Bob set,
    and every part of its Alice nodes."""
    for node in rp.iter_nodes():
        yield from (node, node.rect, node.rho, node.rect.Y)
        if isinstance(node, RAlice):
            yield from (part for parts in node.branches.values() if parts for part in parts)


def test_refined_records_have_no_dict():
    """A refined tree's records are slotted: no node, part, rectangle,
    partial assignment or Bob set of either kind carries an instance
    __dict__, also after each leaf's slice counts are read and kept."""
    rps = [refine(pt, D) for pt in _bit_readout_protocols()]
    rps += [refine(_tabulate_bob_maps(rp.source), D) for rp in rps]
    seen = set()
    for rp in rps:
        for _, leaf in rp.leaves():
            assert leaf.slice_counts is leaf.slice_counts
        for record in _records(rp):
            assert not hasattr(record, "__dict__"), type(record).__name__
            seen.add(type(record))
    assert seen == {RLeaf, RBob, RAlice, RPart, Rect, PartialAssignment, BobCube,
                    ExplicitBobSet}


# --- decision trees ---

def test_dt_eval_examples():
    t = DecisionTree(2, DLeaf(1))
    assert dt_eval(t, (0, 1)) == (1, frozenset())
    t = DecisionTree(2, DQuery(1, DLeaf(0), DLeaf(1)))
    assert dt_eval(t, (1, 0)) == (1, frozenset({1}))
    t2 = DecisionTree(2, DQuery(1, DQuery(2, DLeaf(0), DLeaf(1)), DLeaf(1)))
    assert dt_eval(t2, (0, 1)) == (1, frozenset({1, 2}))
    assert dt_eval(t2, (0, 0)) == (0, frozenset({1, 2}))


def test_dt_no_repeat_queries():
    with pytest.raises(DomainError):
        DecisionTree(2, DQuery(1, DQuery(1, DLeaf(0), DLeaf(1)), DLeaf(0)))


def test_dt_to_protocol_single_leaf():
    g = G(2, 4)
    pt = dt_to_protocol(DecisionTree(2, DLeaf(1)), g)
    assert pt.depth == 0
    assert run_protocol(pt, (1, 1), (0, 0)) == ((), 1)


def test_dt_to_protocol_cost_formula():
    g = G(2, 4)
    t = DecisionTree(2, DQuery(1, DLeaf(0), DLeaf(1)))
    pt = dt_to_protocol(t, g)
    assert pt.cost == 1 * (g.log_m + 1) == 3
    t2 = DecisionTree(2, DQuery(1, DQuery(2, DLeaf(0), DLeaf(1)), DLeaf(1)))
    assert dt_to_protocol(t2, g).cost == 2 * 3


def test_dt_to_protocol_agrees_with_composed_eval():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.choice([(1, 2), (2, 2), (2, 4)])
        g = G(n, m)
        t = random_decision_tree(rng, n, 2)
        pt = dt_to_protocol(t, g)
        for xs in g.alice_domain():
            for ys in g.bob_domain():
                z = compose_eval(g, xs, ys)
                assert run_protocol(pt, xs, ys)[1] == dt_eval(t, z)[0]


def test_randomized_wrappers_validate():
    g = G(1, 2)
    with pytest.raises(DomainError):
        RandomizedProtocol([(Fraction(1, 2), const_protocol(g, 1))])
    rp = RandomizedProtocol([(Fraction(1, 2), const_protocol(g, 1)),
                             (Fraction(1, 2), const_protocol(g, 0))])
    assert rp.G == g


def test_rdt_output_dist():
    t1 = DecisionTree(1, DLeaf(1))
    t2 = DecisionTree(1, DQuery(1, DLeaf(0), DLeaf(1)))
    rdt = RandomizedDecisionTree(1, [(Fraction(1, 4), t1), (Fraction(3, 4), t2)])
    assert rdt.output_dist((0,)) == {1: Fraction(1, 4), 0: Fraction(3, 4)}
    assert rdt.output_dist((1,)) == {1: Fraction(1)}


# --- serialization ---

def test_protocol_serialization_roundtrip():
    rng = random.Random(42)
    for _ in range(10):
        n, m = rng.choice([(1, 2), (2, 2), (1, 4)])
        g = G(n, m)
        pt = random_protocol(rng, g, 3)
        d = protocol_to_dict(pt)
        back = protocol_from_dict(d)
        for xs in g.alice_domain():
            for ys in g.bob_domain():
                assert run_protocol(pt, xs, ys) == run_protocol(back, xs, ys)
        assert protocol_to_dict(back) == d


def test_bitfn_serialization_roundtrip():
    g = G(1, 4)
    pt = ProtocolTree(g, PNode(BOB, BitFn(1, 2, 4), PLeaf(0), PLeaf(1)))
    back = protocol_from_dict(protocol_to_dict(pt))
    for ys in g.bob_domain():
        assert run_protocol(back, (1,), ys) == run_protocol(pt, (1,), ys)


def test_dt_serialization_roundtrip():
    rng = random.Random(43)
    for _ in range(10):
        t = random_decision_tree(rng, 2, 2, allow_bot=True)
        d = dt_to_dict(t)
        back = dt_from_dict(d)
        for z in itertools.product((0, 1), repeat=2):
            assert dt_eval(t, z) == dt_eval(back, z)
        assert dt_to_dict(back) == d
