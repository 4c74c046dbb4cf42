"""Protocol trees, refinement, decision trees, and conversion tests."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftsim.core import (
    BOT,
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    PartialAssignment,
    bob_size,
    compose_eval,
    is_structured,
)
from liftsim.errors import DomainError, ResourceError
from liftsim.fixtures import bob_first_fixture, sweep_family
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


def alice_eq(G_, i, val):
    """Alice announces [x_i == val]."""
    return TableFn({xs: int(xs[i - 1] == val) for xs in G_.alice_domain()})


def const_protocol(G_, value):
    return ProtocolTree(G_, PLeaf(value))


def one_bit_fixture(m=2):
    """Alice announces [x_1 = 1], then leaves 0 / 1."""
    g = G(1, m)
    root = PNode(ALICE, alice_eq(g, 1, 1), PLeaf(0), PLeaf(1))
    return ProtocolTree(g, root)


def random_protocol(rng, G_, max_depth):
    """Random tree shapes, random extensional maps, random leaf bits."""
    bob_domain = list(G_.bob_domain())
    alice_domain = list(G_.alice_domain())

    def build(d):
        if d >= max_depth or rng.random() < 0.25:
            return PLeaf(rng.randint(0, 1))
        if rng.random() < 0.5:
            fn = TableFn({xs: rng.randint(0, 1) for xs in alice_domain})
            return PNode(ALICE, fn, build(d + 1), build(d + 1))
        fn = TableFn({ys: rng.randint(0, 1) for ys in bob_domain})
        return PNode(BOB, fn, build(d + 1), build(d + 1))

    root = build(0)
    if isinstance(root, PLeaf):
        root = PNode(ALICE, TableFn({xs: rng.randint(0, 1) for xs in alice_domain}),
                     PLeaf(rng.randint(0, 1)), PLeaf(rng.randint(0, 1)))
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
    bob_fn = TableFn({ys: ys[0] & 1 for ys in g.bob_domain()})  # last bit of y
    root = PNode(ALICE, alice_eq(g, 1, 1),
                 PNode(BOB, bob_fn, PLeaf("a"), PLeaf("b")),
                 PNode(BOB, bob_fn, PLeaf("c"), PLeaf("d")))
    pt = ProtocolTree(g, root)
    assert run_protocol(pt, (1,), (0b01,)) == ((1, 1), "d")
    assert run_protocol(pt, (2,), (0b10,)) == ((0, 0), "a")


def test_protocol_totality_validated():
    g = G(1, 2)
    with pytest.raises(DomainError):
        ProtocolTree(g, PNode(ALICE, TableFn({(1,): 0}), PLeaf(0), PLeaf(1)))


@pytest.mark.parametrize("owner, table", [
    (ALICE, {(1,): 0, (3,): 1}),                     # (2,) missing, (3,) off [2]
    (BOB, {(0,): 0, (1,): 1, (2,): 1, (4,): 0}),     # (3,) missing, (4,) off 2 bits
])
def test_table_keyed_off_the_domain_refused(owner, table):
    """A table of the right size must still be keyed by its owner's inputs:
    refine reads an Alice table's 1-inputs and a Bob table's 1-mask, so an
    input missing from the table would otherwise be read as a 0."""
    with pytest.raises(DomainError, match="not keyed by"):
        ProtocolTree(G(1, 2), PNode(owner, TableFn(table), PLeaf(0), PLeaf(1)))


def test_leaf_rectangles_zero_comm():
    g = G(1, 2)
    rects = leaf_rectangles(const_protocol(g, 1))
    assert set(rects) == {()}
    assert rects[()].x_size == 2 and rects[()].y_size == 4


def test_leaf_rectangles_one_bit():
    rects = leaf_rectangles(one_bit_fixture())
    assert rects[(1,)].X == {(1,)} and rects[(0,)].X == {(2,)}
    assert rects[(1,)].y_size == 4 and rects[(0,)].y_size == 4


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


def test_root_bob_set_one_rule():
    """refine and leaf_rectangles start from one Bob set: the cube when every
    Bob map is a bit readout, whatever the budget; else the explicit domain,
    refused when its 2^(nm) tuples exceed the budget."""
    readouts = bob_first_fixture(4)
    assert isinstance(refine(readouts, D, pair_budget=4).root.rect.Y, BobCube)
    assert isinstance(leaf_rectangles(readouts, pair_budget=4)[(0, 1)].Y, BobCube)
    g = G(1, 4)
    table = ProtocolTree(g, PNode(BOB, TableFn({ys: ys[0] & 1 for ys in g.bob_domain()}),
                                  PLeaf(0), PLeaf(1)))
    for build in (lambda b: refine(table, D, pair_budget=b).root.rect,
                  lambda b: leaf_rectangles(table, pair_budget=b)[(1,)]):
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
            assert child.rect.x_size == 1 and child.rect.y_size == 2


def test_refine_bob_only_keeps_rho_free():
    g = G(1, 2)
    bob_fn = TableFn({ys: ys[0] & 1 for ys in g.bob_domain()})
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
    n, m = shape
    g = G(n, m)
    pt = random_protocol(random.Random(proto_seed), g, depth)
    rp = refine(pt, D)
    for xs in g.alice_domain():
        for ys in g.bob_domain():
            t, v = run_protocol(pt, xs, ys)
            rt, rv = run_refined(rp, xs, ys)
            assert v == rv
            assert project_transcript(rt) == t


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
        assert node.potential == Fraction(2 ** (g.log_m * free), len(node.rect.X))
        if not isinstance(node, RAlice):
            continue
        for parts in node.branches.values():
            for part in parts or []:
                assert part.potential == Fraction(
                    2 ** (g.log_m * (free - len(part.coords))), len(part.X))
                for child in part.s_children.values():
                    assert child is None or child.potential == part.potential


def test_refined_iteration_nodes_are_structured():
    rng = random.Random(102)
    for _ in range(15):
        n, m = rng.choice([(1, 2), (2, 2)])
        g = G(n, m)
        rp = refine(random_protocol(rng, g, 3), D)
        for node in rp.iteration_nodes():
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
            fn = TableFn({ys: fn(ys) for ys in g.bob_domain()})
        return PNode(node.owner, fn, copy(node.zero), copy(node.one))

    return ProtocolTree(g, copy(pt.root))


def _assert_same_refinement(a, b):
    assert type(a) is type(b)
    assert a.rect.X == b.rect.X and a.rho == b.rho
    assert a.rect.Y.materialize() == b.rect.Y.materialize()
    assert a.def_y == b.def_y and a.potential == b.potential
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
            assert ([(p.order, p.coords, p.alpha, p.X, p.delta_ratio) for p in ba]
                    == [(p.order, p.coords, p.alpha, p.X, p.delta_ratio) for p in bb])
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


def random_decision_tree(rng, n, depth, allow_bot=False):
    def build(avail, d):
        if d >= depth or not avail or rng.random() < 0.3:
            vals = [0, 1, BOT] if allow_bot else [0, 1]
            return DLeaf(rng.choice(vals))
        c = rng.choice(sorted(avail))
        rest = avail - {c}
        return DQuery(c, build(rest, d + 1), build(rest, d + 1))

    return DecisionTree(n, build(frozenset(range(1, n + 1)), 0))


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
