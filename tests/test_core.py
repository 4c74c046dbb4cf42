"""Gadget, composition, slice, and structured-rectangle tests."""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liftsim.core import (
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    OuterFunction,
    PartialAssignment,
    Rect,
    bit_at,
    compose_eval,
    is_structured,
    iter_slice,
    slice_count,
)
from liftsim.analysis import replay_transcript_dist
from liftsim.errors import DomainError, ResourceError
from liftsim.protocol import BOB, PLeaf, ProtocolTree, TableFn, load_fixture, refine

D = Fraction(9, 10)


def G(n, m):
    return ComposedInstance(n, m)


# --- gadget evaluation ---

def test_gadget_eval_examples():
    assert compose_eval(G(1, 4), (2,), ("0110",)) == (1,)
    assert compose_eval(G(1, 2), (1,), ("00",)) == (0,)
    assert compose_eval(G(1, 4), (4,), ("0001",)) == (1,)


def test_gadget_eval_domain_errors():
    g = G(1, 4)
    with pytest.raises(DomainError):
        compose_eval(g, (5,), ("0000",))
    with pytest.raises(DomainError):
        compose_eval(g, (0,), ("0000",))
    # a string block has exactly m characters, each 0 or 1: a short one is
    # not zero-padded, and a stray digit is no bare ValueError
    for y in ("000", "00000", "0102"):
        with pytest.raises(DomainError, match="is not a 4-bit string"):
            compose_eval(g, (1,), (y,))
    for m in (3, 1):
        with pytest.raises(DomainError, match=f"m a power of 2, m >= 2; got {m}$"):
            ComposedInstance(1, m)


@pytest.mark.parametrize("key", ["\u0661\u0660", "1", "011", "0 ", " 1", "+1", "1_0"])
def test_outer_function_keys_are_ascii_bits(key):
    """A values key is exactly n ASCII 0/1 characters: int() would read the
    Arabic-Indic digits of "\u0661\u0660" as 1, 0 and merge them with "10"."""
    with pytest.raises(DomainError, match="is not 2 characters of 0/1"):
        OuterFunction.from_dict({"format": "outer_function", "n": 2,
                                 "values": {"01": 0, key: 1, "10": 0}})
    f = OuterFunction.from_dict({"format": "outer_function", "n": 2,
                                 "values": {"01": 0, "10": 1}})
    assert f.values == (((0, 1), 0), ((1, 0), 1))


@pytest.mark.parametrize("n", ['"2"', "null"])
def test_outer_function_bad_n_is_named_before_the_keys(tmp_path, n):
    """A record whose n is not an int is refused for its n, with the message
    the constructor gives, not for a good key read against the bad n."""
    path = tmp_path / "f.json"
    path.write_text('{"format": "outer_function", "n": %s, "values": {"01": 0}}' % n)
    with pytest.raises(DomainError) as exc:
        load_fixture(path)
    got = {'"2"': "'2'", "null": "None"}[n]
    assert f"outer function needs an integer n >= 1, got {got}" in str(exc.value)
    assert "'01'" not in str(exc.value)


def test_bit_order_is_left_to_right():
    # "0110" stored as 6: bit 1 is the leftmost character.
    assert [bit_at(6, p, 4) for p in (1, 2, 3, 4)] == [0, 1, 1, 0]


# --- composition ---

def test_compose_eval_examples():
    assert compose_eval(G(2, 2), (1, 2), ("10", "01")) == (1, 1)
    assert compose_eval(G(1, 4), (3,), ("0000",)) == (0,)
    assert compose_eval(G(2, 2), (2, 1), ("01", "01")) == (1, 0)


def test_compose_eval_dimension_mismatch():
    with pytest.raises(DomainError):
        compose_eval(G(2, 2), (1,), ("10", "01"))
    with pytest.raises(DomainError):
        compose_eval(G(2, 2), (1, 1), ("10",))


# --- slices ---

def test_slice_enumerate_n1_m2():
    got = {(xs, ys) for xs, ys in iter_slice(G(1, 2), (0,))}
    want = {((1,), (0b00,)), ((1,), (0b01,)), ((2,), (0b00,)), ((2,), (0b10,))}
    assert got == want
    assert len(got) == 4  # m * 2^(m-1)
    assert len(list(iter_slice(G(1, 2), (1,)))) == 4


def test_slice_counts_product():
    g = G(2, 2)
    assert slice_count(g, (0, 0)) == 16
    assert len(list(iter_slice(g, (0, 0)))) == 16


def test_slices_partition_full_domain():
    for n, m in [(1, 2), (1, 4), (2, 2)]:
        g = G(n, m)
        seen = set()
        total = 0
        for z in itertools.product((0, 1), repeat=n):
            sl = list(iter_slice(g, z))
            assert len(sl) == slice_count(g, z)
            for pair in sl:
                assert pair not in seen
                seen.add(pair)
            total += len(sl)
        assert total == g.alice_size * g.bob_size


def test_slice_sizes_equal_across_z():
    g = G(2, 4)
    sizes = {slice_count(g, z) for z in itertools.product((0, 1), repeat=2)}
    assert sizes == {g.m ** 2 * 2 ** (2 * (g.m - 1))}


def test_slice_budget_error_names_requirement():
    """The slice replay checks the budget before it enumerates the slice."""
    rp = refine(ProtocolTree(G(1, 16), PLeaf(0)))
    with pytest.raises(ResourceError) as err:
        replay_transcript_dist(rp, (0,), pair_budget=100)
    assert err.value.required == 16 * 2 ** 15
    assert err.value.budget == 100


# --- structured rectangles ---

def test_structured_full_rect():
    g = G(2, 2)
    rect = Rect(g.full_X(), g.full_Y())
    assert is_structured(rect, PartialAssignment.free_everywhere(2), D, g)


def test_structured_inconsistent_fixed_output():
    g = G(1, 2)
    rect = Rect({(1,)}, ExplicitBobSet(1, 2, {(0b10,), (0b11,)}))  # y_1 = 1 always
    assert not is_structured(rect, PartialAssignment((0,)), D, g)


def test_structured_consistent_fixed_output():
    g = G(1, 2)
    rect = Rect({(1,)}, ExplicitBobSet(1, 2, {(0b00,), (0b01,)}))  # y_1 = 0 always
    assert is_structured(rect, PartialAssignment((0,)), D, g)


def test_structured_requires_constant_on_fixed():
    g = G(1, 2)
    rect = Rect({(1,), (2,)}, ExplicitBobSet(1, 2, {(0b00,)}))
    assert not is_structured(rect, PartialAssignment((0,)), D, g)


def test_structured_reduces_to_density_when_all_free():
    from liftsim.entropy import SetVar, is_blockwise_dense

    g = G(1, 4)
    rng = random.Random(5)
    rho = PartialAssignment.free_everywhere(1)
    for _ in range(40):
        X = {(x,) for x in rng.sample(range(1, 5), rng.randint(1, 4))}
        rect = Rect(X, g.full_Y())
        sv = SetVar(X, 4)
        assert is_structured(rect, rho, D, g) == is_blockwise_dense(sv, D)


def test_structured_empty_rect_rejected():
    g = G(1, 2)
    with pytest.raises(DomainError):
        is_structured(Rect(set(), ExplicitBobSet(1, 2, {(0,)})),
                      PartialAssignment((None,)), D, g)


# --- partial assignments ---

def test_partial_assignment_basics():
    rho = PartialAssignment((0, None, 1))
    assert str(rho) == "0*1"
    assert rho.free == (2,)
    assert rho.fix == (1, 3)
    assert rho.consistent((0, 1, 1))
    assert not rho.consistent((1, 1, 1))
    rho2 = rho.assign((2,), (1,))
    assert str(rho2) == "011"
    with pytest.raises(DomainError):
        rho.assign((1,), (0,))


def test_partial_assignment_keeps_free_and_fix():
    """free and fix are listed when it is built and kept; equal entries are
    an equal assignment, with the same hash."""
    rho, fresh = PartialAssignment((None, 1, None)), PartialAssignment((None, 1, None))
    assert rho.free is rho.free == (1, 3) and rho.fix is rho.fix == (2,)
    assert rho == fresh and hash(rho) == hash(fresh)
    assert {rho: 1}[fresh] == 1 and rho != PartialAssignment((None, 0, None))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.entries = (0, 0, 0)


@settings(max_examples=200, deadline=None, database=None)
@given(entries=st.lists(st.sampled_from((0, 1, None)), min_size=1, max_size=6),
       data=st.data())
def test_assign_is_the_checked_assignment(entries, data):
    """rho.assign(I, bits), which checks only the blocks and bits it writes,
    is the assignment the checked constructor builds from the same entries:
    entries, free, fix, equality and hash.  It refuses a block already
    fixed, a block out of range and a value that is not a bit."""
    rho = PartialAssignment(entries)
    I = data.draw(st.permutations(rho.free))
    I = I[:data.draw(st.integers(0, len(I)))]
    bits = data.draw(st.lists(st.sampled_from((0, 1)), min_size=len(I), max_size=len(I)))
    written = list(entries)
    for i, b in zip(I, bits):
        written[i - 1] = b
    child, checked = rho.assign(I, bits), PartialAssignment(written)
    assert (child.entries, child.free, child.fix) == (checked.entries, checked.free, checked.fix)
    assert child == checked and hash(child) == hash(checked)
    if rho.fix:
        with pytest.raises(DomainError, match="already fixed"):
            rho.assign((data.draw(st.sampled_from(rho.fix)),), (0,))
    for i in (0, -1, len(entries) + 1):
        with pytest.raises(DomainError, match="outside"):
            rho.assign((i,), (0,))
    if rho.free:
        bad = data.draw(st.sampled_from((2, -1, None, "1", Fraction(1, 2))))
        with pytest.raises(DomainError, match="is not a bit"):
            rho.assign((data.draw(st.sampled_from(rho.free)),), (bad,))


# --- cube Bob sets agree with explicit ones ---

def test_cube_matches_explicit_small():
    n, m = 2, 4
    g = G(n, m)
    cube = BobCube(n, m, ())
    assert cube.size == g.bob_size
    explicit = g.full_Y()
    assert cube.materialize() == explicit.materialize() == frozenset(g.bob_domain())

    c1 = cube.split(((1, 2),))["1"]
    e1 = explicit.split(((1, 2),))["1"]
    assert c1.materialize() == e1.materialize()
    assert c1.size == e1.size

    z0, o1 = c1.split(((2, 3),)).values()
    ez, eo = e1.split(((2, 3),)).values()
    assert z0.materialize() == ez.materialize() and o1.materialize() == eo.materialize()

    assert c1.split(((1, 2),))["0"] is None
    assert e1.split(((1, 2),))["0"] is None

    assert c1.deficiency() == 2 ** 1
    assert e1.deficiency() == 2 ** 1


def test_cube_slice_counts_match_explicit():
    n, m = 2, 4
    g = G(n, m)
    rng = random.Random(17)
    cube = BobCube(n, m, ())
    for _ in range(30):
        pins = {}
        for _ in range(rng.randint(0, 4)):
            pins[(rng.randint(1, n), rng.randint(1, m))] = rng.randint(0, 1)
        c = cube.split(tuple(pins))["".join(map(str, pins.values()))]
        if c is None:
            continue
        e = ExplicitBobSet(n, m, c.materialize())
        xs = tuple(rng.randint(1, m) for _ in range(n))
        z = tuple(rng.randint(0, 1) for _ in range(n))
        counts = c.slice_counts({xs})
        assert counts == e.slice_counts({xs}) == _brute_slice_counts(g, {xs}, e.materialize())
        assert counts.get(z, 0) == sum(
            1 for ys in e.materialize() if compose_eval(g, xs, ys) == z)


def _brute_slice_counts(g, X, Ys) -> dict:
    return dict(Counter(compose_eval(g, xs, ys) for xs in X for ys in Ys))


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), nm=st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]))
def test_slice_counts_cube_explicit_brute(data, nm):
    """A cube's closed-form slice_counts, the explicit set's tally and a brute
    tally of G over X x Y agree on every z, and sum to |X| * |Y|.  At n = 3
    a pin read against the wrong block's column shows in the z's order."""
    n, m = nm
    spots = st.tuples(st.integers(1, n), st.integers(1, m))
    pins = data.draw(st.dictionaries(spots, st.integers(0, 1), max_size=2 * n))
    rows = st.tuples(*[st.integers(1, m)] * n)
    X = data.draw(st.frozensets(rows, max_size=m ** n))
    cube = BobCube(n, m, tuple(pins.items()))
    Ys = cube.materialize()
    counts = cube.slice_counts(X)
    assert counts == ExplicitBobSet(n, m, Ys).slice_counts(X)
    assert counts == _brute_slice_counts(G(n, m), X, Ys)
    assert sum(counts.values()) == len(X) * len(Ys)


@st.composite
def _explicit_rect(draw):
    """(n, m, X, Ys) with n <= 3, m in {2, 4}: any rows, any nonempty Bob set."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 4]))
    X = draw(st.frozensets(st.tuples(*[st.integers(1, m)] * n), max_size=12))
    Ys = draw(st.frozensets(st.tuples(*[st.integers(0, 2 ** m - 1)] * n),
                            min_size=1, max_size=40))
    return n, m, X, Ys


@settings(max_examples=200, deadline=None, database=None)
@given(_explicit_rect())
@example((3, 4, frozenset(), frozenset({(9, 0, 15)})))
@example((2, 2, frozenset({(1, 2), (2, 2), (2, 1)}), frozenset({(2, 1)})))
@example((3, 4, frozenset({(4, 1, 2)}), frozenset({(1, 8, 3), (15, 7, 0)})))
def test_explicit_slice_counts_brute(case):
    """The explicit set's column tally equals a brute tally of G over X x Y,
    empty X and one-element Y included."""
    n, m, X, Ys = case
    counts = ExplicitBobSet(n, m, Ys).slice_counts(X)
    assert counts == _brute_slice_counts(G(n, m), X, Ys)
    assert sum(counts.values()) == len(X) * len(Ys)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 2), m=st.sampled_from([2, 4]))
def test_split_cube_matches_explicit(data, n, m):
    """cube.split(P) and the explicit set's split(P) agree key by key, the
    pieces partition Y, and every element of piece s reads s at P."""
    spots = st.tuples(st.integers(1, n), st.integers(1, m))
    pins = data.draw(st.dictionaries(spots, st.integers(0, 1), max_size=3))
    P = tuple(data.draw(st.lists(spots, min_size=1, max_size=3, unique=True)))
    cube = BobCube(n, m, tuple(pins.items()))
    explicit = ExplicitBobSet(n, m, cube.materialize())
    cs, es = cube.split(P), explicit.split(P)
    keys = ["".join(bits) for bits in itertools.product("01", repeat=len(P))]
    assert list(cs) == list(es) == keys
    for s in keys:
        assert (cs[s] is None) == (es[s] is None)
        if cs[s] is not None:
            assert cs[s].materialize() == es[s].materialize()
            assert cs[s].size == es[s].size
    pieces = [piece.materialize() for piece in es.values() if piece is not None]
    assert sum(map(len, pieces)) == explicit.size
    assert frozenset().union(*pieces) == explicit.materialize()
    for s, piece in es.items():
        for ys in (piece.materialize() if piece is not None else ()):
            assert "".join(str(bit_at(ys[b - 1], p, m)) for b, p in P) == s
    # both types refuse a pair out of range, or repeated, the same way
    bad = data.draw(st.sampled_from([(0, 1), (n + 1, 1), (1, 0), (1, m + 1), P[0]]))
    for Y in (cube, explicit):
        with pytest.raises(DomainError, match="repeat or fall out of range"):
            Y.split(P + (bad,))


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 3), m=st.sampled_from([2, 4, 8]))
def test_cube_split_is_the_checked_cube(data, n, m):
    """Each subcube split builds without __post_init__ equals
    BobCube(n, m, fixed + new) built through it, pins and hash alike: a
    position Y already pins is kept once, an s that conflicts with a pin is
    None where the constructor refuses it, and a position out of range is
    still refused."""
    spots = st.tuples(st.integers(1, n), st.integers(1, m))
    pins = data.draw(st.dictionaries(spots, st.integers(0, 1), max_size=4))
    cube = BobCube(n, m, tuple(pins.items()))
    # positions partly drawn from the pinned ones, so that pins repeat
    choice = st.sampled_from(sorted(pins)) | spots if pins else spots
    P = tuple(data.draw(st.lists(choice, min_size=1, max_size=3, unique=True)))
    for s, piece in cube.split(P).items():
        new = tuple(zip(P, map(int, s)))
        if any(pins.get(key, b) != b for key, b in new):
            assert piece is None
            with pytest.raises(DomainError, match="conflicting"):
                BobCube(n, m, cube.fixed + new)
            continue
        checked = BobCube(n, m, cube.fixed + new)
        assert piece == checked and hash(piece) == hash(checked)
        assert piece.fixed == checked.fixed == tuple(sorted({**pins, **dict(new)}.items()))
        assert piece.size == 2 ** (n * m - len(set(pins) | set(P)))
    bad = data.draw(st.sampled_from([(0, 1), (n + 1, 1), (1, 0), (1, m + 1)]))
    with pytest.raises(DomainError, match="out of range"):
        cube.split(P + (bad,))


def test_cube_split_keeps_a_repeated_pin_once():
    """Cutting a cube at a pinned position and a free one: the two keys that
    disagree with the pin are None, the others keep the pin once."""
    cube = BobCube(1, 4, (((1, 2), 1),))
    out = cube.split(((1, 2), (1, 3)))
    assert out["00"] is None and out["01"] is None
    assert out["10"].fixed == (((1, 2), 1), ((1, 3), 0))
    assert out["11"].fixed == (((1, 2), 1), ((1, 3), 1))
    assert out["11"] == BobCube(1, 4, (((1, 3), 1), ((1, 2), 1), ((1, 2), 1)))


def _read(ys, blk, pos, m) -> int:
    """Bit pos (1-based, left to right) of block blk of the Bob input ys."""
    return (ys[blk - 1] >> (m - pos)) & 1


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), nm=st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]))
def test_explicit_set_matches_tuple_reference(data, nm):
    """Every query of an explicit Bob set equals the same query on a frozenset
    of tuples, written here from the definitions: sizes, deficiency,
    membership, decoding, a split at distinct positions, a table map's split
    and the slice counts.  The same tuples in another order build an equal
    set with an equal hash."""
    n, m = nm
    domain = list(itertools.product(range(2 ** m), repeat=n))
    drawn = data.draw(st.frozensets(st.sampled_from(domain), max_size=len(domain)))
    ref = frozenset(domain) - drawn if data.draw(st.booleans()) else drawn
    order = data.draw(st.permutations(sorted(ref)))
    Y = ExplicitBobSet(n, m, order)
    assert Y == ExplicitBobSet(n, m, reversed(order))
    assert hash(Y) == hash(ExplicitBobSet(n, m, reversed(order)))
    assert Y.size == len(ref)
    assert Y.materialize() == ref
    assert [ys for ys in domain if Y.contains(ys)] == [ys for ys in domain if ys in ref]
    if ref:
        assert Y.deficiency() == Fraction(2 ** (n * m), len(ref))
    else:
        with pytest.raises(DomainError):
            Y.deficiency()

    def same(piece, elements):
        return piece is None if not elements else piece.materialize() == elements

    spots = st.tuples(st.integers(1, n), st.integers(1, m))
    P = tuple(data.draw(st.lists(spots, max_size=min(3, n * m), unique=True)))
    pieces = Y.split(P)
    assert list(pieces) == ["".join(b) for b in itertools.product("01", repeat=len(P))]
    for s, piece in pieces.items():
        assert same(piece, frozenset(ys for ys in ref
                                     if "".join(str(_read(ys, b, p, m)) for b, p in P) == s))

    bits = data.draw(st.text("01", min_size=len(domain), max_size=len(domain)))
    table = dict(zip(domain, map(int, bits)))
    zero, one = Y.split_fn(TableFn(G(n, m), BOB, bits))
    assert same(zero, frozenset(ys for ys in ref if table[ys] == 0))
    assert same(one, frozenset(ys for ys in ref if table[ys] == 1))

    X = data.draw(st.frozensets(st.tuples(*[st.integers(1, m)] * n), max_size=8))
    tally = Counter(tuple(_read(ys, i, x, m) for i, x in enumerate(xs, 1))
                    for xs in X for ys in ref)
    counts = Y.slice_counts(X)
    assert counts == tally and all(counts.values())


def test_cube_contains_and_pinned():
    c = BobCube(1, 4, (((1, 2), 1),))
    assert c.contains((0b0100,))
    assert not c.contains((0b0000,))
    assert dict(c.fixed).get((1, 2)) == 1 and dict(c.fixed).get((1, 3)) is None
    # a repeated pin is one constraint
    assert BobCube(1, 4, (((1, 2), 1), ((1, 2), 1))) == c
    assert c.size == len(c.materialize()) == 8
    with pytest.raises(ResourceError) as err:
        c.materialize(pair_budget=7)
    assert (err.value.required, err.value.budget) == (8, 7)


def test_materialize_refuses_past_the_budget_alike():
    """A cube and the explicit set of the same elements list them at a
    budget of their size, and refuse one short of it, each naming its kind."""
    cube = BobCube(2, 2, (((1, 2), 1),))
    explicit = ExplicitBobSet(2, 2, cube.materialize())
    for Y, what in ((cube, "cube materialization"), (explicit, "explicit set materialization")):
        assert Y.materialize(pair_budget=Y.size) == explicit.materialize()
        with pytest.raises(ResourceError) as err:
            Y.materialize(pair_budget=Y.size - 1)
        assert (err.value.what, err.value.required, err.value.budget) == (what, 8, 7)


@pytest.mark.parametrize("ys", [(5,), (5, 0, 0), (0b10000, 0), (0, -1)])
def test_contains_refuses_input_off_the_domain(ys):
    """A wrong number of blocks, or a block that is not an m-bit string, is
    refused by both Bob set kinds alike."""
    for Y in (BobCube(2, 4, ()), G(2, 4).full_Y()):
        with pytest.raises(DomainError, match="not 2 blocks of 4-bit strings"):
            Y.contains(ys)


def test_structured_with_cube_y():
    g = G(1, 4)
    cube = BobCube(1, 4, (((1, 2), 0),))
    rect = Rect({(2,)}, cube)
    assert is_structured(rect, PartialAssignment((0,)), D, g)
    assert not is_structured(rect, PartialAssignment((1,)), D, g)
    # unpinned position: outputs vary, not consistent with a fixed rho
    rect2 = Rect({(3,)}, cube)
    assert not is_structured(rect2, PartialAssignment((0,)), D, g)
