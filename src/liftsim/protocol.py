"""Protocol trees, decision trees, the refinement transform, and conversions.

A protocol tree is a rooted binary tree whose internal nodes belong to Alice
or Bob and map the owner's full input to the bit sent; leaves carry output
values.  The refinement transform rebuilds such a tree so that after every
Alice bit she also announces which part of a density-restoring partition her
input fell into, and Bob pins the pointed-to bits; the rectangle at every
iteration stays structured with respect to the running partial assignment.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import entropy
from .core import (
    BOT,
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    OuterFunction,
    PAIR_BUDGET_DEFAULT,
    PartialAssignment,
    Rect,
    bit_at,
)
from .entropy import as_fraction
from .errors import DomainError, ResourceError, power_of_two

ALICE = "alice"
BOB = "bob"
DEPTH_CAP = 32           # deepest protocol tree accepted
TABLE_BUDGET = 2 ** 20   # largest Bob domain written out as a table


# --- node send-functions ---

class TableFn:
    """Extensional input -> bit map over G's `owner` inputs, stored as a
    fixture stores it: one '0'/'1' string in `alice_domain`/`bob_domain`
    order.  Its other views are read from the string on first use."""

    def __init__(self, G: ComposedInstance, owner: str, bits):
        size = power_of_two(G.n * (G.log_m if owner == ALICE else G.m))
        if not isinstance(bits, str) or len(bits) != size or bits.strip("01"):
            got = f"{len(bits)} characters" if isinstance(bits, str) else type(bits).__name__
            raise DomainError(f"{owner} table needs {size} '0'/'1' bits, got {got}")
        self.G = G
        self.owner = owner
        self.bits = bits
        self._table = None  # input -> bit, built on the first call

    def _domain(self):
        return self.G.alice_domain() if self.owner == ALICE else self.G.bob_domain()

    def __call__(self, inp):
        if self._table is None:
            self._table = dict(zip(self._domain(), map(int, self.bits)))
        return self._table[tuple(inp)]

    @cached_property
    def ones(self) -> frozenset:
        """The inputs mapped to 1, listed on first use and kept."""
        return frozenset(itertools.compress(self._domain(), map("1".__eq__, self.bits)))

    @cached_property
    def bob_mask(self) -> int:
        """The inputs mapped to 1 as an ExplicitBobSet mask, whose index
        order is the Bob domain's: bit i is the string's i-th character."""
        return int(self.bits[::-1], 2)


class BitFn:
    """Bob reads a single bit: position `pos` of block `block`."""

    def __init__(self, block: int, pos: int, m: int):
        self.block = block
        self.pos = pos
        self.m = m

    def __call__(self, ys):
        return bit_at(ys[self.block - 1], self.pos, self.m)


@dataclass
class PLeaf:
    value: object


@dataclass
class PNode:
    owner: str          # ALICE | BOB
    fn: object          # TableFn | BitFn (BitFn for Bob only)
    zero: object
    one: object

    def child(self, b):
        return self.one if b else self.zero


class ProtocolTree:
    """A deterministic protocol over the domain of G; cost is tree depth."""

    def __init__(self, G: ComposedInstance, root):
        self.G = G
        self.root = root
        self._validate()

    def _validate(self):
        depth = 0
        bob_tables = False
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            depth = max(depth, d)
            if isinstance(node, PLeaf):
                continue
            if node.owner not in (ALICE, BOB):
                raise DomainError(f"unknown owner {node.owner!r}")
            fn = node.fn
            if isinstance(fn, TableFn):
                if (fn.G, fn.owner) != (self.G, node.owner):
                    raise DomainError(f"{node.owner} node holds a table built for "
                                      f"{fn.owner} on {fn.G}")
                bob_tables = bob_tables or node.owner == BOB
            elif isinstance(fn, BitFn):
                if node.owner != BOB:
                    raise DomainError("bit-readout maps are Bob-side only")
                if not (type(fn.block) is type(fn.pos) is int
                        and 1 <= fn.block <= self.G.n and 1 <= fn.pos <= self.G.m):
                    raise DomainError("bit-readout map out of range")
            else:
                raise DomainError("node map must be a TableFn or BitFn")
            stack.append((node.zero, d + 1))
            stack.append((node.one, d + 1))
        if depth > DEPTH_CAP:
            raise DomainError(f"protocol depth {depth} exceeds cap {DEPTH_CAP}")
        self.depth = depth
        self.bob_tables = bob_tables   # some Bob map is a table: Y is explicit

    @property
    def cost(self) -> int:
        return self.depth


def run_protocol(pt: ProtocolTree, xs, ys):
    """Deterministic transcript (tuple of bits) and the reached leaf's value."""
    xs = tuple(xs)
    ys = tuple(ys)
    pt.G.check_alice(xs)
    pt.G.check_bob(ys)
    node = pt.root
    transcript = []
    while not isinstance(node, PLeaf):
        b = node.fn(xs if node.owner == ALICE else ys)
        transcript.append(b)
        node = node.child(b)
    return tuple(transcript), node.value


def _split_bob(Y, fn):
    """Y's halves under Bob's map fn; a bit readout splits without calling fn."""
    if isinstance(fn, BitFn):
        return tuple(Y.split(((fn.block, fn.pos),)).values())
    return Y.split_fn(fn)


def _root_bob_set(pt: ProtocolTree, pair_budget: int):
    """Bob's side of the root rectangle: the full cube when every Bob map is a
    bit readout, which never needs Y written out; otherwise the explicit
    domain's mask, refused up front when its 2^(nm) inputs exceed pair_budget."""
    G = pt.G
    return G.full_Y(pair_budget) if pt.bob_tables else BobCube(G.n, G.m, ())


def leaf_rectangles(pt: ProtocolTree, pair_budget: int = PAIR_BUDGET_DEFAULT) -> dict:
    """Map each leaf transcript to the rectangle of inputs reaching it.

    Rectangles are pairwise disjoint and cover the domain; empty ones are kept
    (as empty rectangles) so the partition property is checkable.
    """
    G = pt.G
    out = {}
    empty = ExplicitBobSet._of_bits(G.n, G.m, 0)

    def walk(node, t, X, Y):
        if isinstance(node, PLeaf):
            out[t] = Rect(X, Y if Y is not None else empty)
            return
        if node.owner == ALICE:
            x1 = frozenset(x for x in X if node.fn(x))
            walk(node.zero, t + (0,), X - x1, Y)
            walk(node.one, t + (1,), x1, Y)
        else:
            y0, y1 = (None, None) if Y is None else _split_bob(Y, node.fn)
            walk(node.zero, t + (0,), X, y0)
            walk(node.one, t + (1,), X, y1)

    walk(pt.root, (), G.full_X(pair_budget), _root_bob_set(pt, pair_budget))
    return out


# --- decision trees ---

@dataclass(frozen=True)
class DLeaf:
    value: object  # 0, 1, or BOT


@dataclass(frozen=True)
class DQuery:
    coord: int
    zero: object
    one: object


class DecisionTree:
    def __init__(self, n: int, root):
        self.n = n
        self.root = root
        self.depth = self._validate(root, frozenset(), 0)

    def _validate(self, node, path, d):
        if isinstance(node, DLeaf):
            return d
        if type(node.coord) is not int or not 1 <= node.coord <= self.n:
            raise DomainError(f"query coordinate {node.coord} outside 1..{self.n}")
        if node.coord in path:
            raise DomainError(f"coordinate {node.coord} queried twice on a path")
        path = path | {node.coord}
        return max(self._validate(node.zero, path, d + 1),
                   self._validate(node.one, path, d + 1))


def dt_eval(T: DecisionTree, z):
    """(leaf value, set of queried coordinates)."""
    z = tuple(z)
    if len(z) != T.n:
        raise DomainError("z arity mismatch")
    node = T.root
    queried = set()
    while isinstance(node, DQuery):
        queried.add(node.coord)
        node = node.one if z[node.coord - 1] else node.zero
    return node.value, frozenset(queried)


def _check_weights(components):
    components = [(as_fraction(w), t) for w, t in components]
    if not components or any(w <= 0 for w, _ in components):
        raise DomainError("mixture weights must be positive")
    if sum(w for w, _ in components) != 1:
        raise DomainError("mixture weights must sum to exactly 1")
    return components


class RandomizedProtocol:
    """A rational-weight mixture of deterministic protocols on one domain."""

    def __init__(self, components):
        self.components = _check_weights(components)
        G = self.components[0][1].G
        for _, t in self.components:
            if t.G != G:
                raise DomainError("mixture components must share the input domain")
        self.G = G


class RandomizedDecisionTree:
    def __init__(self, n: int, components):
        self.components = _check_weights(components)
        for _, t in self.components:
            if t.n != n:
                raise DomainError("mixture components must share n")
        self.n = n

    @property
    def depth(self) -> int:
        return max(t.depth for _, t in self.components)

    def output_dist(self, z) -> dict:
        out = {}
        for w, t in self.components:
            v, _ = dt_eval(t, z)
            out[v] = out.get(v, Fraction(0)) + w
        return out


def dt_to_protocol(T, G: ComposedInstance):
    """Simulate a decision tree by a protocol: each query of coordinate i costs
    Alice log m bits (the pointer x_i, high bit first) plus one Bob bit (the
    pointed-to y bit), so cost = depth * (log m + 1) exactly.
    """
    if T.n != G.n:
        raise DomainError("decision tree arity does not match the instance")
    k = G.log_m

    def pointer_chain(dnode, i, t, prefix):
        if t > k:
            alpha = prefix + 1  # prefix holds x_i - 1
            reply = BitFn(i, alpha, G.m)
            return PNode(BOB, reply,
                         build(dnode.zero), build(dnode.one))
        shift = k - t
        fn = TableFn(G, ALICE, "".join(str(((xs[i - 1] - 1) >> shift) & 1)
                                       for xs in G.alice_domain()))
        return PNode(ALICE, fn,
                     pointer_chain(dnode, i, t + 1, prefix << 1),
                     pointer_chain(dnode, i, t + 1, (prefix << 1) | 1))

    def build(dnode):
        if isinstance(dnode, DLeaf):
            return PLeaf(dnode.value)
        return pointer_chain(dnode, dnode.coord, 1, 0)

    return ProtocolTree(G, build(T.root))


# --- refined protocols ---

class _RNode:
    """A refined node's Bob deficiency, read from its rectangle on use."""

    __slots__ = ()

    @property
    def def_y(self) -> Fraction:
        """Y.deficiency(): log2 is D(Y)."""
        return self.rect.Y.deficiency()


@dataclass(slots=True)
class RLeaf(_RNode):
    rect: Rect
    rho: PartialAssignment
    value: object
    free_bits: int        # log m * |free|: the potential 2^free_bits / |X|
    transcript: tuple     # the refined messages that reach this leaf
    _slice_counts: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def slice_counts(self) -> dict:
        """{z: |G^-1(z) ∩ rect|}, computed on first use and kept in
        `_slice_counts`: refinement does not depend on z, so every z's count
        oracle shares one pass."""
        if self._slice_counts is None:
            self._slice_counts = self.rect.Y.slice_counts(self.rect.X)
        return self._slice_counts


@dataclass(slots=True)
class RPart:
    """One density-restoring part inside an Alice iteration."""

    order: int            # 1-based announcement index
    coords: tuple         # I, ascending block labels
    alpha: tuple          # fixed pointer values on I
    X: frozenset
    input_size: int       # |X after bit|
    tail_size: int        # |X^(>=order)|
    s_children: dict      # bit-string over I -> node or None ("impossible to send")
    free_bits: int        # as in RLeaf, with I fixed: each present s-child's


@dataclass(slots=True)
class RAlice(_RNode):
    rect: Rect
    rho: PartialAssignment
    fn: object            # the source node's Alice map
    branches: dict        # bit -> X^b's parts (list of RPart), or None (empty X^b)
    free_bits: int        # as in RLeaf


@dataclass(slots=True)
class RBob(_RNode):
    rect: Rect
    rho: PartialAssignment
    fn: object            # the source node's Bob map
    children: dict        # bit -> node or None (empty Y^b)
    free_bits: int        # as in RLeaf


class RefinedProtocol:
    """The refined form of a protocol: same input/output behavior, but every
    Alice bit is followed by a part announcement and a bit-fixing round, so
    each iteration starts at a structured rectangle."""

    def __init__(self, G, root, source: ProtocolTree):
        self.G = G
        self.root = root
        self.source = source

    def iter_nodes(self):
        """Every node once, depth first from a stack: children are pushed in
        b, part and s order, so the last pushed comes out first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, RBob):
                stack.extend(c for c in node.children.values() if c is not None)
            elif isinstance(node, RAlice):
                stack.extend(c for parts in node.branches.values() if parts is not None
                             for part in parts
                             for c in part.s_children.values() if c is not None)

    def leaves(self) -> tuple:
        """(refined transcript, leaf) pairs, listed on first use and kept."""
        return self._leaves

    @cached_property
    def _leaves(self) -> tuple:
        return tuple((nd.transcript, nd) for nd in self.iter_nodes() if isinstance(nd, RLeaf))

    @cached_property
    def count_cost(self) -> int:
        """The count oracle's cost, `slice_counts_cost` per leaf row, summed
        on first use and kept: it does not depend on z."""
        return sum(len(leaf.rect.X) * leaf.rect.Y.slice_counts_cost
                   for _, leaf in self._leaves)


def refine(pt: ProtocolTree, delta=Fraction(9, 10), *,
           pair_budget: int = PAIR_BUDGET_DEFAULT) -> RefinedProtocol:
    """Build the refined protocol: Bob bits split Y; Alice bits split X, then a
    density-restoring partition of X on the free blocks is announced, and Bob
    pins the pointed-to bits, extending the partial assignment.  Each leaf
    keeps the refined transcript that reaches it.

    Children whose rectangle would be empty are recorded as absent (None): the
    simulator treats an absent bit-fixing child as an impossible message.
    """
    G = pt.G
    delta = entropy.as_rate(delta)
    k = G.log_m
    m = G.m

    def build(v, X, Y, rho, t):
        free_bits = k * len(rho.free)
        rect = Rect(X, Y)
        if isinstance(v, PLeaf):
            return RLeaf(rect, rho, v.value, free_bits, t)
        if v.owner == BOB:
            y0, y1 = _split_bob(Y, v.fn)
            children = {
                0: build(v.zero, X, y0, rho, t + (("b", 0),)) if y0 is not None else None,
                1: build(v.one, X, y1, rho, t + (("b", 1),)) if y1 is not None else None,
            }
            return RBob(rect, rho, v.fn, children, free_bits)
        branches = {}
        x1 = X & v.fn.ones
        for b, Xb in ((0, X - x1), (1, x1)):
            if not Xb:
                branches[b] = None
                continue
            sv = entropy.SetVar(Xb, m, rho.free)
            branches[b] = parts = []
            for dp in entropy.density_restoring_partition(sv, delta):
                sent = t + (("b", b), ("i", dp.order))
                s_children = {
                    s: None if Ys is None else build(
                        v.child(b), dp.support, Ys,
                        rho.assign(dp.coords, map(int, s)), sent + (("s", s),))
                    for s, Ys in Y.split(tuple(zip(dp.coords, dp.alpha))).items()
                }
                parts.append(RPart(dp.order, dp.coords, dp.alpha, dp.support,
                                   dp.input_size, dp.tail_size, s_children,
                                   free_bits - k * len(dp.coords)))
        return RAlice(rect, rho, v.fn, branches, free_bits)

    root = build(pt.root, G.full_X(pair_budget), _root_bob_set(pt, pair_budget),
                 PartialAssignment.free_everywhere(G.n), ())
    return RefinedProtocol(G, root, pt)


def run_refined(rp: RefinedProtocol, xs, ys):
    """Run the refined protocol on a concrete input; value matches the source
    protocol, and dropping i- and s-messages recovers its transcript."""
    xs = tuple(xs)
    ys = tuple(ys)
    G = rp.G
    G.check_alice(xs)
    G.check_bob(ys)
    node = rp.root
    transcript = []
    while not isinstance(node, RLeaf):
        if isinstance(node, RBob):
            b = node.fn(ys)
            transcript.append(("b", b))
            node = node.children[b]
        else:
            b = node.fn(xs)
            part = next(p for p in node.branches[b] if xs in p.X)
            s = "".join(
                str(bit_at(ys[i - 1], a, G.m))
                for i, a in zip(part.coords, part.alpha)
            )
            transcript.extend([("b", b), ("i", part.order), ("s", s)])
            node = part.s_children[s]
    return tuple(transcript), node.value


def project_transcript(refined_transcript) -> tuple:
    """Drop part announcements and bit-fixing messages, keeping the b bits."""
    return tuple(v for kind, v in refined_transcript if kind == "b")


# --- serialization: canonical nested JSON-friendly dicts ---

def _fn_to_dict(fn):
    if isinstance(fn, BitFn):
        return {"kind": "bit", "block": fn.block, "pos": fn.pos}
    return {"kind": "table", "bits": fn.bits}


def _leaf_value_out(v):
    return "bot" if v is BOT else v


def _leaf_value_in(v):
    if v != "bot" and not (type(v) is int and v in (0, 1)):  # True == 1 is no leaf
        raise DomainError(f"leaf value {v!r} is not 0, 1 or \"bot\"")
    return BOT if v == "bot" else v


def protocol_to_dict(pt: ProtocolTree) -> dict:
    G = pt.G
    if pt.bob_tables and G.bob_size > TABLE_BUDGET:
        raise ResourceError("Bob table serialization", G.bob_size, TABLE_BUDGET)

    def node_out(node):
        if isinstance(node, PLeaf):
            return {"leaf": _leaf_value_out(node.value)}
        return {
            "owner": node.owner,
            "fn": _fn_to_dict(node.fn),
            "0": node_out(node.zero),
            "1": node_out(node.one),
        }

    return {
        "format": "protocol",
        "n": G.n,
        "gadget": {"kind": "index", "m": G.m},
        "tree": node_out(pt.root),
    }


def protocol_from_dict(d) -> ProtocolTree:
    if d.get("format") != "protocol":
        raise DomainError("not a protocol record")
    if d["gadget"]["kind"] != "index":
        raise DomainError("only index-gadget protocols are serialized")
    G = ComposedInstance(d["n"], d["gadget"]["m"])

    def fn_in(owner, fd):
        if fd["kind"] == "bit":
            return BitFn(fd["block"], fd["pos"], G.m)
        if fd["kind"] != "table":
            raise DomainError(f"unknown map kind {fd['kind']!r}")
        return TableFn(G, owner, fd["bits"])

    def node_in(nd, depth=0):
        if depth > DEPTH_CAP:  # refused before recursion can exhaust the stack
            raise DomainError(f"protocol nested deeper than the cap {DEPTH_CAP}")
        if "leaf" in nd:
            return PLeaf(_leaf_value_in(nd["leaf"]))
        owner = nd["owner"]
        return PNode(owner, fn_in(owner, nd["fn"]),
                     node_in(nd["0"], depth + 1), node_in(nd["1"], depth + 1))

    return ProtocolTree(G, node_in(d["tree"]))


def dt_to_dict(T: DecisionTree) -> dict:
    def node_out(node):
        if isinstance(node, DLeaf):
            return {"leaf": _leaf_value_out(node.value)}
        return {"query": node.coord, "0": node_out(node.zero), "1": node_out(node.one)}

    return {"format": "decision_tree", "n": T.n, "tree": node_out(T.root)}


def dt_from_dict(d) -> DecisionTree:
    if d.get("format") != "decision_tree":
        raise DomainError("not a decision-tree record")

    def node_in(nd, depth=0):
        if depth > DEPTH_CAP:  # as in protocol_from_dict
            raise DomainError(f"decision tree nested deeper than the cap {DEPTH_CAP}")
        if "leaf" in nd:
            return DLeaf(_leaf_value_in(nd["leaf"]))
        return DQuery(nd["query"], node_in(nd["0"], depth + 1), node_in(nd["1"], depth + 1))

    return DecisionTree(d["n"], node_in(d["tree"]))


def randomized_protocol_from_dict(d) -> RandomizedProtocol:
    if d.get("format") != "randomized_protocol":
        raise DomainError("not a randomized-protocol record")
    return RandomizedProtocol(
        [(entropy.parse_rational(c["weight"]), protocol_from_dict(c["protocol"]))
         for c in d["components"]]
    )


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refused if it repeats a key."""
    d = dict(pairs)
    if len(d) < len(pairs):
        keys = [k for k, _ in pairs]
        raise DomainError(f"repeated key {next(k for k in d if keys.count(k) > 1)!r}")
    return d


def load_fixture(path):
    """Parse a protocol / randomized protocol / decision tree / outer function
    from a JSON file.  A malformed record, or an object that repeats a key,
    raises DomainError naming the file."""
    parsers = {
        "protocol": protocol_from_dict,
        "randomized_protocol": randomized_protocol_from_dict,
        "decision_tree": dt_from_dict,
        "outer_function": OuterFunction.from_dict,
    }
    try:
        with open(path, encoding="utf-8") as fh:
            # not UTF-8 or not JSON: a ValueError
            d = json.load(fh, object_pairs_hook=_unique_keys)
        fmt = d.get("format")
        if fmt not in parsers:
            raise DomainError(f"unknown fixture format {fmt!r}")
        return parsers[fmt](d)
    except (ArithmeticError, AttributeError, KeyError, RecursionError, TypeError,
            ValueError) as e:
        raise DomainError(f"bad fixture {path}: {type(e).__name__}: {e}") from e
