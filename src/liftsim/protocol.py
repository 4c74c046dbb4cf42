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
from dataclasses import dataclass
from fractions import Fraction

from . import entropy
from .core import (
    BOT,
    BobCube,
    ComposedInstance,
    ExplicitBobSet,
    GadgetSpec,
    PAIR_BUDGET_DEFAULT,
    PartialAssignment,
    Rect,
    bit_at,
)
from .entropy import as_fraction
from .errors import DomainError, ResourceError

ALICE = "alice"
BOB = "bob"
DEPTH_CAP = 32           # deepest protocol tree accepted
TABLE_BUDGET = 2 ** 20   # largest Bob domain written out as a table


# --- node send-functions ---

class TableFn:
    """Extensional input -> bit map, stored as an explicit table."""

    def __init__(self, table):
        self.table = dict(table)
        for v in self.table.values():
            if v not in (0, 1):
                raise DomainError("table values must be bits")

    def __call__(self, inp):
        return self.table[tuple(inp)]

    def __eq__(self, other):
        return isinstance(other, TableFn) and self.table == other.table


class BitFn:
    """Bob reads a single bit: position `pos` of block `block`."""

    def __init__(self, block: int, pos: int, m: int):
        self.block = block
        self.pos = pos
        self.m = m

    def __call__(self, ys):
        return bit_at(ys[self.block - 1], self.pos, self.m)

    def __eq__(self, other):
        return (isinstance(other, BitFn)
                and (self.block, self.pos, self.m) == (other.block, other.pos, other.m))


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
        alice_size = self.G.alice_size
        bob_size = self.G.bob_size
        depth = 0
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
                expect = alice_size if node.owner == ALICE else bob_size
                if len(fn.table) != expect:
                    raise DomainError(
                        f"{node.owner} table has {len(fn.table)} entries, needs {expect}"
                    )
            elif isinstance(fn, BitFn):
                if node.owner != BOB:
                    raise DomainError("bit-readout maps are Bob-side only")
                if not (1 <= fn.block <= self.G.n and 1 <= fn.pos <= self.G.m):
                    raise DomainError("bit-readout map out of range")
            else:
                raise DomainError("node map must be a TableFn or BitFn")
            stack.append((node.zero, d + 1))
            stack.append((node.one, d + 1))
        if depth > DEPTH_CAP:
            raise DomainError(f"protocol depth {depth} exceeds cap {DEPTH_CAP}")
        self.depth = depth

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
        return Y.split_bit(fn.block, fn.pos)
    return Y.split_fn(fn)


def _has_bob_table(pt: ProtocolTree) -> bool:
    return any(isinstance(nd, PNode) and nd.owner == BOB and isinstance(nd.fn, TableFn)
               for nd in _walk_nodes(pt.root))


def _root_bob_set(pt: ProtocolTree, pair_budget: int):
    """Bob's side of the root rectangle: the full cube when every Bob map is a
    bit readout, which never needs Y written out; otherwise the explicit
    domain, refused up front when its 2^(nm) tuples exceed pair_budget."""
    G = pt.G
    return G.full_Y(pair_budget) if _has_bob_table(pt) else BobCube(G.n, G.m, ())


def leaf_rectangles(pt: ProtocolTree, pair_budget: int = PAIR_BUDGET_DEFAULT) -> dict:
    """Map each leaf transcript to the rectangle of inputs reaching it.

    Rectangles are pairwise disjoint and cover the domain; empty ones are kept
    (as empty rectangles) so the partition property is checkable.
    """
    G = pt.G
    out = {}
    empty = ExplicitBobSet(G.n, G.m, ())

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

    walk(pt.root, (), G.full_X(), _root_bob_set(pt, pair_budget))
    return out


# --- decision trees ---

@dataclass
class DLeaf:
    value: object  # 0, 1, or BOT


@dataclass
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
        if not 1 <= node.coord <= self.n:
            raise DomainError(f"query coordinate {node.coord} outside 1..{self.n}")
        if node.coord in path:
            raise DomainError(f"coordinate {node.coord} queried twice on a path")
        path = path | {node.coord}
        return max(self._validate(node.zero, path, d + 1),
                   self._validate(node.one, path, d + 1))

    @property
    def cost(self) -> int:
        return self.depth


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

    @classmethod
    def point(cls, pt: ProtocolTree) -> "RandomizedProtocol":
        return cls([(Fraction(1), pt)])


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
    if isinstance(T, RandomizedDecisionTree):
        return RandomizedProtocol(
            [(w, dt_to_protocol(t, G)) for w, t in T.components]
        )
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
        fn = TableFn({xs: ((xs[i - 1] - 1) >> shift) & 1 for xs in G.alice_domain()})
        return PNode(ALICE, fn,
                     pointer_chain(dnode, i, t + 1, prefix << 1),
                     pointer_chain(dnode, i, t + 1, (prefix << 1) | 1))

    def build(dnode):
        if isinstance(dnode, DLeaf):
            return PLeaf(dnode.value)
        return pointer_chain(dnode, dnode.coord, 1, 0)

    return ProtocolTree(G, build(T.root))


# --- refined protocols ---

@dataclass
class RLeaf:
    rect: Rect
    rho: PartialAssignment
    value: object
    potential: Fraction   # 2^(|free| log m) / |X|: log2 is D(X) on the free blocks
    def_y: Fraction       # Y.deficiency(): log2 is D(Y)


@dataclass
class RPart:
    """One density-restoring part inside an Alice iteration."""

    order: int            # 1-based announcement index
    coords: tuple         # I, ascending block labels
    alpha: tuple          # fixed pointer values on I
    X: frozenset
    delta_ratio: Fraction  # |X after bit| / |X^(>=order)|
    s_children: dict      # bit-string over I -> node or None ("impossible to send")


@dataclass
class RBranch:
    X: frozenset          # X^b, after Alice's bit
    parts: list


@dataclass
class RAlice:
    rect: Rect
    rho: PartialAssignment
    fn: object            # the source node's Alice map
    branches: dict        # bit -> RBranch or None (empty X^b)
    potential: Fraction   # potential and def_y: as in RLeaf
    def_y: Fraction


@dataclass
class RBob:
    rect: Rect
    rho: PartialAssignment
    fn: object            # the source node's Bob map
    children: dict        # bit -> node or None (empty Y^b)
    potential: Fraction   # potential and def_y: as in RLeaf
    def_y: Fraction


class RefinedProtocol:
    """The refined form of a protocol: same input/output behavior, but every
    Alice bit is followed by a part announcement and a bit-fixing round, so
    each iteration starts at a structured rectangle."""

    def __init__(self, G, delta, root, source: ProtocolTree):
        self.G = G
        self.delta = delta
        self.root = root
        self.source = source

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, RBob):
                stack.extend(c for c in node.children.values() if c is not None)
            elif isinstance(node, RAlice):
                for br in node.branches.values():
                    if br is None:
                        continue
                    for part in br.parts:
                        stack.extend(c for c in part.s_children.values() if c is not None)

    def iteration_nodes(self):
        return [nd for nd in self.iter_nodes() if not isinstance(nd, RLeaf)]

    def leaves(self):
        """(refined transcript, leaf) pairs."""
        out = []

        def walk(node, t):
            if isinstance(node, RLeaf):
                out.append((t, node))
            elif isinstance(node, RBob):
                for b in (0, 1):
                    c = node.children[b]
                    if c is not None:
                        walk(c, t + (("b", b),))
            else:
                for b in (0, 1):
                    br = node.branches[b]
                    if br is None:
                        continue
                    for part in br.parts:
                        for s, c in sorted(part.s_children.items()):
                            if c is not None:
                                walk(c, t + (("b", b), ("i", part.order), ("s", s)))

        walk(self.root, ())
        return out


def _potential(X, rho, log_m) -> Fraction:
    # D(X on free blocks) as the ratio whose log2 it is; X is constant on
    # fixed blocks, so |X_free| = |X|.
    return Fraction(2 ** (log_m * len(rho.free)), len(X))


def _s_strings(k):
    return ["".join(bits) for bits in itertools.product("01", repeat=k)]


def refine(pt: ProtocolTree, delta=Fraction(9, 10), *,
           pair_budget: int = PAIR_BUDGET_DEFAULT) -> RefinedProtocol:
    """Build the refined protocol: Bob bits split Y; Alice bits split X, then a
    density-restoring partition of X on the free blocks is announced, and Bob
    pins the pointed-to bits, extending the partial assignment.

    Children whose rectangle would be empty are recorded as absent (None): the
    simulator treats an absent bit-fixing child as an impossible message.
    """
    G = pt.G
    delta = as_fraction(delta)
    k = G.log_m
    m = G.m

    def build(v, X, Y, rho):
        pot = _potential(X, rho, k)
        defy = Y.deficiency()
        rect = Rect(X, Y)
        if isinstance(v, PLeaf):
            return RLeaf(rect, rho, v.value, pot, defy)
        if v.owner == BOB:
            y0, y1 = _split_bob(Y, v.fn)
            children = {
                0: build(v.zero, X, y0, rho) if y0 is not None else None,
                1: build(v.one, X, y1, rho) if y1 is not None else None,
            }
            return RBob(rect, rho, v.fn, children, pot, defy)
        branches = {}
        for b in (0, 1):
            Xb = frozenset(x for x in X if v.fn(x) == b)
            if not Xb:
                branches[b] = None
                continue
            sv = entropy.SetVar(Xb, (m,) * G.n, rho.free)
            parts = []
            for dp in entropy.density_restoring_partition(sv, delta):
                s_children = {}
                for s in _s_strings(len(dp.coords)):
                    pins = {(i, a): int(c) for i, a, c in zip(dp.coords, dp.alpha, s)}
                    Ys = Y.restrict(pins)
                    if Ys is None:
                        s_children[s] = None
                        continue
                    rho2 = rho.assign(dp.coords, tuple(int(c) for c in s))
                    s_children[s] = build(v.child(b), dp.support, Ys, rho2)
                parts.append(RPart(dp.order, dp.coords, dp.alpha, dp.support,
                                   dp.delta_ratio, s_children))
            branches[b] = RBranch(Xb, parts)
        return RAlice(rect, rho, v.fn, branches, pot, defy)

    root = build(pt.root, G.full_X(), _root_bob_set(pt, pair_budget),
                 PartialAssignment.free_everywhere(G.n))
    return RefinedProtocol(G, delta, root, pt)


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
            part = next(p for p in node.branches[b].parts if xs in p.X)
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

def _fn_to_dict(fn, domain):
    if isinstance(fn, BitFn):
        return {"kind": "bit", "block": fn.block, "pos": fn.pos}
    bits = "".join(str(fn.table[inp]) for inp in domain)
    return {"kind": "table", "bits": bits}


def _leaf_value_out(v):
    return "bot" if v is BOT else v


def _leaf_value_in(v):
    return BOT if v == "bot" else v


def protocol_to_dict(pt: ProtocolTree) -> dict:
    G = pt.G
    bob_tables = _has_bob_table(pt)
    if bob_tables and G.bob_size > TABLE_BUDGET:
        raise ResourceError("Bob table serialization", G.bob_size, TABLE_BUDGET)
    alice_domain = list(G.alice_domain())
    bob_domain = list(G.bob_domain()) if bob_tables else []

    def node_out(node):
        if isinstance(node, PLeaf):
            return {"leaf": _leaf_value_out(node.value)}
        domain = alice_domain if node.owner == ALICE else bob_domain
        return {
            "owner": node.owner,
            "fn": _fn_to_dict(node.fn, domain),
            "0": node_out(node.zero),
            "1": node_out(node.one),
        }

    return {
        "format": "protocol",
        "n": G.n,
        "gadget": {"kind": "index", "m": G.m},
        "tree": node_out(pt.root),
    }


def _walk_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, PNode):
            stack.extend((node.zero, node.one))


def protocol_from_dict(d) -> ProtocolTree:
    if d.get("format") != "protocol":
        raise DomainError("not a protocol record")
    if d["gadget"]["kind"] != "index":
        raise DomainError("only index-gadget protocols are serialized")
    G = ComposedInstance(d["n"], GadgetSpec.index(d["gadget"]["m"]))
    domains = {}  # is Alice the owner -> that side's inputs, listed on first use

    def fn_in(owner, fd):
        if fd["kind"] == "bit":
            return BitFn(fd["block"], fd["pos"], G.m)
        bits, alice = fd["bits"], owner == ALICE
        size = G.alice_size if alice else G.bob_size
        if len(bits) != size:
            raise DomainError(f"{owner} table has {len(bits)} bits, needs {size}")
        if alice not in domains:
            domains[alice] = list(G.alice_domain() if alice else G.bob_domain())
        return TableFn(zip(domains[alice], map(int, bits)))

    def node_in(nd):
        if "leaf" in nd:
            return PLeaf(_leaf_value_in(nd["leaf"]))
        owner = nd["owner"]
        return PNode(owner, fn_in(owner, nd["fn"]), node_in(nd["0"]), node_in(nd["1"]))

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

    def node_in(nd):
        if "leaf" in nd:
            return DLeaf(_leaf_value_in(nd["leaf"]))
        return DQuery(nd["query"], node_in(nd["0"]), node_in(nd["1"]))

    return DecisionTree(d["n"], node_in(d["tree"]))


def randomized_protocol_from_dict(d) -> RandomizedProtocol:
    if d.get("format") != "randomized_protocol":
        raise DomainError("not a randomized-protocol record")
    return RandomizedProtocol(
        [(Fraction(c["weight"]), protocol_from_dict(c["protocol"]))
         for c in d["components"]]
    )


def load_fixture(path_or_obj):
    """Parse a protocol / randomized protocol / decision tree / outer function
    from a dict or a JSON file path.  A malformed record raises DomainError
    naming its source."""
    from .core import OuterFunction

    if isinstance(path_or_obj, dict):
        d, source = path_or_obj, "record"
    else:
        with open(path_or_obj) as fh:
            d, source = json.load(fh), path_or_obj
    parsers = {
        "protocol": protocol_from_dict,
        "randomized_protocol": randomized_protocol_from_dict,
        "decision_tree": dt_from_dict,
        "outer_function": OuterFunction.from_dict,
    }
    try:
        fmt = d.get("format")
        if fmt not in parsers:
            raise DomainError(f"unknown fixture format {fmt!r}")
        return parsers[fmt](d)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DomainError(f"bad fixture {source}: {type(e).__name__}: {e}") from e
