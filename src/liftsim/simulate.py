"""The randomized decision-tree simulator over a refined protocol.

On input z the simulator walks the refined tree pretending Alice's and Bob's
inputs are uniform on the current rectangle: Bob bits are taken with
probability |Y^b|/|Y|, Alice bits with |X^b|/|X|, parts with |X^i|/|X^b|; at
a bit-fixing round it queries z on the newly fixed blocks and sends exactly
those bits.  The walk ends at a bottom outcome for one of three reasons:

- query-cap: announcing a part would take the query count q past
  query_cap; checked before the part is announced, charged q queries.
- impossible-s: z's bits on the part have no child; checked after the
  answer round, charged the q + |I| queries made.
- deficiency-cutoff (strict_zpp only): a child's Bob deficiency passes the
  cap; checked on entering any child, charged the queries made so far.

These rules are written once, in walk_law, and read four ways.  walk_law
takes every move and every answer s once.  The draws never read z, whose
answer s the child's rho records, so each leaf or bottom of the law is
reached on z with a z-free probability iff its rho is consistent with z:
simulate_exact sums those of one z.  A node's path fixes its q and iteration
number, so its moves depend only on the node and the config: the law also
keeps each node's integer draw weights and each edge's landing for every s,
down to the leaf or bottom event that holds the run's transcript, value and
ledger.  simulate_samples draws one run per seed on each of several z from
those draws and yields the law's events they reach; a seed's runs share one
stream until an answer s parts them.  A ledger row depends only on its edge,
so the law's ledgers are every ledger a run can carry; ledger_exact checks
each distinct one once, and the CLI's "ledger_checks_passed" asserts that all
pass and that every sampled run's ledger is one of them.  protocol_to_dt
realizes the same draws as an explicit mixture of decision trees.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import BOT, PAIR_BUDGET_DEFAULT, ComposedInstance, PartialAssignment
from .entropy import as_fraction, as_rate, cmp_pow
from .errors import DomainError, ResourceError
from .protocol import (
    DLeaf,
    DQuery,
    DecisionTree,
    RBob,
    RLeaf,
    RandomizedDecisionTree,
    RandomizedProtocol,
    RefinedProtocol,
    refine,
)

IMPOSSIBLE_S = "impossible-s"
DEFICIENCY_CUTOFF = "deficiency-cutoff"
QUERY_CAP = "query-cap"

UNIT = (1, 1)  # a ratio of 1 as an integer pair

NODE_BUDGET = 10 ** 6        # refined nodes one walk_law pass may visit, protocol_to_dt's too
COMPONENT_BUDGET = 10 ** 5   # decision trees in one realized mixture


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.

    deficiency_cap defaults to n^3 bits, but on desk-scale instances that can
    exceed Bob's total bit count and never fire, so it is configurable.
    strict_zpp halts with failure as soon as Bob's deficiency passes the cap,
    which is what makes emitted transcripts land inside the true support.
    """

    delta: Fraction = Fraction(9, 10)
    deficiency_cap: Fraction | None = None  # None: use n**3
    query_cap: int | None = None
    strict_zpp: bool = False

    def __post_init__(self):
        object.__setattr__(self, "delta", as_rate(self.delta))
        if self.deficiency_cap is not None:
            object.__setattr__(self, "deficiency_cap", as_fraction(self.deficiency_cap))
            if self.deficiency_cap <= 0:
                raise DomainError("deficiency cap must be positive")
        if self.query_cap is not None and self.query_cap <= 0:
            raise DomainError("query cap must be positive")

    def cap_bits(self, n: int) -> Fraction:
        return self.deficiency_cap if self.deficiency_cap is not None else Fraction(n ** 3)


def _lowest(a: int, b: int) -> tuple:
    """The ratio a/b as its integer pair in lowest terms."""
    g = math.gcd(a, b)
    return a // g, b // g


class LedgerRow(NamedTuple):
    """Per-iteration potential bookkeeping, as exact ratios (their log2 is the
    quantity in bits, which is irrational in general, so the ratio is kept).
    A row holds the integers its ratios are made of, and a reader makes a
    ratio a Fraction when it needs one: `Fraction(*row.gamma)`,
    `Fraction(*row.delta)`, or `Fraction(2 ** f, x)` for (f, x) = `row.before`.
    Rows are equal, and hash alike, when their iterations, query counts and
    four ratios are, whatever the integers."""

    iteration: int
    queries: int
    gamma: tuple       # (|X|, |X^b|) at the Alice bit; a ratio of 1 on Bob iterations
    delta: tuple       # the part's (input_size, tail_size), |X^b| and |X^(>=i)|
    before: tuple      # (free bits, |X|) at the node: the potential 2^free / |X|
    after: tuple       # (free bits, |X|) after the iteration

    def _key(self) -> tuple:
        """The counts and the four ratios in lowest terms."""
        (fb, xb), (fa, xa) = self.before, self.after
        return (self.iteration, self.queries, _lowest(*self.gamma), _lowest(*self.delta),
                _lowest(1 << fb, xb), _lowest(1 << fa, xa))

    def __eq__(self, other):
        if not isinstance(other, LedgerRow):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __ne__(self, other):
        # tuple's own != would compare the integers
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self._key())


class ExactDist:
    """A finite distribution with exact rational probabilities, stored as
    integer counts over one denominator, in lowest terms: outcome o has
    probability counts[o] / total, and counts holds only the outcomes of
    positive count, in first-occurrence order.  Readers that compare or sum
    probabilities read counts and total, so no Fraction is built per
    outcome; prob and items give the Fractions."""

    def __init__(self, counts, total=None):
        """Integer counts[o] / total for each outcome; total defaults to their
        sum.  Refuses an empty table, a negative count and a sum other than
        total, then reduces."""
        if total is None:
            total = sum(counts.values())
            if total <= 0:
                raise DomainError("empty count table")
        if any(c < 0 for c in counts.values()):
            raise DomainError("negative probability")
        counts = {o: c for o, c in counts.items() if c}
        if total <= 0 or sum(counts.values()) != total:
            raise DomainError("probabilities must sum to exactly 1")
        g = math.gcd(total, *counts.values())
        self.counts = {o: c // g for o, c in counts.items()} if g > 1 else counts
        self.total = total // g

    def prob(self, outcome) -> Fraction:
        return Fraction(self.counts.get(outcome, 0), self.total)

    def items(self) -> list:
        return [(o, Fraction(c, self.total)) for o, c in self.counts.items()]

    @property
    def support(self) -> frozenset:
        return frozenset(self.counts)

    def __eq__(self, other):
        return (isinstance(other, ExactDist) and self.total == other.total
                and self.counts == other.counts)

    def __repr__(self):
        return f"ExactDist({self.counts!r}, {self.total})"


@dataclass(frozen=True)
class SimExact:
    transcripts: ExactDist     # over refined transcripts plus BOT
    queries: ExactDist         # over query counts
    bot_reasons: dict          # failure reason -> probability
    values: ExactDist          # over leaf values plus BOT


class WalkEvent(NamedTuple):
    """A leaf or bottom, reached on z with probability weight iff rho is
    consistent with z.  A bottom's rho is the parent's with s written on the
    blocks queried: the child's at a deficiency cutoff, the parent's plus s
    at impossible-s, the parent's at a query cap."""

    weight: Fraction
    rho: PartialAssignment
    transcript: object         # refined transcript, or BOT
    value: object              # leaf value, or BOT
    queries: tuple             # coordinates charged, in query order
    failure: str | None        # IMPOSSIBLE_S | DEFICIENCY_CUTOFF | QUERY_CAP
    ledger: tuple


class Edge(NamedTuple):
    """One move out of an iteration node, drawn with an integer weight: the
    coordinates it queries, and for each answer s ("" when it reads none) its
    landing, the next node's Draw or the leaf's or bottom's WalkEvent."""

    weight: int                # |Y^b| for a Bob bit, |X^i| for a part
    coords: tuple
    landings: dict


class Draw(NamedTuple):
    """An integer-weighted draw: a uniform integer below total picks the first
    entry whose running weight passes it, each entry's weight being its first
    field.  A Bob node's entries are one Edge per bit; an Alice node's are one
    Draw per bit, of total |X^b|, over the bit's parts."""

    total: int
    entries: list


class WalkLaw(NamedTuple):
    G: ComposedInstance
    cfg: SimConfig
    events: tuple              # WalkEvent, depth first
    by_rho: dict               # rho -> its events, so one z reads only its own
    root: Draw | WalkEvent     # the root's draw, or its event when it is a leaf


# --- the sampler and the law ---

def _pick(rng, draw: Draw):
    """One draw: a uniform integer below the total weight picks its entry."""
    r = rng.randrange(draw.total)
    for entry in draw.entries:
        r -= entry[0]
        if r < 0:
            return entry


def simulate_samples(law: WalkLaw, zs, seeds):
    """For each seed in order, one reproducible run of the walk on each z of
    zs from random.Random(seed), yielded as the tuple of the law's events
    they reach.  A run reads the law's draws: one _pick at a Bob node, two
    (the bit, then the part) at an Alice node, each taken with exactly its
    rational probability; every seeded report depends on this draw order.
    The draws never read z, so one seed's runs share one stream until an
    answer s parts them.  The first part that keeps drawing keeps the
    stream; each other one walks again from the root on a fresh
    Random(seed), so each z consumes exactly its own seeded stream."""
    zs = ["".join(map(str, law.G.check_z(z))) for z in zs]
    for seed in seeds:
        events = [law.root] * len(zs)
        pending = [range(len(zs))] if isinstance(law.root, Draw) else []
        while pending:
            group, node, rng = pending.pop(), law.root, random.Random(seed)
            while node is not None:
                edge = _pick(rng, node)
                if isinstance(edge, Draw):
                    edge = _pick(rng, edge)
                if edge.coords:       # the answers s part the group
                    parts = {}
                    for k in group:
                        s = "".join([zs[k][i - 1] for i in edge.coords])
                        parts.setdefault(s, []).append(k)
                else:
                    parts = {"": group}
                node = None
                for s, ks in parts.items():
                    landing = edge.landings[s]
                    if not isinstance(landing, Draw):
                        for k in ks:
                            events[k] = landing
                    elif node is None:
                        node, group = landing, ks
                    else:
                        pending.append(ks)
        yield tuple(events)


def simulate_sample(law: WalkLaw, z, seed: int) -> WalkEvent:
    """The one-z case of simulate_samples: the run on z from Random(seed)."""
    return next(simulate_samples(law, (z,), (seed,)))[0]


def walk_law(rp: RefinedProtocol, cfg: SimConfig) -> WalkLaw:
    """The walk's terminal events over every z, and each node's draw: one
    depth-first pass taking every move and every answer s, visiting at most
    NODE_BUDGET nodes.  A Bob bit b is one Edge of weight |Y^b|; an Alice bit
    b is a Draw of total |X^b| over its parts, each an Edge of weight |X^i|.
    A path's weight is carried as an integer pair (num, den), made one
    Fraction at its event; a leaf's event holds the leaf's own transcript.  A
    ledger row does not depend on s, so it is built once per edge."""
    cap = cfg.cap_bits(rp.G.n)
    query_cap = cfg.query_cap
    events = []
    visits = itertools.count(1)

    def event(num, den, *fields):
        events.append(WalkEvent(Fraction(num, den), *fields))
        return events[-1]

    def land(node, coords, s, child, num, den, q, ledger):
        """The walk on child after answer s on coords, or its bottom:
        impossible-s when the child is absent, the strict-ZPP cutoff when its
        Bob deficiency passes cap bits, i.e. its def_y ratio exceeds 2^cap."""
        if child is not None and not (cfg.strict_zpp and cmp_pow(child.def_y, 2, cap) > 0):
            return walk(child, num, den, q, ledger)
        return event(num, den, node.rho.assign(coords, map(int, s)), BOT, BOT, q,
                     IMPOSSIBLE_S if child is None else DEFICIENCY_CUTOFF, ledger)

    def walk(node, num, den, q, ledger):
        """Fold node's subtree into events; return its Draw, or its event at a leaf."""
        if (visited := next(visits)) > NODE_BUDGET:
            raise ResourceError("walk law traversal", visited, NODE_BUDGET)
        if isinstance(node, RLeaf):
            return event(num, den, node.rho, node.transcript, node.value, q, None, ledger)
        it, total = len(ledger) + 1, len(node.rect.X)
        before = (node.free_bits, total)
        if isinstance(node, RBob):
            ytotal = node.rect.Y.size
            return Draw(ytotal, [
                Edge(c.rect.Y.size, (), {"": land(
                    node, (), "", c, num * c.rect.Y.size, den * ytotal, q,
                    ledger + (LedgerRow(it, 0, UNIT, UNIT, before,
                                        (c.free_bits, len(c.rect.X))),))})
                for c in node.children.values() if c is not None])
        den *= total
        bits = []              # one Draw per present bit, in b order
        for parts in node.branches.values():
            if parts is None:
                continue
            wb = sum(len(part.X) for part in parts)
            gamma = (total, wb)
            edges = []
            for part in parts:
                wi, coords = len(part.X), part.coords
                if query_cap is not None and len(q) + len(coords) > query_cap:
                    # no part announcement and no queries: only Alice's bit
                    # counts, and the potential after it is 2^free / |X^b|
                    row = LedgerRow(it, 0, gamma, UNIT, before, (node.free_bits, wb))
                    edges.append(Edge(wi, (), {"": event(
                        num * wi, den, node.rho, BOT, BOT, q, QUERY_CAP, ledger + (row,))}))
                    continue
                # the part's potential exists even when the bit-fixing child does not
                path = ledger + (LedgerRow(it, len(coords), gamma,
                                           (part.input_size, part.tail_size), before,
                                           (part.free_bits, wi)),)
                edges.append(Edge(wi, coords, {
                    s: land(node, coords, s, c, num * wi, den, q + coords, path)
                    for s, c in part.s_children.items()}))
            bits.append(Draw(wb, edges))
        return Draw(total, bits)

    root = walk(rp.root, 1, 1, (), ())
    del walk, land             # they close over each other: free the events with the law
    by_rho = {}
    for e in events:
        by_rho.setdefault(e.rho, []).append(e)
    return WalkLaw(rp.G, cfg, tuple(events), by_rho, root)


def simulate_exact(law: WalkLaw, z) -> SimExact:
    """The exact outcome distribution on z: the law's events consistent with
    z, each event's weight scaled to the lcm of their denominators and added
    to its outcomes' integer counts.  The events' weights must sum to 1,
    which ExactDist checks."""
    z = law.G.check_z(z)
    events = [e for rho, es in law.by_rho.items() if rho.consistent(z) for e in es]
    den = math.lcm(*(e.weight.denominator for e in events))
    transcripts, queries, reasons, values = {}, {}, {}, {}
    for e in events:
        w = e.weight.numerator * (den // e.weight.denominator)
        transcripts[e.transcript] = transcripts.get(e.transcript, 0) + w
        q = len(e.queries)
        queries[q] = queries.get(q, 0) + w
        values[e.value] = values.get(e.value, 0) + w
        if e.failure is not None:
            reasons[e.failure] = reasons.get(e.failure, 0) + w
    return SimExact(ExactDist(transcripts, den),
                    ExactDist(queries, den),
                    {r: Fraction(c, den) for r, c in reasons.items()},
                    ExactDist(values, den))


def ledger_exact(law: WalkLaw) -> dict:
    """Every ledger the walk can carry -> ledger_check's verdict, each once."""
    return {ledger: ledger_check(ledger, law.G.m, law.cfg.delta)
            for ledger in dict.fromkeys(e.ledger for e in law.events)}


def ledger_check(ledger: tuple, m: int, delta) -> bool:
    """Exact check of one run's potential ledger, on blocks of size m.

    Per iteration: the new potential is at most the old one plus the two
    announced drops minus (1-delta) log m per query (the partition-lemma
    deficiency bound).  In aggregate: (1-delta) log m times the total query
    count is at most the sum of all drops, since the potential starts at zero
    and stays nonnegative.  Both are one cmp_pow on integer pairs, read from
    the rows' integers.  delta is refused outside (0, 1).
    """
    rate = (1 - as_rate(delta)) * (m.bit_length() - 1)   # (1 - delta) log2 m
    r, d = rate.numerator, rate.denominator
    drop_num = drop_den = 1
    total_queries = 0
    for row in ledger:
        (gx, gxb), (dx, dtail), (fb, xb), (fa, xa) = row.gamma, row.delta, row.before, row.after
        # after / (before * gamma * delta) against 2^(-rate * queries), with
        # the potentials' powers of 2 moved to the exponent
        if cmp_pow((xb * gxb * dtail, xa * gx * dx), 2,
                   ((fb - fa) * d - r * row.queries, d)) > 0:
            return False
        drop_num *= gx * dx
        drop_den *= gxb * dtail
        total_queries += row.queries
    return cmp_pow((drop_num, drop_den), 2, (r * total_queries, d)) >= 0


def _merge_components(components):
    """Sum the weights of equal trees, in first-occurrence order."""
    merged = {}
    for w, root in components:
        merged[root] = merged.get(root, 0) + w
    return [(w, root) for root, w in merged.items()]


def _realize(node):
    """The law's walk from node as a mixture of deterministic subtrees:
    (den, [(num, tree), ...]), each tree taken with probability num/den.  A
    Draw takes each Edge with probability edge.weight / draw.total, an Alice
    bit's parts read directly against the node's total; the answers s of an
    edge get independent realizations, tensored by _query_chains."""
    if isinstance(node, WalkEvent):
        return 1, [(1, DLeaf(node.value))]
    chains = [(edge.weight, _query_chains(edge.coords, {
                   s: _realize(landing) for s, landing in edge.landings.items()}))
              for entry in node.entries
              for edge in (entry.entries if isinstance(entry, Draw) else (entry,))]
    den = math.lcm(*(d for _, (d, _) in chains))
    return node.total * den, _merge_components(
        [(w * num * (den // d), t) for w, (d, mix) in chains for num, t in mix])


def _query_chains(coords, per_s):
    """Tensor the independent realizations of each answer s into a mixture
    of query chains over coords, over the product of their denominators."""
    if not coords:
        return per_s[""]
    answers = sorted(per_s)
    size = math.prod(len(per_s[s][1]) for s in answers)
    if size > COMPONENT_BUDGET:
        raise ResourceError("decision-tree realization", size, COMPONENT_BUDGET)

    def chain(coords_left, prefix, chosen):
        if not coords_left:
            return chosen[prefix]
        c = coords_left[0]
        return DQuery(c,
                      chain(coords_left[1:], prefix + "0", chosen),
                      chain(coords_left[1:], prefix + "1", chosen))

    # the first answer varies slowest
    return math.prod(per_s[s][0] for s in answers), _merge_components(
        [(math.prod(w for w, _ in combo),
          chain(coords, "", dict(zip(answers, (t for _, t in combo)))))
         for combo in itertools.product(*(per_s[s][1] for s in answers))]
    )


def protocol_to_dt(PI, cfg: SimConfig = SimConfig(),
                   pair_budget: int = PAIR_BUDGET_DEFAULT) -> RandomizedDecisionTree:
    """Lift a protocol to a randomized decision tree.

    Pick a deterministic component, refine it, and realize its walk law as an
    explicit mixture of deterministic decision trees whose leaves carry the
    refined-leaf values (bottom leaves preserved).  Distinct query branches
    get independent realizations, which leaves the per-input output
    distribution unchanged.  Each component's law visits at most NODE_BUDGET
    nodes.
    """
    components = (PI.components if isinstance(PI, RandomizedProtocol)
                  else [(Fraction(1), PI)])
    out = []
    for w, pt in components:
        den, mix = _realize(walk_law(refine(pt, cfg.delta, pair_budget=pair_budget), cfg).root)
        out.extend((w * Fraction(num, den), t) for num, t in mix)
        if len(out) > COMPONENT_BUDGET:
            raise ResourceError("decision-tree realization", len(out), COMPONENT_BUDGET)
    merged = _merge_components(out)
    return RandomizedDecisionTree(PI.G.n, [(w, DecisionTree(PI.G.n, t)) for w, t in merged])
