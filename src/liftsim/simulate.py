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

These rules are written once (_draws, _enter, _move, _steps) and folded
three ways: simulate_sample draws one move per step, simulate_exact sums the
weighted moves, and protocol_to_dt realizes them as a mixture of decision
trees.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import BOT, PAIR_BUDGET_DEFAULT
from .entropy import as_fraction, as_rate, cmp_pow, frac_str, log2_float
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

NODE_BUDGET = 10 ** 6        # refined nodes one exact walk may visit
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


@dataclass(frozen=True)
class LedgerRow:
    """Per-iteration potential bookkeeping, as exact ratios (their log2 is the
    quantity in bits, which is irrational in general, so the ratio is stored)."""

    iteration: int
    gamma_ratio: Fraction      # |X| / |X^b| at the Alice bit (1 on Bob iterations)
    delta_ratio: Fraction      # |X^b| / |X^(>=i)| at the part announcement
    queries: int
    potential_before: Fraction
    potential_after: Fraction


@dataclass(frozen=True)
class SimOutcome:
    transcript: tuple | None   # None on failure
    value: object              # leaf value, or BOT on failure
    failure: str | None        # IMPOSSIBLE_S | DEFICIENCY_CUTOFF | QUERY_CAP
    queries: tuple             # coordinates in query order
    ledger: tuple
    m: int

    @property
    def outcome(self):
        return BOT if self.transcript is None else self.transcript

    def to_dict(self) -> dict:
        return {
            "transcript": None if self.transcript is None
            else [list(msg) for msg in self.transcript],
            "value": "bot" if self.value is BOT else self.value,
            "failure": self.failure,
            "queries": list(self.queries),
            "ledger": [
                {
                    "iteration": row.iteration,
                    "gamma_ratio": frac_str(row.gamma_ratio),
                    "delta_ratio": frac_str(row.delta_ratio),
                    "queries": row.queries,
                    "potential_before_bits": log2_float(row.potential_before),
                    "potential_after_bits": log2_float(row.potential_after),
                }
                for row in self.ledger
            ],
        }


class ExactDist:
    """A finite distribution with exact rational probabilities."""

    def __init__(self, mapping):
        probs = {}
        for o, p in dict(mapping).items():
            p = Fraction(p)
            if p < 0:
                raise DomainError("negative probability")
            if p:
                probs[o] = p
        if sum(probs.values()) != 1:
            raise DomainError("probabilities must sum to exactly 1")
        self._p = probs

    @classmethod
    def from_counts(cls, counts) -> "ExactDist":
        total = sum(counts.values())
        if total <= 0:
            raise DomainError("empty count table")
        return cls({o: Fraction(c, total) for o, c in counts.items() if c})

    @classmethod
    def point(cls, outcome) -> "ExactDist":
        return cls({outcome: Fraction(1)})

    def prob(self, outcome) -> Fraction:
        return self._p.get(outcome, Fraction(0))

    def items(self):
        return self._p.items()

    @property
    def support(self) -> frozenset:
        return frozenset(self._p)

    def project(self, fn) -> "ExactDist":
        out = {}
        for o, p in self._p.items():
            key = fn(o)
            out[key] = out.get(key, Fraction(0)) + p
        return ExactDist(out)

    def __eq__(self, other):
        return isinstance(other, ExactDist) and self._p == other._p

    def __len__(self):
        return len(self._p)

    def __repr__(self):
        return f"ExactDist({self._p!r})"


@dataclass(frozen=True)
class SimExact:
    transcripts: ExactDist     # over refined transcripts plus BOT
    queries: ExactDist         # over query counts
    bot_reasons: dict          # failure reason -> probability
    values: ExactDist          # over leaf values plus BOT


def _walk_shared(rp: RefinedProtocol, z, cfg: SimConfig):
    """Validation shared by the walks; returns the deficiency cap in bits and
    z's answers to a part (the bits of z on its coordinates)."""
    z = rp.G.check_z(z)
    return cfg.cap_bits(rp.G.n), lambda part: (
        "".join(str(z[i - 1]) for i in part.coords),)


# --- the walk's rules, shared by the three folds below ---

def _draws(node):
    """The integer-weighted first draw out of an iteration node: its total
    weight, and its entries in b order with absent children and branches
    skipped: (|Y^b|, b, None) at a Bob node, (|X^b|, b, [(|X^i|, part), ...])
    at an Alice node, with |X^b| the sum of its parts' |X^i|, whose second
    draw picks a part of the branch."""
    if isinstance(node, RBob):
        return node.rect.y_size, [(node.children[b].rect.y_size, b, None)
                                  for b in (0, 1) if node.children[b] is not None]
    parts = {b: [(len(p.X), p) for p in ps]
             for b, ps in node.branches.items() if ps is not None}
    return len(node.rect.X), [(sum(w for w, _ in ps), b, ps) for b, ps in parts.items()]


def _pick(rng, total, draws):
    """One draw: a uniform integer below the total weight picks its entry."""
    r = rng.randrange(total)
    for d in draws:
        r -= d[0]
        if r < 0:
            return d


def _enter(child, cfg: SimConfig, cap):
    """The child, or the strict-ZPP cutoff when its Bob deficiency passes cap
    bits, i.e. its def_y ratio exceeds 2^cap."""
    return (DEFICIENCY_CUTOFF if cfg.strict_zpp and cmp_pow(child.def_y, 2, cap) > 0
            else child)


def _move(node, b, part, q, cfg: SimConfig, cap, answers):
    """Bit b, then part at an Alice node, after q queries: the coordinates
    queried, and one landing (s, messages, node or bottom reason, queries
    charged) for each s in answers(part); s is "" for a Bob bit or a capped
    part, which have no answer round."""
    if part is None:
        return (), [("", (("b", b),), _enter(node.children[b], cfg, cap), q)]
    if cfg.query_cap is not None and q + len(part.coords) > cfg.query_cap:
        return (), [("", (("b", b),), QUERY_CAP, q)]
    q += len(part.coords)
    sent = (("b", b), ("i", part.order))
    return part.coords, [
        (s, sent + (("s", s),), IMPOSSIBLE_S if part.s_children[s] is None
         else _enter(part.s_children[s], cfg, cap), q)
        for s in answers(part)]


def _steps(node, q, cfg: SimConfig, cap, answers):
    """Every move out of an iteration node: (probability,) + _move's result."""
    total, draws = _draws(node)
    return [(Fraction(wi, total),) + _move(node, b, part, q, cfg, cap, answers)
            for wb, b, parts in draws for wi, part in parts or [(wb, None)]]


# --- the folds ---

def simulate_sample(rp: RefinedProtocol, z, cfg: SimConfig, seed: int) -> SimOutcome:
    """One reproducible run of the random walk: one _pick at a Bob node, two
    (the bit, then the part) at an Alice node, each taken with exactly its
    rational probability.  Every seeded report depends on this draw order."""
    cap, answer = _walk_shared(rp, z, cfg)
    rng = random.Random(seed)
    node = rp.root
    transcript, queries, ledger = [], [], []
    while not isinstance(node, RLeaf):
        pot_before = node.potential
        total, draws = _draws(node)
        wb, b, parts = _pick(rng, total, draws)
        part = None if parts is None else _pick(rng, wb, parts)[1]
        coords, ((_, msgs, target, _),) = _move(node, b, part, len(queries),
                                                  cfg, cap, answer)
        if part is None:
            gamma = delta = Fraction(1)
            pot_after = node.children[b].potential
        else:
            gamma = Fraction(total, wb)
            if target == QUERY_CAP:
                # no part announcement and no queries: only Alice's bit counts
                delta, pot_after = Fraction(1), pot_before * gamma
            else:
                # the part's potential exists even when the bit-fixing child does not
                delta, pot_after = part.delta_ratio, part.potential
        ledger.append(LedgerRow(len(ledger) + 1, gamma, delta, len(coords),
                                pot_before, pot_after))
        queries.extend(coords)
        transcript.extend(msgs)
        if isinstance(target, str):
            return SimOutcome(None, BOT, target, tuple(queries), tuple(ledger), rp.G.m)
        node = target
    return SimOutcome(tuple(transcript), node.value, None, tuple(queries),
                      tuple(ledger), rp.G.m)


def simulate_exact(rp: RefinedProtocol, z, cfg: SimConfig) -> SimExact:
    """Aggregate the walk's exact outcome distribution by weighted traversal."""
    cap, answer = _walk_shared(rp, z, cfg)
    transcripts, queries, reasons, values = {}, {}, {}, {}
    visited = 0

    def tally(w, t, q, value):
        for d, key in ((transcripts, t), (queries, q), (values, value)):
            d[key] = d[key] + w if key in d else w

    def walk(node, w, q, t):
        nonlocal visited
        visited += 1
        if visited > NODE_BUDGET:
            raise ResourceError("exact simulation traversal", visited, NODE_BUDGET)
        if isinstance(node, RLeaf):
            tally(w, t, q, node.value)
            return
        for p, _, ((_, msgs, target, q2),) in _steps(node, q, cfg, cap, answer):
            if isinstance(target, str):
                tally(w * p, BOT, q2, BOT)
                reasons[target] = reasons.get(target, 0) + w * p
            else:
                walk(target, w * p, q2, t + msgs)

    walk(rp.root, Fraction(1), 0, ())
    return SimExact(ExactDist(transcripts), ExactDist(queries), reasons,
                    ExactDist(values))


def ledger_check(outcome: SimOutcome, delta) -> bool:
    """Exact check of the potential bookkeeping of one run.

    Per iteration: the new potential is at most the old one plus the two
    announced drops minus (1-delta) log m per query (the partition-lemma
    deficiency bound).  In aggregate: (1-delta) log m times the total query
    count is at most the sum of all drops, since the potential starts at zero
    and stays nonnegative.  Both are one cmp_pow on the potentials' ratios.
    """
    delta = as_fraction(delta)
    k = outcome.m.bit_length() - 1
    rate = (1 - delta) * k
    product = Fraction(1)
    total_queries = 0
    for row in outcome.ledger:
        drop = row.gamma_ratio * row.delta_ratio
        if cmp_pow(row.potential_after / (row.potential_before * drop), 2,
                   -rate * row.queries) > 0:
            return False
        product *= drop
        total_queries += row.queries
    return cmp_pow(product, 2, rate * total_queries) >= 0


def _merge_components(components):
    """Sum the weights of equal trees, in first-occurrence order."""
    merged = {}
    for w, root in components:
        merged[root] = merged.get(root, 0) + w
    return [(w, root) for root, w in merged.items()]


def protocol_to_dt(PI, cfg: SimConfig = SimConfig(),
                   pair_budget: int = PAIR_BUDGET_DEFAULT) -> RandomizedDecisionTree:
    """Lift a protocol to a randomized decision tree.

    Pick a deterministic component, refine it, and realize the simulator's
    walk over the refined tree as an explicit mixture of deterministic
    decision trees whose leaves carry the refined-leaf values (bottom leaves
    preserved).  Distinct query branches get independent realizations, which
    leaves the per-input output distribution unchanged.
    """
    G = PI.G
    components = (PI.components if isinstance(PI, RandomizedProtocol)
                  else [(Fraction(1), PI)])
    cap = cfg.cap_bits(G.n)
    out = []

    def realize(node, q):
        """Mixture of deterministic subtrees for the walk started at node."""
        if isinstance(node, RLeaf):
            return [(Fraction(1), DLeaf(node.value))]
        mix = []
        for p, coords, landings in _steps(node, q, cfg, cap,
                                          lambda part: sorted(part.s_children)):
            per_s = {s: [(Fraction(1), DLeaf(BOT))] if isinstance(target, str)
                     else realize(target, q2) for s, _, target, q2 in landings}
            mix.extend((p * w, t) for w, t in query_chains(coords, per_s))
        return _merge_components(mix)

    def query_chains(coords, per_s):
        """Tensor the independent realizations of each answer s into a
        mixture of query chains over coords."""
        if not coords:
            return per_s[""]
        answers = sorted(per_s)
        size = math.prod(len(per_s[s]) for s in answers)
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
        return _merge_components(
            [(math.prod(w for w, _ in combo),
              chain(coords, "", dict(zip(answers, (t for _, t in combo)))))
             for combo in itertools.product(*(per_s[s] for s in answers))]
        )

    for w, pt in components:
        rp = refine(pt, cfg.delta, pair_budget=pair_budget)
        out.extend((w * wt, t) for wt, t in realize(rp.root, 0))
        if len(out) > COMPONENT_BUDGET:
            raise ResourceError("decision-tree realization", len(out), COMPONENT_BUDGET)
    merged = _merge_components(out)
    return RandomizedDecisionTree(G.n, [(w, DecisionTree(G.n, t)) for w, t in merged])
