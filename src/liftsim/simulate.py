"""The randomized decision-tree simulator over a refined protocol.

On input z the simulator walks the refined tree pretending Alice's and Bob's
inputs are uniform on the current rectangle: Bob bits are taken with
probability |Y^b|/|Y|, Alice bits with |X^b|/|X|, parts with |X^i|/|X|; at a
bit-fixing round it queries z on the newly fixed blocks and sends exactly
those bits, failing with a bottom outcome if that child does not exist.
Failures are also produced by the optional deficiency cutoff and query cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import BOT
from .entropy import Bits, as_fraction
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
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not 0 < self.delta < 1:
            raise DomainError("delta must be in (0,1)")
        if self.deficiency_cap is not None:
            object.__setattr__(self, "deficiency_cap", as_fraction(self.deficiency_cap))
            if self.deficiency_cap <= 0:
                raise DomainError("deficiency cap must be positive")
        if self.query_cap is not None and self.query_cap <= 0:
            raise DomainError("query cap must be positive")

    def cap_bits(self, n: int) -> Bits:
        cap = self.deficiency_cap if self.deficiency_cap is not None else Fraction(n ** 3)
        return Bits.rational(cap)


@dataclass(frozen=True)
class LedgerRow:
    """Per-iteration potential bookkeeping, as exact ratios (their log2 is the
    quantity in bits, which is irrational in general, so the ratio is stored)."""

    iteration: int
    gamma_ratio: Fraction      # |X| / |X^b| at the Alice bit (1 on Bob iterations)
    delta_ratio: Fraction      # |X^b| / |X^(>=i)| at the part announcement
    queries: int
    potential_before: Bits
    potential_after: Bits


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class SimOutcome:
    transcript: tuple | None   # None on failure
    value: object              # leaf value, or BOT on failure
    failure: str | None        # IMPOSSIBLE_S | DEFICIENCY_CUTOFF | QUERY_CAP
    queries: tuple             # coordinates in query order
    ledger: tuple
    n: int
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
                    "gamma_ratio": _frac_str(row.gamma_ratio),
                    "delta_ratio": _frac_str(row.delta_ratio),
                    "queries": row.queries,
                    "potential_before_bits": float(row.potential_before),
                    "potential_after_bits": float(row.potential_after),
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
    """Validation shared by the samplers."""
    z = tuple(z)
    if len(z) != rp.G.n:
        raise DomainError("z arity mismatch")
    if any(c not in (0, 1) for c in z):
        raise DomainError("z must be a bit string")
    return z, cfg.cap_bits(rp.G.n)


def simulate_sample(rp: RefinedProtocol, z, cfg: SimConfig, seed: int) -> SimOutcome:
    """One reproducible run of the random walk.

    Branch choices draw a uniform integer below the exact denominator, so each
    branch is taken with exactly its rational probability.
    """
    z, cap = _walk_shared(rp, z, cfg)
    rng = random.Random(seed)
    G = rp.G
    node = rp.root
    transcript = []
    queries = []
    ledger = []
    iteration = 0

    def bot(reason):
        return SimOutcome(None, BOT, reason, tuple(queries), tuple(ledger), G.n, G.m)

    while not isinstance(node, RLeaf):
        iteration += 1
        pot_before = node.potential
        if isinstance(node, RBob):
            sizes = [node.children[b].rect.y_size if node.children[b] else 0
                     for b in (0, 1)]
            r = rng.randrange(sizes[0] + sizes[1])
            b = 0 if r < sizes[0] else 1
            transcript.append(("b", b))
            node = node.children[b]
            ledger.append(LedgerRow(iteration, Fraction(1), Fraction(1), 0,
                                    pot_before, node.potential))
            if cfg.strict_zpp and node.def_y > cap:
                return bot(DEFICIENCY_CUTOFF)
            continue
        total = len(node.rect.X)
        sizes = [len(node.branches[b].X) if node.branches[b] else 0 for b in (0, 1)]
        r = rng.randrange(total)
        b = 0 if r < sizes[0] else 1
        br = node.branches[b]
        gamma = Fraction(total, sizes[b])
        r = rng.randrange(sizes[b])
        acc = 0
        part = None
        for p in br.parts:
            acc += len(p.X)
            if r < acc:
                part = p
                break
        if cfg.query_cap is not None and len(queries) + len(part.coords) > cfg.query_cap:
            # abort right after the bit: no part announcement, no queries
            transcript.append(("b", b))
            ledger.append(LedgerRow(iteration, gamma, Fraction(1), 0,
                                    pot_before, pot_before + Bits.log2(gamma)))
            return bot(QUERY_CAP)
        queries.extend(part.coords)
        s = "".join(str(z[i - 1]) for i in part.coords)
        transcript.extend([("b", b), ("i", part.order), ("s", s)])
        child = part.s_children[s]
        # the X-side potential after this iteration exists even when the
        # bit-fixing child does not
        free_after = len(node.rho.free) - len(part.coords)
        pot_after = Bits.log2(
            Fraction(2 ** (free_after * (G.m.bit_length() - 1)), len(part.X)))
        row = LedgerRow(iteration, gamma, part.delta_ratio, len(part.coords),
                        pot_before, pot_after)
        ledger.append(row)
        if child is None:
            return bot(IMPOSSIBLE_S)
        node = child
        if cfg.strict_zpp and node.def_y > cap:
            return bot(DEFICIENCY_CUTOFF)
    return SimOutcome(tuple(transcript), node.value, None, tuple(queries),
                      tuple(ledger), G.n, G.m)


def simulate_exact(rp: RefinedProtocol, z, cfg: SimConfig,
                   node_budget: int = 10 ** 6) -> SimExact:
    """Aggregate the walk's exact outcome distribution by weighted traversal."""
    z, cap = _walk_shared(rp, z, cfg)
    transcripts = {}
    queries = {}
    reasons = {}
    values = {}
    visited = 0

    def add_bot(w, q, reason):
        transcripts[BOT] = transcripts.get(BOT, Fraction(0)) + w
        queries[q] = queries.get(q, Fraction(0)) + w
        reasons[reason] = reasons.get(reason, Fraction(0)) + w
        values[BOT] = values.get(BOT, Fraction(0)) + w

    def enter(child, w, q, t):
        if cfg.strict_zpp and child.def_y > cap:
            add_bot(w, q, DEFICIENCY_CUTOFF)
            return
        walk(child, w, q, t)

    def walk(node, w, q, t):
        nonlocal visited
        visited += 1
        if visited > node_budget:
            raise ResourceError("exact simulation traversal", visited, node_budget)
        if isinstance(node, RLeaf):
            transcripts[t] = transcripts.get(t, Fraction(0)) + w
            queries[q] = queries.get(q, Fraction(0)) + w
            values[node.value] = values.get(node.value, Fraction(0)) + w
            return
        if isinstance(node, RBob):
            total = node.rect.y_size
            for b in (0, 1):
                child = node.children[b]
                if child is None:
                    continue
                pb = Fraction(child.rect.y_size, total)
                enter(child, w * pb, q, t + (("b", b),))
            return
        total = len(node.rect.X)
        for b in (0, 1):
            br = node.branches[b]
            if br is None:
                continue
            wb = w * Fraction(len(br.X), total)
            for part in br.parts:
                wp = wb * Fraction(len(part.X), len(br.X))
                tp = t + (("b", b), ("i", part.order))
                if (cfg.query_cap is not None
                        and q + len(part.coords) > cfg.query_cap):
                    add_bot(wp, q, QUERY_CAP)
                    continue
                s = "".join(str(z[i - 1]) for i in part.coords)
                child = part.s_children[s]
                if child is None:
                    add_bot(wp, q + len(part.coords), IMPOSSIBLE_S)
                    continue
                enter(child, wp, q + len(part.coords), tp + (("s", s),))

    walk(rp.root, Fraction(1), 0, ())
    return SimExact(ExactDist(transcripts), ExactDist(queries), reasons,
                    ExactDist(values))


def ledger_check(outcome: SimOutcome, delta) -> bool:
    """Exact check of the potential bookkeeping of one run.

    Per iteration: the new potential is at most the old one plus the two
    announced drops minus (1-delta) log m per query (the partition-lemma
    deficiency bound).  In aggregate: (1-delta) log m times the total query
    count is at most the sum of all drops, since the potential starts at zero
    and stays nonnegative.
    """
    delta = as_fraction(delta)
    k = outcome.m.bit_length() - 1
    rate = (1 - delta) * k
    product = Fraction(1)
    total_queries = 0
    for row in outcome.ledger:
        drop = Bits.log2(row.gamma_ratio * row.delta_ratio)
        bound = row.potential_before + drop - Bits.rational(rate * row.queries)
        if row.potential_after > bound:
            return False
        product *= row.gamma_ratio * row.delta_ratio
        total_queries += row.queries
    return Bits.rational(rate * total_queries) <= Bits.log2(product)


def _merge_components(components):
    merged = {}
    order = []

    def key(node):
        if isinstance(node, DLeaf):
            v = node.value
            return ("L", "bot" if v is BOT else v)
        return ("Q", node.coord, key(node.zero), key(node.one))

    for w, root in components:
        k = key(root)
        if k in merged:
            merged[k] = (merged[k][0] + w, merged[k][1])
        else:
            merged[k] = (w, root)
            order.append(k)
    return [merged[k] for k in order]


def protocol_to_dt(PI, cfg: SimConfig = SimConfig(),
                   component_budget: int = 10 ** 5,
                   pair_budget: int | None = None) -> RandomizedDecisionTree:
    """Lift a protocol to a randomized decision tree.

    Pick a deterministic component, refine it, and realize the simulator's
    walk over the refined tree as an explicit mixture of deterministic
    decision trees whose leaves carry the refined-leaf values (bottom leaves
    preserved).  Distinct query branches get independent realizations, which
    leaves the per-input output distribution unchanged.
    """
    from .core import PAIR_BUDGET_DEFAULT

    if isinstance(PI, RandomizedProtocol):
        components = PI.components
        G = PI.G
    else:
        components = [(Fraction(1), PI)]
        G = PI.G
    budget = PAIR_BUDGET_DEFAULT if pair_budget is None else pair_budget
    cap = cfg.cap_bits(G.n)
    out = []

    def realize(node, q):
        """Mixture of deterministic subtrees for the walk started at node."""
        if isinstance(node, RLeaf):
            return [(Fraction(1), DLeaf(node.value))]
        if isinstance(node, RBob):
            total = node.rect.y_size
            mix = []
            for b in (0, 1):
                child = node.children[b]
                if child is None:
                    continue
                pb = Fraction(child.rect.y_size, total)
                for w, t in enter(child, q):
                    mix.append((pb * w, t))
            return _merge_components(mix)
        total = len(node.rect.X)
        mix = []
        for b in (0, 1):
            br = node.branches[b]
            if br is None:
                continue
            pb = Fraction(len(br.X), total)
            for part in br.parts:
                pp = pb * Fraction(len(part.X), len(br.X))
                if (cfg.query_cap is not None
                        and q + len(part.coords) > cfg.query_cap):
                    mix.append((pp, DLeaf(BOT)))
                    continue
                sub = query_chain(part, q)
                for w, t in sub:
                    mix.append((pp * w, t))
        return _merge_components(mix)

    def enter(child, q):
        if cfg.strict_zpp and child.def_y > cap:
            return [(Fraction(1), DLeaf(BOT))]
        return realize(child, q)

    def query_chain(part, q):
        """Tensor the independent realizations of the bit-fixing children into
        a mixture of query chains over part.coords."""
        coords = part.coords
        if not coords:
            (s, child), = part.s_children.items()
            assert s == ""
            if child is None:
                return [(Fraction(1), DLeaf(BOT))]
            return enter(child, q)
        per_s = {}
        for s, child in part.s_children.items():
            if child is None:
                per_s[s] = [(Fraction(1), DLeaf(BOT))]
            else:
                per_s[s] = enter(child, q + len(coords))
        s_values = sorted(per_s)
        combos = [(Fraction(1), {})]
        for s in s_values:
            nxt = []
            for w, chosen in combos:
                for ws, ts in per_s[s]:
                    if len(nxt) > component_budget:
                        raise ResourceError("decision-tree realization",
                                            len(nxt), component_budget)
                    nxt.append((w * ws, {**chosen, s: ts}))
            combos = nxt

        def chain(coords_left, prefix, chosen):
            if not coords_left:
                return chosen[prefix]
            c = coords_left[0]
            return DQuery(c,
                          chain(coords_left[1:], prefix + "0", chosen),
                          chain(coords_left[1:], prefix + "1", chosen))

        return _merge_components(
            [(w, chain(coords, "", chosen)) for w, chosen in combos]
        )

    for w, pt in components:
        rp = refine(pt, cfg.delta, pair_budget=budget)
        for wt, t in realize(rp.root, 0):
            out.append((w * wt, t))
        if len(out) > component_budget:
            raise ResourceError("decision-tree realization", len(out), component_budget)
    merged = _merge_components(out)
    return RandomizedDecisionTree(G.n, [(w, DecisionTree(G.n, t)) for w, t in merged])
