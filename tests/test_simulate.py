"""Simulator walk, exact distribution, ledger, and lifting tests."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftsim import simulate
from liftsim.core import BOT, ComposedInstance, ExplicitBobSet, PartialAssignment, Rect
from liftsim.entropy import cmp_pow
from liftsim.errors import DomainError, ResourceError
from liftsim.fixtures import (
    bob_first_fixture,
    instance,
    one_bit_fixture,
    random_protocol,
    sweep_family,
    third_error_mixture,
    xor_decision_tree,
    xor_outer,
)
from liftsim.protocol import (
    DecisionTree,
    DLeaf,
    PLeaf,
    ProtocolTree,
    RBob,
    RLeaf,
    RandomizedProtocol,
    dt_eval,
    dt_to_protocol,
    refine,
)
from liftsim.simulate import (
    DEFICIENCY_CUTOFF,
    IMPOSSIBLE_S,
    QUERY_CAP,
    ExactDist,
    LedgerRow,
    SimConfig,
    ledger_check,
    ledger_exact,
    protocol_to_dt,
    simulate_exact,
    simulate_sample,
    simulate_samples,
    walk_law,
)

CFG = SimConfig()


def zero_comm(n=1, m=2, value=1):
    return refine(ProtocolTree(instance(n, m), PLeaf(value)), CFG.delta)


# --- ExactDist ---

def test_exactdist_validates():
    with pytest.raises(DomainError):
        ExactDist({"a": 1}, 2)
    d = ExactDist({"a": 1, "b": 1, "c": 0})
    assert d.support == {"a", "b"}
    assert d.prob("c") == 0
    assert ExactDist({"a": 2, "b": 2}) == ExactDist({"a": 1, "b": 1}, 2) == d


@pytest.mark.parametrize("k", [1, 7, 64, 300])
def test_exactdist_refuses_sums_off_by_a_power_of_two(k):
    """A distribution whose probabilities sum to 1 +- 1/2^k is refused."""
    unit = 2 ** (k + 1)   # a third, over the denominator 3 * unit
    for c in (unit + 6, unit - 3):
        with pytest.raises(DomainError, match="sum to exactly 1"):
            ExactDist({"a": unit, "b": unit, "c": c}, 3 * unit)
    assert ExactDist({"a": unit, "b": unit, "c": unit}, 3 * unit).prob("c") == Fraction(1, 3)


class FractionDist:
    """ExactDist as it was written, one reduced Fraction per outcome and the
    sum-to-one check a Fraction sum: the reference for its integer counts
    over one denominator."""

    def __init__(self, mapping):
        probs = {}
        for o, p in dict(mapping).items():
            p = p if isinstance(p, Fraction) else Fraction(p)
            if p < 0:
                raise DomainError("negative probability")
            if p:
                probs[o] = p
        if sum(probs.values(), Fraction(0)) != 1:
            raise DomainError("probabilities must sum to exactly 1")
        self.p = probs

    @classmethod
    def from_counts(cls, counts):
        total = sum(counts.values())
        if total <= 0:
            raise DomainError("empty count table")
        return cls({o: Fraction(c, total) for o, c in counts.items() if c})


def _as_counts(probs):
    """A rational table as integer counts over the lcm of its denominators."""
    den = math.lcm(*(p.denominator for p in probs.values()))
    return {o: p.numerator * (den // p.denominator) for o, p in probs.items()}, den


def _rational_table(args):
    """Positive weights over their sum, so denominators are mixed, an
    integral one kept as an int; then the last entry is left, moved off by
    off (the sum is no longer 1) or negated."""
    weights, how, off = args
    total = sum(weights.values())
    probs = {o: w / total if total else w for o, w in weights.items()}
    probs = {o: int(p) if p.denominator == 1 else p for o, p in probs.items()}
    last = next(reversed(probs))
    probs[last] = {"as is": probs[last], "off": probs[last] + off, "negated": -probs[last]}[how]
    return probs


_rational_tables = st.tuples(
    st.dictionaries(st.sampled_from("abcdef"), st.fractions(0, 1, max_denominator=24),
                    min_size=1),
    st.sampled_from(["as is", "as is", "off", "negated"]),
    st.fractions(Fraction(-1, 8), Fraction(1, 8), max_denominator=64).filter(bool),
).map(_rational_table)


@settings(max_examples=400, deadline=None, database=None)
@given(route=st.sampled_from(["rationals", "counts"]),
       rationals=_rational_tables,
       counts=st.dictionaries(st.sampled_from("abcdef"), st.integers(-2, 30)),
       scale=st.integers(2, 9))
def test_exactdist_counts_match_the_fraction_class(route, rationals, counts, scale):
    """Integer counts over one lowest-terms denominator give the Fraction
    class's probabilities, order and support, and refuse what it refuses with
    the same message; a count table scaled by any factor is the same
    distribution."""
    mapping = rationals if route == "rationals" else counts
    args = _as_counts(rationals) if route == "rationals" else (counts,)
    try:
        want = (FractionDist if route == "rationals" else FractionDist.from_counts)(mapping)
    except DomainError as refusal:
        with pytest.raises(DomainError) as err:
            ExactDist(*args)
        assert str(err.value) == str(refusal)
        return
    got = ExactDist(*args)
    assert got.items() == list(want.p.items())
    assert got.support == frozenset(want.p)
    for o in "abcdefg":
        assert got.prob(o) == want.p.get(o, 0)
    assert got.total == math.lcm(*(p.denominator for p in want.p.values()))
    assert math.gcd(got.total, *got.counts.values()) == 1
    assert got == ExactDist(*_as_counts(want.p)) == ExactDist(*_as_counts(dict(got.items())))
    assert got == ExactDist({o: scale * c for o, c in got.counts.items()})
    if route == "counts":
        assert got == ExactDist({o: scale * c for o, c in counts.items()})
    a, *rest = got.counts
    if rest:
        moved = {**got.counts, a: got.counts[a] + 1, rest[0]: got.counts[rest[0]] - 1}
        assert got != ExactDist(moved, got.total)
    with pytest.raises(DomainError, match="^probabilities must sum to exactly 1$"):
        ExactDist(got.counts, got.total + 1)


# --- sampling ---

def test_sample_zero_communication():
    out = simulate_sample(walk_law(zero_comm(), CFG), (0,), seed=1)
    assert out.transcript == () and out.value == 1
    assert out.queries == () and out.failure is None


def test_sample_one_bit_fixture_hand_trace():
    law = walk_law(refine(one_bit_fixture(), CFG.delta), CFG)
    for seed in range(40):
        out = simulate_sample(law, (0,), seed=seed)
        assert out.failure is None
        assert out.queries == (1,)
        b = out.transcript[0][1]
        assert out.transcript == (("b", b), ("i", 1), ("s", "0"))


def test_sample_reproducible():
    law = walk_law(refine(bob_first_fixture(), CFG.delta), CFG)
    a = simulate_sample(law, (1,), seed=77)
    b = simulate_sample(law, (1,), seed=77)
    assert a == b


def test_sample_reads_only_the_law(monkeypatch):
    """Once the law is built, a run only reads its draws: walk_law is the only
    code that builds a move or a ledger row, and the sampler does not call
    it; a run is one of its law's own events, and its ledger holds the law's
    own row objects."""
    laws = [walk_law(rp, cfg) for rp in _walk_cases() for cfg in PINNED_CONFIGS]

    def runs():
        return [[simulate_sample(law, z, seed=seed)
                 for z in itertools.product((0, 1), repeat=law.G.n) for seed in range(4)]
                for law in laws]

    before = runs()

    def rebuilt(*args):
        raise AssertionError("the sampler rebuilt a move of the walk")

    monkeypatch.setattr(simulate, "walk_law", rebuilt)
    assert runs() == before
    for law, outs in zip(laws, before):
        events = {id(e) for e in law.events}
        assert all(id(out) in events for out in outs)
    law_rows = {id(row) for law in laws for e in law.events for row in e.ledger}
    assert all(id(row) in law_rows for outs in before for out in outs for row in out.ledger)


def test_query_count_equals_fixed_blocks():
    rng = random.Random(5)
    for _ in range(15):
        n, m = rng.choice([(1, 2), (2, 2), (2, 4)])
        G = instance(n, m)
        law = walk_law(refine(random_protocol(rng, G, 3), CFG.delta), CFG)
        for seed in range(30):
            z = tuple(rng.randint(0, 1) for _ in range(n))
            out = simulate_sample(law, z, seed=seed)
            if out.failure is None:
                # locate the terminal leaf by replaying the transcript choices
                assert sorted(set(out.queries)) == list(out.queries)
                leaf_fix = out.transcript
                fixed = [msg for msg in leaf_fix if msg[0] == "s"]
                assert sum(len(s) for _, s in fixed) == len(out.queries)


# --- exact distribution ---

def test_exact_zero_communication():
    sim = simulate_exact(walk_law(zero_comm(), CFG), (0,))
    assert sim.transcripts == ExactDist({(): 1})
    assert sim.queries == ExactDist({0: 1})
    assert sim.bot_reasons == {}


def test_exact_one_bit_fixture():
    rp = refine(one_bit_fixture(), CFG.delta)
    sim = simulate_exact(walk_law(rp, CFG), (0,))
    assert sim.transcripts == ExactDist({
        (("b", 1), ("i", 1), ("s", "0")): 1,
        (("b", 0), ("i", 1), ("s", "0")): 1,
    })
    assert sim.queries == ExactDist({1: 1})


def test_exact_bob_first_has_quarter_bot():
    """Bob announces y_1; on the branch disagreeing with z the part fixing
    x=1 has no consistent child: bot mass = 1/2 * 1/2."""
    law = walk_law(refine(bob_first_fixture(), CFG.delta), CFG)
    for z in ((0,), (1,)):
        sim = simulate_exact(law, z)
        assert sim.transcripts.prob(BOT) == Fraction(1, 4)
        assert sim.bot_reasons == {IMPOSSIBLE_S: Fraction(1, 4)}
        # the impossible-s bottom is charged the q + |I| queries it made
        assert sim.queries == ExactDist({1: 1})


def reference_walk(rp, z, cfg):
    """The walk's exact law on z, written from the rules in simulate.py's
    docstring over the refined tree's data alone: rectangle sizes, parts,
    s_children and def_y.  Returns the transcript, query-count, value and
    bottom-reason masses as dicts."""
    cap = cfg.deficiency_cap if cfg.deficiency_cap is not None else Fraction(rp.G.n ** 3)
    transcripts, queries, values, reasons = {}, {}, {}, {}

    def add(d, key, w):
        d[key] = d.get(key, 0) + w

    def end(w, transcript, q, value):
        add(transcripts, transcript, w)
        add(queries, q, w)
        add(values, value, w)

    def bottom(w, reason, q):
        end(w, BOT, q, BOT)
        add(reasons, reason, w)

    def enter(w, child, t, q):
        # strict ZPP cuts when def_y > 2^cap, i.e. def_y^c > 2^a for cap = a/c
        if cfg.strict_zpp and child.def_y ** cap.denominator > 2 ** cap.numerator:
            bottom(w, DEFICIENCY_CUTOFF, q)
        else:
            visit(w, child, t, q)

    def visit(w, node, t, q):
        if isinstance(node, RLeaf):
            end(w, t, q, node.value)
        elif isinstance(node, RBob):
            for b, child in node.children.items():
                if child is not None:
                    enter(w * Fraction(child.rect.Y.size, node.rect.Y.size), child,
                          t + (("b", b),), q)
        else:
            for b, parts in node.branches.items():
                for part in parts or ():
                    # |X^b|/|X| for the bit, times |X^i|/|X^b| for the part
                    wp = w * Fraction(len(part.X), len(node.rect.X))
                    q2 = q + len(part.coords)
                    if cfg.query_cap is not None and q2 > cfg.query_cap:
                        bottom(wp, QUERY_CAP, q)
                        continue
                    s = "".join(str(z[i - 1]) for i in part.coords)
                    if part.s_children[s] is None:
                        bottom(wp, IMPOSSIBLE_S, q2)
                    else:
                        enter(wp, part.s_children[s],
                              t + (("b", b), ("i", part.order), ("s", s)), q2)

    visit(Fraction(1), rp.root, (), 0)
    return transcripts, queries, values, reasons


def _reference_cases():
    """Every bundled fixture and 16 seeded random protocols at n <= 2, m <= 4."""
    pts = [one_bit_fixture(2), one_bit_fixture(4), bob_first_fixture(2),
           bob_first_fixture(4)]
    pts += [pt for n in (1, 2) for _, pt in sweep_family(n, 4)]
    rng = random.Random(41)
    for shape in ((1, 2), (1, 4), (2, 2), (2, 4)):
        pts += [random_protocol(rng, instance(*shape), 3) for _ in range(4)]
    return [refine(pt, CFG.delta) for pt in pts]


REFERENCE_CONFIGS = {
    "default": SimConfig(),
    "strict-zpp": SimConfig(strict_zpp=True, deficiency_cap=1),
    "query-cap": SimConfig(query_cap=1),
    "both": SimConfig(strict_zpp=True, deficiency_cap=1, query_cap=1),
}


@pytest.mark.parametrize("kind", REFERENCE_CONFIGS)
def test_exact_matches_reference_walk(kind):
    """simulate_exact's transcripts, queries charged, values and bottom-reason
    masses equal the reference walk's on every z of every case."""
    cfg = REFERENCE_CONFIGS[kind]
    reasons_seen = set()
    for rp in _reference_cases():
        law = walk_law(rp, cfg)
        for z in itertools.product((0, 1), repeat=rp.G.n):
            transcripts, queries, values, reasons = reference_walk(rp, z, cfg)
            sim = simulate_exact(law, z)
            assert dict(sim.transcripts.items()) == transcripts
            assert dict(sim.queries.items()) == queries
            assert dict(sim.values.items()) == values
            assert sim.bot_reasons == reasons
            reasons_seen |= set(reasons)
    # every bottom reason the config allows is reached somewhere
    expected = {IMPOSSIBLE_S}
    expected |= {DEFICIENCY_CUTOFF} if cfg.strict_zpp else set()
    expected |= {QUERY_CAP} if cfg.query_cap else set()
    assert reasons_seen == expected


def reference_sample(rp, z, cfg, seed):
    """One seeded run of the walk on z, written from the rules in
    simulate.py's docstring over the refined tree's data alone: rectangle
    sizes, parts, s_children, def_y and potentials.  It draws in the pinned
    order: one randrange at a Bob node (the bit, |Y^b| of |Y|), two at an
    Alice node (the bit, |X^b| of |X| with |X^b| the sum of its parts'
    |X^i|, then the part, |X^i| of |X^b|), each over its entries in order
    with absent children and branches skipped."""
    cap = cfg.deficiency_cap if cfg.deficiency_cap is not None else Fraction(rp.G.n ** 3)
    rng = random.Random(seed)
    transcript, queries, ledger = [], [], []

    def pick(total, entries):
        r = rng.randrange(total)
        for w, x in entries:
            if r < w:
                return x
            r -= w

    def bottom(reason):
        return BOT, BOT, reason, tuple(queries), tuple(ledger)

    def bits(rho, fixing=()):
        # the potential's power of 2: log m per block still free after fixing
        return rp.G.log_m * (len(rho.free) - len(fixing))

    node = rp.root
    while not isinstance(node, RLeaf):
        row = functools.partial(LedgerRow, len(ledger) + 1)
        before = (bits(node.rho), len(node.rect.X))
        if isinstance(node, RBob):
            b, child = pick(node.rect.Y.size, [(c.rect.Y.size, (b, c))
                                               for b, c in node.children.items()
                                               if c is not None])
            ledger.append(row(0, (1, 1), (1, 1), before,
                              (bits(child.rho), len(child.rect.X))))
            transcript.append(("b", b))
        else:
            branches = [(sum(len(p.X) for p in ps), b, ps)
                        for b, ps in node.branches.items() if ps is not None]
            xb, b, parts = pick(len(node.rect.X), [(br[0], br) for br in branches])
            part = pick(xb, [(len(p.X), p) for p in parts])
            gamma = (len(node.rect.X), xb)
            if cfg.query_cap is not None and len(queries) + len(part.coords) > cfg.query_cap:
                # the potential after Alice's bit alone, before * gamma
                ledger.append(row(0, gamma, (1, 1), before, (before[0], xb)))
                return bottom(QUERY_CAP)
            queries.extend(part.coords)
            # |X^b| over what remained before the part was peeled: the parts
            # from this one on, in announcement order
            tail = sum(len(p.X) for p in parts if p.order >= part.order)
            ledger.append(row(len(part.coords), gamma, (xb, tail), before,
                              (bits(node.rho, part.coords), len(part.X))))
            s = "".join(str(z[i - 1]) for i in part.coords)
            child = part.s_children[s]
            if child is None:
                return bottom(IMPOSSIBLE_S)
            transcript.extend((("b", b), ("i", part.order), ("s", s)))
        # strict ZPP cuts when def_y > 2^cap, i.e. def_y^c > 2^a for cap = a/c
        if cfg.strict_zpp and child.def_y ** cap.denominator > 2 ** cap.numerator:
            return bottom(DEFICIENCY_CUTOFF)
        node = child
    return tuple(transcript), node.value, None, tuple(queries), tuple(ledger)


@pytest.mark.parametrize("kind", REFERENCE_CONFIGS)
def test_sample_matches_reference_sample(kind):
    """simulate_sample's transcript, value, failure, queries and every ledger
    row equal the reference run's on every z of every case, seeds 0-7."""
    cfg = REFERENCE_CONFIGS[kind]
    reasons_seen = set()
    for rp in _reference_cases():
        law = walk_law(rp, cfg)
        for z in itertools.product((0, 1), repeat=rp.G.n):
            for seed in range(8):
                out = simulate_sample(law, z, seed=seed)
                ref = reference_sample(rp, z, cfg, seed)
                assert (out.transcript, out.value, out.failure, out.queries, out.ledger) == ref
                reasons_seen.add(out.failure)
    expected = {None, IMPOSSIBLE_S}
    expected |= {DEFICIENCY_CUTOFF} if cfg.strict_zpp else set()
    expected |= {QUERY_CAP} if cfg.query_cap else set()
    assert reasons_seen == expected


def test_sample_frequencies_match_exact():
    rp = refine(bob_first_fixture(), CFG.delta)
    z = (0,)
    law = walk_law(rp, CFG)
    sim = simulate_exact(law, z)
    n_samples = 4000
    counts = {}
    for seed in range(n_samples):
        out = simulate_sample(law, z, seed=seed)
        counts[out.transcript] = counts.get(out.transcript, 0) + 1
    assert set(counts) <= sim.transcripts.support
    for o in sim.transcripts.support:
        p = float(sim.transcripts.prob(o))
        freq = counts.get(o, 0) / n_samples
        se = math.sqrt(p * (1 - p) / n_samples)
        assert abs(freq - p) <= 3 * se + 1e-12


# --- cutoffs ---

def test_strict_zpp_deficiency_cutoff():
    # cap of 1 bit: fixing one pointer bit is fine, a Bob announcement plus a
    # fixing round is not.
    rp = refine(bob_first_fixture(), CFG.delta)
    tight = SimConfig(deficiency_cap=Fraction(1), strict_zpp=True)
    sim = simulate_exact(walk_law(rp, tight), (0,))
    assert sim.bot_reasons.get(DEFICIENCY_CUTOFF, 0) > 0
    loose = SimConfig(deficiency_cap=Fraction(100), strict_zpp=True)
    sim2 = simulate_exact(walk_law(rp, loose), (0,))
    assert DEFICIENCY_CUTOFF not in sim2.bot_reasons


def test_strict_zpp_gate_on_emitted_transcripts():
    """With strict_zpp on, every emitted transcript ends at a structured
    rectangle with deficiency within the cap."""
    from liftsim.core import is_structured

    rng = random.Random(9)
    for _ in range(10):
        G = instance(2, 2)
        rp = refine(random_protocol(rng, G, 3), CFG.delta)
        cfg = SimConfig(strict_zpp=True)
        cap = cfg.cap_bits(G.n)
        leaves = dict(rp.leaves())
        sim = simulate_exact(walk_law(rp, cfg), (0, 1))
        for t in sim.transcripts.support:
            if t is BOT:
                continue
            leaf = leaves[t]
            assert cmp_pow(leaf.def_y, 2, cap) <= 0
            assert is_structured(leaf.rect, leaf.rho, CFG.delta, G)


@settings(max_examples=25, deadline=None, database=None)
@given(proto_seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from([(1, 2), (1, 4), (2, 2)]),
       depth=st.integers(1, 4), query_cap=st.sampled_from([None, 1, 2]))
def test_leaf_events_hold_their_leaf_transcripts(proto_seed, shape, depth, query_cap):
    """On a protocol that sends at least one message, every leaf event of the
    law holds its leaf's own transcript object: the walk and the count oracle
    key on the same tuples."""
    protocols = [pt for _, pt in sweep_family(*shape)]
    for pt in [random_protocol(random.Random(proto_seed), instance(*shape), depth)] + protocols:
        rp = refine(pt, CFG.delta)
        leaves = dict(rp.leaves())
        law = walk_law(rp, SimConfig(query_cap=query_cap))
        reached = [e for e in law.events if e.failure is None]
        assert reached or query_cap is not None
        for e in reached:
            assert e.transcript and e.transcript is leaves[e.transcript].transcript


def test_query_cap():
    rp = refine(one_bit_fixture(), CFG.delta)
    capped = SimConfig(query_cap=1)
    sim = simulate_exact(walk_law(rp, capped), (0,))
    assert QUERY_CAP not in sim.bot_reasons  # one query fits
    # a protocol needing two fixing rounds at n=2
    G = instance(2, 2)
    rng = random.Random(3)
    found = False
    for _ in range(50):
        rp2 = refine(random_protocol(rng, G, 4), CFG.delta)
        sim2 = simulate_exact(walk_law(rp2, SimConfig(query_cap=1)), (0, 0))
        if QUERY_CAP in sim2.bot_reasons:
            found = True
            full = simulate_exact(walk_law(rp2, CFG), (0, 0))
            assert max(full.queries.support) > 1
            break
    assert found


# --- ledger ---

def test_ledger_zero_queries_trivial():
    out = simulate_sample(walk_law(zero_comm(), CFG), (0,), seed=0)
    assert out.ledger == ()
    assert ledger_check(out.ledger, 2, CFG.delta)


def test_ledger_one_bit_values():
    law = walk_law(refine(one_bit_fixture(), CFG.delta), CFG)
    out = simulate_sample(law, (0,), seed=0)
    (row,) = out.ledger
    assert Fraction(*row.gamma) == Fraction(2, 1)   # gamma = 1 bit
    assert Fraction(*row.delta) == Fraction(1, 1)   # single part: delta_1 = 0
    assert row.queries == 1
    # full X at the root: potential 0; the singleton part on no remaining
    # free blocks also sits at 0, and 0.1*log2(2)*1 <= gamma + delta = 1
    assert Fraction(2 ** row.before[0], row.before[1]) == 2 ** 0
    assert Fraction(2 ** row.after[0], row.after[1]) == 2 ** 0
    assert ledger_check(out.ledger, 2, CFG.delta)


def test_ledger_battery_including_failures():
    rng = random.Random(31)
    checked = 0
    failures_seen = set()
    for _ in range(25):
        n, m = rng.choice([(1, 2), (2, 2), (2, 4)])
        G = instance(n, m)
        rp = refine(random_protocol(rng, G, 4), CFG.delta)
        cfg = SimConfig(strict_zpp=True, deficiency_cap=Fraction(3),
                        query_cap=1)
        law = walk_law(rp, cfg)
        ledgers = ledger_exact(law)
        assert all(ledgers.values())
        for seed in range(40):
            z = tuple(rng.randint(0, 1) for _ in range(n))
            out = simulate_sample(law, z, seed=seed)
            assert ledger_check(out.ledger, m, cfg.delta)
            assert out.ledger in ledgers
            checked += 1
            if out.failure:
                failures_seen.add(out.failure)
    assert checked == 1000
    assert failures_seen  # cutoffs actually exercised


def test_ledger_exact_bob_first_pinned():
    """bob_first_fixture(8) has two path ledgers, both passing: Alice's
    7-of-8 bit with no query, and her 1-of-8 bit with one.  The seeded runs
    at either z carry both and no other."""
    law = walk_law(refine(bob_first_fixture(8), CFG.delta), CFG)
    ledgers = ledger_exact(law)
    assert len(ledgers) == 2 and all(ledgers.values())
    assert {ledger[-1].queries for ledger in ledgers} == {0, 1}
    for z in ((0,), (1,)):
        assert {simulate_sample(law, z, seed=seed).ledger
                for seed in range(40)} == set(ledgers)


def test_ledger_exact_checks_each_ledger_once(monkeypatch):
    """The fold's verdicts are ledger_check's, taken once per distinct ledger."""
    rp = refine(bob_first_fixture(8), CFG.delta)
    checked = []
    monkeypatch.setattr(simulate, "ledger_check",
                        lambda ledger, m, delta: checked.append(ledger) or False)
    ledgers = ledger_exact(walk_law(rp, CFG))
    assert len(checked) == len(ledgers) and set(checked) == set(ledgers)
    assert not any(ledgers.values())


@pytest.mark.parametrize("delta", [0, 1, 2, Fraction(-1, 2)])
def test_ledger_check_refuses_rate_outside_unit_interval(delta):
    """The ledger is checked only at a density rate in (0, 1), as the lemma
    verifier and SimConfig require; outside it every row would pass."""
    law = walk_law(refine(bob_first_fixture(8), CFG.delta), CFG)
    out = simulate_sample(law, (0,), seed=1)
    assert out.ledger and ledger_check(out.ledger, 8, CFG.delta)
    with pytest.raises(DomainError, match="delta"):
        ledger_check(out.ledger, 8, delta)


def test_ledger_row_hash_is_its_fields():
    """Rows built apart from equal fields are one key, whichever was hashed
    first; a row differing in one field is another."""
    fields = (1, 1, (2, 1), (1, 1), (2, 4), (4, 10))
    row = LedgerRow(*fields)
    assert {row: True}.get(LedgerRow(*fields)) is True
    assert hash(LedgerRow(*fields)) == hash(row)
    assert row._replace(queries=2) not in {row}
    assert row._replace(after=(4, 11)) != row


def test_ledger_checker_rejects_forged_rows():
    """gamma, delta and both potentials 1 with one query: no drop pays for it."""
    row = LedgerRow(1, 1, (3, 3), (5, 5), (2, 4), (2, 4))
    assert not ledger_check((row,), 4, Fraction(9, 10))


@pytest.mark.parametrize("after, ok", [((7, 35), True), ((6, 17), False)])
def test_ledger_row_exact_boundary(after, ok):
    """gamma = 2, delta_i = 1, one query at m = 4, delta = 9/10: the row holds
    iff after <= before * 2 * 2^(-(1/10) * 2 * 1), i.e. after / before <=
    2^(4/5), about 1.741.  From before = 2^8/119, 2^7/35 is 17/10 of it and
    holds; 2^6/17 is 7/4 of it and fails."""
    row = LedgerRow(1, 1, (2, 1), (1, 1), (8, 119), after)
    assert ledger_check((row,), 4, Fraction(9, 10)) is ok


@pytest.mark.parametrize("def_y, cap, cut", [
    (Fraction(2), Fraction(1), False),           # exactly 2^cap: the cutoff is strict
    (Fraction(16, 7), Fraction(1), True),
    (Fraction(4, 3), Fraction(1, 2), False),     # log2(4/3) < 1/2 < 4/3
    (Fraction(16, 11), Fraction(1, 2), True),    # log2(16/11) > 1/2
])
def test_strict_zpp_cutoff_exact_boundary(def_y, cap, cut):
    """def_y is a ratio, the cap is in bits: the cutoff fires iff def_y > 2^cap.
    Each leaf gets a Bob set of 16/def_y of the 16 inputs at m = 4."""
    rp = refine(one_bit_fixture(4), CFG.delta)
    size = Fraction(16) / def_y
    assert size.denominator == 1
    Y = ExplicitBobSet(1, 4, [(y,) for y in range(size.numerator)])
    for _, leaf in rp.leaves():
        leaf.rect = Rect(leaf.rect.X, Y)
        assert leaf.def_y == def_y
    law = walk_law(rp, SimConfig(strict_zpp=True, deficiency_cap=cap))
    sim = simulate_exact(law, (0,))
    assert (DEFICIENCY_CUTOFF in sim.bot_reasons) is cut


# --- protocol -> randomized decision tree ---

def test_protocol_to_dt_point_mass_constant():
    G = instance(1, 2)
    rdt = protocol_to_dt(ProtocolTree(G, PLeaf(1)), CFG)
    assert rdt.depth == 0
    assert rdt.output_dist((0,)) == {1: Fraction(1)}


def test_protocol_to_dt_roundtrip_depth1():
    """Lifting the protocol of a depth-1 decision tree gives back its output
    with exactly the transcript/bot mix of the exact simulation."""
    G = instance(1, 2)
    t = DecisionTree(1, xor_decision_tree(1).root)
    pt = dt_to_protocol(t, G)
    law = walk_law(refine(pt, CFG.delta), CFG)
    rdt = protocol_to_dt(pt, CFG)
    for z in ((0,), (1,)):
        sim = simulate_exact(law, z)
        got = rdt.output_dist(z)
        assert got == {v: p for v, p in sim.values.items()}
        assert got.get(dt_eval(t, z)[0], 0) == 1 - sim.transcripts.prob(BOT)


def test_protocol_to_dt_matches_exact_values_randomly():
    rng = random.Random(77)
    for _ in range(10):
        n, m = rng.choice([(1, 2), (2, 2)])
        G = instance(n, m)
        pt = random_protocol(rng, G, 3)
        cfg = SimConfig(strict_zpp=bool(rng.getrandbits(1)),
                        query_cap=rng.choice([None, 1, 2]))
        rdt = protocol_to_dt(pt, cfg)
        trees = [t.root for _, t in rdt.components]
        assert len(set(trees)) == len(trees)
        assert sum(w for w, _ in rdt.components) == 1
        law = walk_law(refine(pt, cfg.delta), cfg)
        for z in [(0,) * n, (1,) * n]:
            sim = simulate_exact(law, z)
            assert rdt.output_dist(z) == dict(sim.values.items())


def test_protocol_to_dt_component_budget(monkeypatch):
    """The largest answer tensor of this protocol's walk has 16 combinations:
    refused one below that budget, built at it."""
    pt = random_protocol(random.Random(1), instance(2, 2), 3)
    monkeypatch.setattr(simulate, "COMPONENT_BUDGET", 15)
    with pytest.raises(ResourceError) as exc:
        protocol_to_dt(pt, CFG)
    assert exc.value.required == 16
    monkeypatch.setattr(simulate, "COMPONENT_BUDGET", 16)
    assert len(protocol_to_dt(pt, CFG).components) == 16


def test_protocol_to_dt_mixture_budget(monkeypatch):
    """Two zero-communication components realize one tree each: the mixture
    of two is refused at a budget of one."""
    G = instance(1, 2)
    PI = RandomizedProtocol([(Fraction(1, 2), ProtocolTree(G, PLeaf(v))) for v in (0, 1)])
    monkeypatch.setattr(simulate, "COMPONENT_BUDGET", 1)
    with pytest.raises(ResourceError) as exc:
        protocol_to_dt(PI, CFG)
    assert (exc.value.required, exc.value.budget) == (2, 1)


def _one_bit_law_at_node_budget(monkeypatch):
    """The law takes both answers of the one-bit fixture's part, so it visits
    the root and four leaves: refused at four nodes, built at five.  The one
    counter serves every z, the ledger check and the realization alike."""
    rp = refine(one_bit_fixture(), CFG.delta)
    monkeypatch.setattr(simulate, "NODE_BUDGET", 4)
    for build in (lambda: walk_law(rp, CFG), lambda: protocol_to_dt(one_bit_fixture(), CFG)):
        with pytest.raises(ResourceError) as exc:
            build()
        assert (exc.value.required, exc.value.budget) == (5, 4)
    monkeypatch.setattr(simulate, "NODE_BUDGET", 5)
    return walk_law(rp, CFG)


def test_simulate_exact_node_budget(monkeypatch):
    law = _one_bit_law_at_node_budget(monkeypatch)
    for z in ((0,), (1,)):
        assert simulate_exact(law, z).queries == ExactDist({1: 1})


def test_ledger_exact_node_budget(monkeypatch):
    law = _one_bit_law_at_node_budget(monkeypatch)
    assert len(law.events) == 4
    assert all(ledger_exact(law).values())


def test_protocol_to_dt_respects_query_cap_depth():
    rng = random.Random(12)
    G = instance(2, 2)
    pt = random_protocol(rng, G, 4)
    rdt = protocol_to_dt(pt, SimConfig(query_cap=1))
    assert rdt.depth <= 1


def test_third_error_mixture_bound():
    """Exact end-to-end error chain: the lifted tree's error differs from the
    protocol's slice error by at most the weighted transcript TV."""
    from liftsim.analysis import dt_error, true_transcript_dist, tv_distance

    PI, f = third_error_mixture(2)
    cfg = CFG
    rdt = protocol_to_dt(PI, cfg)
    err = dt_error(rdt, f)
    slack = Fraction(0)
    worst_z = max(f.defined(), key=lambda z: 0)
    for w, pt in PI.components:
        rp = refine(pt, cfg.delta)
        law = walk_law(rp, cfg)
        for z in f.defined():
            t_z = simulate_exact(law, z).transcripts
            t_true = true_transcript_dist(rp, z)
            slack = max(slack, tv_distance(t_z, t_true))
    assert abs(err - Fraction(1, 3)) <= slack


# --- pinned sampler draws and the walk differential ---

def _walk_cases():
    """bob_first_fixture(4) and 8 seeded random protocols, refined once."""
    rng = random.Random(2024)
    pts = [bob_first_fixture(4)]
    for _ in range(8):
        n, m = rng.choice([(1, 2), (2, 2), (2, 4)])
        pts.append(random_protocol(rng, instance(n, m), 3))
    return [refine(pt, CFG.delta) for pt in pts]


PINNED_CONFIGS = (
    SimConfig(),
    SimConfig(query_cap=1),
    SimConfig(strict_zpp=True, deficiency_cap=Fraction(1)),
)
# sha256 of every seeded sample below.  A change means random.Random(seed) is
# consumed differently or a ledger row changed, and every seeded report
# changes with it.
PINNED_SAMPLER_DIGEST = (
    "c0323d1e270b51d6483742009c6de11e4b9fa0987161f78d6431e8d35e1a160e")


def _lin_arg(q):
    """q = 2^lin * arg with arg an odd/odd rational: the pair the digest was
    recorded with, lin a Fraction."""
    en = (q.numerator & -q.numerator).bit_length() - 1
    ed = (q.denominator & -q.denominator).bit_length() - 1
    return Fraction(en - ed), Fraction(q.numerator >> en, q.denominator >> ed)


def _outcome_record(out) -> str:
    value = "bot" if out.value is BOT else out.value
    rows = [(r.iteration, Fraction(*r.gamma), Fraction(*r.delta), r.queries,
             *_lin_arg(Fraction(2 ** r.before[0], r.before[1])),
             *_lin_arg(Fraction(2 ** r.after[0], r.after[1])))
            for r in out.ledger]
    # PINNED_SAMPLER_DIGEST writes None for a bottom's transcript
    transcript = None if out.failure else out.transcript
    return repr((transcript, value, out.failure, out.queries, rows))


def test_sampler_seeded_output_pinned():
    h = hashlib.sha256()
    reasons = set()
    for rp in _walk_cases():
        for cfg in PINNED_CONFIGS:
            law = walk_law(rp, cfg)
            for z in itertools.product((0, 1), repeat=rp.G.n):
                for seed in range(12):
                    out = simulate_sample(law, z, seed=seed)
                    reasons.add(out.failure)
                    h.update(_outcome_record(out).encode() + b"\n")
    assert reasons == {None, IMPOSSIBLE_S, DEFICIENCY_CUTOFF, QUERY_CAP}
    assert h.hexdigest() == PINNED_SAMPLER_DIGEST


def _n3_case():
    """The n=3, m=4 fixture of the CI rows, refined: its runs on different z
    part at a query and then keep drawing."""
    return refine(random_protocol(random.Random(3), instance(3, 4), 3), CFG.delta)


def _counted_streams(monkeypatch):
    """Patch simulate.random.Random with a subclass that records the seed of
    every stream it opens, and return that list."""
    opened = []

    class Counted(random.Random):
        def __init__(self, seed):
            opened.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(simulate.random, "Random", Counted)
    return opened


def test_shared_walk_matches_one_z_runs(monkeypatch):
    """simulate_samples on every z in ascending order, on them reversed and
    on each single z yields, for each seed, the very event simulate_sample
    returns for that z and seed, which is the reference run's outcome.  The
    n=3 case parts its runs and keeps drawing, so fresh streams are opened."""
    seeds = range(12)
    fresh = False
    for rp in _walk_cases() + [_n3_case()]:
        for cfg in PINNED_CONFIGS:
            law = walk_law(rp, cfg)
            zs = list(itertools.product((0, 1), repeat=rp.G.n))
            single = {(z, seed): simulate_sample(law, z, seed) for z in zs for seed in seeds}
            for (z, seed), out in single.items():
                assert (out.transcript, out.value, out.failure, out.queries,
                        out.ledger) == reference_sample(rp, z, cfg, seed)
            for order in [zs, zs[::-1]] + [[z] for z in zs]:
                with monkeypatch.context() as patched:
                    opened = _counted_streams(patched)
                    runs = list(simulate_samples(law, order, seeds))
                fresh |= len(opened) > len(seeds)
                assert len(runs) == len(seeds)
                for seed, outs in zip(seeds, runs):
                    assert len(outs) == len(order)
                    assert all(out is single[z, seed] for z, out in zip(order, outs))
    assert fresh


def test_one_stream_per_seed_until_runs_part(monkeypatch):
    """A seed's runs on every z share one Random(seed) until an answer parts
    them.  bob-first's runs part only at their last draw, so each seed opens
    one stream; the n=3 fixture's keep drawing once parted, and open at most
    one stream per z and fewer on average.  Seeding once per z fails both."""
    bob_first = walk_law(refine(bob_first_fixture(8), CFG.delta), CFG)
    n3 = walk_law(_n3_case(), CFG)
    opened = _counted_streams(monkeypatch)
    for _ in simulate_samples(bob_first, [(0,), (1,)], range(50)):
        pass
    assert opened == list(range(50))
    opened.clear()
    for _ in simulate_samples(n3, list(itertools.product((0, 1), repeat=3)), range(50)):
        pass
    per_seed = collections.Counter(opened)
    assert sorted(per_seed) == list(range(50))
    assert max(per_seed.values()) <= 8
    assert len(opened) < 8 * 50


# sha256 of protocol_to_dt's components, (weight, tree) in order, for each
# walk case under each pinned config and for the third-error mixture.  A
# change means the realized trees, their order or an exact weight changed.
PINNED_MIXTURE_DIGEST = (
    "394164c24999220b1b1d1be675d383edfdfab94a9f0447ca507ea493b672ae80")


def test_realized_mixture_pinned():
    h = hashlib.sha256()
    cases = [(rp.source, cfg) for rp in _walk_cases() for cfg in PINNED_CONFIGS]
    for PI, cfg in cases + [(third_error_mixture(2)[0], CFG)]:
        for w, t in protocol_to_dt(PI, cfg).components:
            h.update(repr((w, t.root)).encode() + b"\n")
    assert h.hexdigest() == PINNED_MIXTURE_DIGEST


@settings(max_examples=40, deadline=None, database=None)
@given(proto_seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 2), (2, 2), (2, 4)]),
       depth=st.integers(1, 4),
       strict=st.booleans(),
       def_cap=st.sampled_from([None, 1, 3]),
       query_cap=st.sampled_from([None, 1, 2]))
def test_walk_differential_property(proto_seed, shape, depth, strict, def_cap,
                                    query_cap):
    """protocol_to_dt and simulate_exact agree on every z, every path ledger
    passes, and every seeded sample lands in the exact support, passes the
    ledger check and carries one of the path ledgers.

    Both sides read walk_law, so the agreement checks only the realization
    against the law; the law's independent references are reference_walk
    and reference_sample."""
    n, m = shape
    pt = random_protocol(random.Random(proto_seed), instance(n, m), depth)
    cfg = SimConfig(strict_zpp=strict, deficiency_cap=def_cap, query_cap=query_cap)
    rdt = protocol_to_dt(pt, cfg)
    rp = refine(pt, cfg.delta)
    law = walk_law(rp, cfg)
    ledgers = ledger_exact(law)
    assert all(ledgers.values())
    for z in itertools.product((0, 1), repeat=n):
        exact = simulate_exact(law, z)
        assert rdt.output_dist(z) == dict(exact.values.items())
        for seed in range(8):
            out = simulate_sample(law, z, seed=seed)
            assert exact.transcripts.prob(out.transcript) > 0
            assert exact.values.prob(out.value) > 0
            assert exact.queries.prob(len(out.queries)) > 0
            if out.failure is None:
                assert out.transcript is not BOT
            else:
                assert exact.bot_reasons.get(out.failure, 0) > 0
            assert ledger_check(out.ledger, m, cfg.delta)
            assert out.ledger in ledgers


# --- ledger rows against the Fraction rows they replace ---

@dataclasses.dataclass(frozen=True)
class _FractionRow:
    """A ledger row as four Fraction ratios, equal and hashed by its fields."""

    iteration: int
    gamma_ratio: Fraction
    delta_ratio: Fraction
    queries: int
    potential_before: Fraction
    potential_after: Fraction


def _fraction_row(row) -> _FractionRow:
    """The Fraction row of the same ratios, read from row's integers."""
    (fb, xb), (fa, xa) = row.before, row.after
    return _FractionRow(row.iteration, Fraction(*row.gamma), Fraction(*row.delta),
                        row.queries, Fraction(2 ** fb, xb), Fraction(2 ** fa, xa))


def _fraction_ledger_check(ledger, m, delta) -> bool:
    """ledger_check on Fraction rows: each row's potential after over its
    potential before times the two drops, and the product of the drops,
    against powers of 2."""
    rate = (1 - delta) * (m.bit_length() - 1)
    product = Fraction(1)
    total_queries = 0
    for row in ledger:
        drop = row.gamma_ratio * row.delta_ratio
        if cmp_pow(row.potential_after / (row.potential_before * drop), 2,
                   -rate * row.queries) > 0:
            return False
        product *= drop
        total_queries += row.queries
    return cmp_pow(product, 2, rate * total_queries) >= 0


def _assert_rows_match(ledgers, m, delta):
    """Each ledger's rows give the Fraction rows' ratios and verdict, and the
    integer rows and the Fraction rows split the ledgers into as many keys."""
    for ledger in ledgers:
        old = tuple(map(_fraction_row, ledger))
        for row, ref in zip(ledger, old):
            (fb, xb), (fa, xa) = row.before, row.after
            assert (row.iteration, Fraction(*row.gamma), Fraction(*row.delta), row.queries,
                    Fraction(2 ** fb, xb), Fraction(2 ** fa, xa)) == dataclasses.astuple(ref)
        assert ledger_check(ledger, m, delta) is _fraction_ledger_check(old, m, delta)
    assert (len(dict.fromkeys(ledgers))
            == len(dict.fromkeys(tuple(map(_fraction_row, ledger)) for ledger in ledgers)))


@settings(max_examples=30, deadline=None, database=None)
@given(proto_seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 2), (2, 2), (2, 4)]),
       depth=st.integers(1, 4))
def test_walk_rows_match_fraction_rows(proto_seed, shape, depth):
    """Every ledger of a random refined protocol's law, under each pinned
    config (query-cap rows included), has the Fraction rows' ratios and
    verdict, and ledger_exact keeps as many ledgers as Fraction rows would."""
    n, m = shape
    rp = refine(random_protocol(random.Random(proto_seed), instance(n, m), depth), CFG.delta)
    for cfg in PINNED_CONFIGS:
        law = walk_law(rp, cfg)
        ledgers = [e.ledger for e in law.events]
        _assert_rows_match(ledgers, m, cfg.delta)
        assert len(ledger_exact(law)) == len(dict.fromkeys(
            tuple(map(_fraction_row, ledger)) for ledger in ledgers))


_pairs = st.tuples(st.integers(1, 12), st.integers(1, 12))
_potentials = st.tuples(st.integers(0, 8), st.integers(1, 300))


_forged_rows = st.builds(LedgerRow, st.integers(1, 3), st.integers(0, 3), _pairs, _pairs,
                         _potentials, _potentials)


def _scaled(row, k, j) -> LedgerRow:
    """row on other integers of the same ratios: gamma and delta times k/k,
    the potential before times 2^j/2^j."""
    (g, gb), (d, dt), (fb, xb) = row.gamma, row.delta, row.before
    return LedgerRow(row.iteration, row.queries, (g * k, gb * k), (d * k, dt * k),
                     (fb + j, xb << j), row.after)


@settings(max_examples=300, deadline=None, database=None)
@given(ledgers=st.lists(st.lists(_forged_rows, max_size=3).map(tuple), min_size=1,
                        max_size=4),
       k=st.integers(2, 3), j=st.integers(1, 3),
       m=st.sampled_from([2, 4, 8]),
       delta=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(2, 3),
                              Fraction(9, 10)]))
def test_forged_rows_match_fraction_rows(ledgers, k, j, m, delta):
    """Forged rows, and their copies on scaled integers, give the Fraction
    rows' ratios and verdicts; two rows are equal, and hash alike, exactly
    when their Fraction rows are equal, so each copy equals its row."""
    twins = [tuple(_scaled(row, k, j) for row in ledger) for ledger in ledgers]
    _assert_rows_match(ledgers + twins, m, delta)
    rows = [row for ledger in ledgers + twins for row in ledger]
    for a, b in itertools.product(rows, repeat=2):
        assert (a == b) is (_fraction_row(a) == _fraction_row(b))
        if a == b:
            assert hash(a) == hash(b)
    assert twins == ledgers


def test_rows_of_equal_ratios_are_one_key():
    """Rows holding different integers but equal ratios are equal, hash
    alike and make one ledger_exact key; changing one ratio makes another."""
    a = LedgerRow(2, 1, (4, 2), (3, 1), (4, 12), (2, 6))
    b = LedgerRow(2, 1, (2, 1), (6, 2), (2, 3), (3, 12))
    assert a == b and hash(a) == hash(b)
    assert len(dict.fromkeys([(a,), (b,)])) == 1
    assert a != LedgerRow(2, 1, (4, 2), (3, 1), (4, 12), (2, 7))
    assert ledger_check((a,), 4, CFG.delta) is ledger_check((b,), 4, CFG.delta)
