"""Oracle and checker tests: transcript distributions, TV, marginals, Fourier."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftsim.analysis import (
    GadgetMatrix,
    NormBound,
    _squared_two_norm,
    dt_error,
    fourier_coefficient,
    fourier_pointwise_check,
    marginals_report,
    norm_bound_check,
    parity_bias,
    replay_transcript_dist,
    source_transcript_dist,
    support_check,
    true_transcript_dist,
    tv_distance,
)
from liftsim.core import (
    BOT,
    ExplicitBobSet,
    PartialAssignment,
    Rect,
    compose_eval,
)
from liftsim.entropy import SetVar
from liftsim.errors import DomainError, ResourceError
from liftsim.fixtures import (
    bob_first_fixture,
    instance,
    one_bit_fixture,
    random_protocol,
    sweep_family,
    xor_decision_tree,
    xor_outer,
)
from liftsim.protocol import (
    BOB,
    DecisionTree,
    DLeaf,
    DQuery,
    PLeaf,
    PNode,
    ProtocolTree,
    RandomizedDecisionTree,
    TableFn,
    project_transcript,
    refine,
)
from liftsim.simulate import (ExactDist, SimConfig, simulate_exact, simulate_sample,
                              walk_law)

D = Fraction(9, 10)
CFG = SimConfig()


# --- true transcript distribution ---

def test_true_dist_zero_communication():
    rp = refine(ProtocolTree(instance(1, 2), PLeaf(1)), D)
    assert true_transcript_dist(rp, (0,)) == ExactDist({(): 1})


def test_true_dist_one_bit_fixture():
    rp = refine(one_bit_fixture(), D)
    dist = true_transcript_dist(rp, (0,))
    assert dist == ExactDist({
        (("b", 1), ("i", 1), ("s", "0")): 1,
        (("b", 0), ("i", 1), ("s", "0")): 1,
    })


@settings(max_examples=25, deadline=None, database=None)
@given(proto_seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 4)]),
       depth=st.integers(0, 4))
def test_true_dist_methods_agree(proto_seed, shape, depth):
    """The count, which sums over rp.leaves(), and replay_transcript_dist,
    which replays run_refined on the slice, agree on every z."""
    n, m = shape
    if shape == (2, 4):
        depth = min(depth, 3)  # each z replays a 1 024-element slice
    rp = refine(random_protocol(random.Random(proto_seed), instance(n, m), depth), D)
    for z in itertools.product((0, 1), repeat=n):
        a = replay_transcript_dist(rp, z)
        b = true_transcript_dist(rp, z)
        assert a == b
        assert sum(p for _, p in a.items()) == 1


@pytest.mark.parametrize("pt", [
    *(pt for _, pt in sweep_family(2, 4)),
    random_protocol(random.Random(5), instance(2, 2), 4),
], ids=[*(name for name, _ in sweep_family(2, 4)), "random-table"])
def test_count_memo_shared_across_z(pt):
    """Each leaf keeps its slice counts for every z: asking one refined
    protocol for all z in reversed, repeated order gives what a fresh
    refinement per z gives, and what the slice replay gives."""
    zs = list(itertools.product((0, 1), repeat=2))
    fresh = {z: true_transcript_dist(refine(pt, D), z) for z in zs}
    shared = refine(pt, D)
    for z in zs[::-1] + zs:
        assert true_transcript_dist(shared, z) == fresh[z]
    for z in zs:
        assert fresh[z] == replay_transcript_dist(shared, z)


def test_auto_counts_when_the_count_fits_the_budget():
    """On an explicit-rooted (2, 2) protocol the count reads every pair once,
    64 of them, for all four z; one slice has 16 elements.  The oracle counts
    at a budget of 64, replays the slice at 63, and refuses at 15 with the
    smaller of the two costs."""
    G = instance(2, 2)
    bob_xor = TableFn(G, BOB, "".join(str((ys[0] ^ ys[1]) & 1) for ys in G.bob_domain()))
    pt = ProtocolTree(G, PNode(BOB, bob_xor, PLeaf(0), PLeaf(1)))
    z = (0, 1)

    counted = refine(pt, D)
    leaves = [leaf for _, leaf in counted.leaves()]
    assert all(isinstance(leaf.rect.Y, ExplicitBobSet) for leaf in leaves)
    assert sum(len(leaf.rect.X) * leaf.rect.Y.size for leaf in leaves) == 64
    dist = true_transcript_dist(counted, z, pair_budget=64)
    assert all(leaf._slice_counts is not None for leaf in leaves)

    replayed = refine(pt, D)
    assert true_transcript_dist(replayed, z, pair_budget=63) == dist
    assert all(leaf._slice_counts is None for _, leaf in replayed.leaves())
    assert dist == replay_transcript_dist(replayed, z)

    with pytest.raises(ResourceError) as err:
        true_transcript_dist(refine(pt, D), z, pair_budget=15)
    assert (err.value.required, err.value.budget) == (16, 15)


def project(dist, fn) -> ExactDist:
    """The image of dist under fn, summing the mass of outcomes fn merges."""
    out = {}
    for o, c in dist.counts.items():
        out[fn(o)] = out.get(fn(o), 0) + c
    return ExactDist(out, dist.total)


def test_true_dist_projects_to_source_transcripts():
    rng = random.Random(22)
    for _ in range(8):
        n, m = rng.choice([(1, 2), (2, 2)])
        rp = refine(random_protocol(rng, instance(n, m), 3), D)
        for z in itertools.product((0, 1), repeat=n):
            refined = true_transcript_dist(rp, z)
            assert project(refined, project_transcript) == source_transcript_dist(rp, z)


def _bob_table_protocol():
    """One block, m = 2, Bob sends whether y is 11: the count reads its 2 x 4
    root pairs, 8, against a slice of 4."""
    G = instance(1, 2)
    return ProtocolTree(G, PNode(BOB, TableFn(G, BOB, "0001"), PLeaf(0), PLeaf(1)))


@pytest.mark.parametrize("z, message", [
    ((2,), "z must be a bit string"),
    (("0",), "z must be a bit string"),
    ((0, 1), "z arity mismatch"),
])
def test_bad_z_refused_alike(z, message):
    """The oracle on both routes (count at the default budget, replay at a
    budget of 4 that holds the slice but not the count), both replays and
    both walks refuse a bad z with the same message."""
    rp = refine(_bob_table_protocol(), D)
    law = walk_law(rp, CFG)
    calls = [
        lambda: true_transcript_dist(rp, z),
        lambda: true_transcript_dist(rp, z, pair_budget=4),
        lambda: replay_transcript_dist(rp, z),
        lambda: source_transcript_dist(rp, z),
        lambda: simulate_exact(law, z),
        lambda: simulate_sample(law, z, seed=1),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
    assert (true_transcript_dist(rp, (1,), pair_budget=4)
            == replay_transcript_dist(rp, (1,)) == true_transcript_dist(rp, (1,)))


def test_count_never_runs_past_the_budget():
    """The count of this (2, 4) protocol reads 4 096 pairs, its slice has
    1 024 elements: at a budget of 1 the oracle refuses with the smaller cost
    before any leaf counts."""
    rp = refine(random_protocol(random.Random(3), instance(2, 4), 3), D)
    with pytest.raises(ResourceError) as err:
        true_transcript_dist(rp, (0, 1), pair_budget=1)
    assert (err.value.required, err.value.budget) == (1024, 1)
    assert all(leaf._slice_counts is None for _, leaf in rp.leaves())


# --- tv distance and support ---

def test_tv_examples():
    d = ExactDist({"a": 1, "b": 1})
    assert tv_distance(d, d) == 0
    assert tv_distance(ExactDist({"a": 1}), ExactDist({"b": 1})) == 1
    d2 = ExactDist({"a": 3, "b": 1})
    assert tv_distance(d, d2) == Fraction(1, 4)


def _fraction_weights(w):
    """Positive Fractions over their sum, as counts over the lcm of their
    denominators."""
    den = math.lcm(*(p.denominator for p in w.values()))
    return ExactDist({o: p.numerator * (den // p.denominator) for o, p in w.items()})


_weights = st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 50), min_size=1)
# positive Fractions over their sum: one denominator per outcome, mixed
_dists = st.one_of(
    _weights.map(ExactDist),
    st.dictionaries(st.sampled_from("abcdef"),
                    st.fractions(Fraction(1, 60), 1, max_denominator=60), min_size=1).map(
        _fraction_weights),
)


@settings(max_examples=200, deadline=None, database=None)
@given(d1=_dists, d2=_dists)
def test_tv_is_half_the_l1_sum(d1, d2):
    """1 - sum of min(p, q) over the common support is half the L1 distance,
    overlapping supports or not, from count tables and from mixed-denominator
    Fractions."""
    half_l1 = sum((abs(d1.prob(o) - d2.prob(o)) for o in d1.support | d2.support),
                  Fraction(0)) / 2
    assert tv_distance(d1, d2) == tv_distance(d2, d1) == half_l1


def test_support_check_examples():
    d = ExactDist({"a": 1, "b": 1})
    assert support_check(d, d)
    assert support_check(ExactDist({BOT: 1}), d)
    assert not support_check(ExactDist({"c": 1}), d)


def test_one_bit_fixture_simulator_is_exact():
    rp = refine(one_bit_fixture(), D)
    law = walk_law(rp, SimConfig(strict_zpp=True))
    for z in ((0,), (1,)):
        t_z = simulate_exact(law, z).transcripts
        t_true = true_transcript_dist(rp, z)
        assert tv_distance(t_z, t_true) == 0
        assert support_check(t_z, t_true)


def test_bob_first_fixture_tv_quarter():
    rp = refine(bob_first_fixture(), D)
    t_z = simulate_exact(walk_law(rp, CFG), (0,)).transcripts
    t_true = true_transcript_dist(rp, (0,))
    assert tv_distance(t_z, t_true) == Fraction(1, 4)
    assert support_check(t_z, t_true)


# --- marginals ---

def test_marginals_full_rectangle():
    g = instance(1, 2)
    full = Rect(g.full_X(), g.full_Y())
    rep = marginals_report(full, PartialAssignment.free_everywhere(1), (0,), g)
    assert rep.nonempty and rep.tv_x == 0
    assert rep.structured and rep.deficiency_ok


@pytest.mark.parametrize("ys, cap, ok", [
    ({0, 1, 2}, Fraction(1, 2), True),    # log2(4/3) <= 1/2 < 4/3
    ({0, 1, 2}, Fraction(2, 5), False),   # log2(4/3) is about 0.415
    ({3}, Fraction(2), True),             # exactly 2 bits: the bound is inclusive
    ({3}, Fraction(3), True),             # 2 bits <= 3 < 4
])
def test_marginals_deficiency_cap_exact_boundary(ys, cap, ok):
    """Y.deficiency() is the ratio 4 / |Y|, the cap is in bits."""
    g = instance(1, 2)
    rect = Rect(g.full_X(), ExplicitBobSet(1, 2, {(y,) for y in ys}))
    rep = marginals_report(rect, PartialAssignment.free_everywhere(1), (0,), g,
                           cap=cap)
    assert rep.deficiency_ok is ok


def test_marginals_full_rectangle_tv_x_zero_battery():
    for n, m in [(1, 4), (2, 2)]:
        g = instance(n, m)
        for z in itertools.product((0, 1), repeat=n):
            rep = marginals_report(Rect(g.full_X(), g.full_Y()),
                                   PartialAssignment.free_everywhere(n), z, g)
            assert rep.tv_x == 0


def test_marginals_fixed_block_example():
    g = instance(1, 2)
    rect = Rect({(1,)}, ExplicitBobSet(1, 2, ((y,) for y in range(4))))
    rep = marginals_report(rect, PartialAssignment((0,)), (0,), g)
    assert rep.nonempty
    assert rep.tv_x == 0
    assert rep.tv_y == Fraction(1, 2)
    assert rep.intersection_size == 2


def test_marginals_empty_intersection_flags():
    g = instance(1, 2)
    # Y forces the pointed-to bit to disagree with z on every x in X
    rect = Rect({(1,), (2,)}, ExplicitBobSet(1, 2, {(0b11,)}))
    rep = marginals_report(rect, PartialAssignment.free_everywhere(1), (0, ), g)
    assert not rep.nonempty
    assert not rep.structured or rep.structured  # structured flag still reported
    assert rep.intersection_size == 0


def test_marginals_rejects_inconsistent_z():
    g = instance(1, 2)
    with pytest.raises(DomainError):
        marginals_report(Rect(g.full_X(), g.full_Y()), PartialAssignment((1,)),
                         (0,), g)


@pytest.mark.parametrize("cap", [0, Fraction(-1, 2)])
def test_marginals_refuses_nonpositive_cap(cap):
    """The cap default and check are SimConfig's: n^3 bits, and positive.  A
    bad cap is refused whether or not the 8 pairs fit the budget."""
    g = instance(1, 2)
    rect = Rect(g.full_X(), g.full_Y())
    for pair_budget in (8, 7):
        with pytest.raises(DomainError, match="deficiency cap must be positive"):
            marginals_report(rect, PartialAssignment.free_everywhere(1), (0,), g, cap=cap,
                             pair_budget=pair_budget)


def test_marginals_pair_budget():
    g = instance(1, 2)
    with pytest.raises(ResourceError) as err:
        marginals_report(Rect(g.full_X(), g.full_Y()), PartialAssignment.free_everywhere(1),
                         (0,), g, pair_budget=7)
    assert (err.value.required, err.value.budget) == (8, 7)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_marginals_tv_is_the_fraction_sum(data):
    """tv_x and tv_y, taken over one denominator, are the old per-term sums
    of |c/total - 1/|X||, from a tally of the slice taken here."""
    n, m = data.draw(st.sampled_from([(1, 2), (1, 4), (2, 2)]), label="n, m")
    g = instance(n, m)
    X = data.draw(st.sets(st.tuples(*[st.integers(1, m)] * n), min_size=1), label="X")
    Y = data.draw(st.sets(st.tuples(*[st.integers(0, 2 ** m - 1)] * n),
                          min_size=1, max_size=16), label="Y")
    z = data.draw(st.tuples(*[st.integers(0, 1)] * n), label="z")
    rep = marginals_report(Rect(X, ExplicitBobSet(n, m, Y)),
                           PartialAssignment.free_everywhere(n), z, g)
    hits = [(xs, ys) for xs in X for ys in Y if compose_eval(g, xs, ys) == z]
    assert rep.intersection_size == len(hits)
    if not hits:
        assert (rep.nonempty, rep.tv_x, rep.tv_y) == (False, 1, 1)
        return
    xc, yc, total = Counter(x for x, _ in hits), Counter(y for _, y in hits), len(hits)
    assert rep.tv_x == sum((abs(Fraction(xc[x], total) - Fraction(1, len(X)))
                            for x in X), Fraction(0)) / 2
    assert rep.tv_y == sum((abs(Fraction(yc[y], total) - Fraction(1, len(Y)))
                            for y in Y), Fraction(0)) / 2


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_squared_two_norm_is_the_fraction_sum(data):
    n = data.draw(st.integers(1, 3), label="n")
    points = data.draw(st.sets(st.tuples(*[st.integers(1, 4)] * n),
                               min_size=1, max_size=30), label="points")
    I = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1), label="I")))
    counts = Counter(tuple(t[i - 1] for i in I) for t in points)
    assert _squared_two_norm(SetVar(points, 4), I) == sum(
        (Fraction(c, len(points)) ** 2 for c in counts.values()), Fraction(0))


# --- parity bias and norm bound ---

def test_parity_bias_uniform_is_zero():
    for m in (2, 4):
        X = SetVar({(x,) for x in range(1, m + 1)}, m)
        Y = SetVar({(y,) for y in range(2 ** m)}, 2 ** m)
        assert parity_bias((1,), X, Y) == 0


def test_parity_bias_constant_outputs():
    X = SetVar({(1,), (2,)}, 2)
    Y0 = SetVar({(0,)}, 4)
    assert parity_bias((1,), X, Y0) == 1
    X1 = SetVar({(1,)}, 2)
    Y1 = SetVar({(0b10,), (0b11,)}, 4)
    assert parity_bias((1,), X1, Y1) == -1


def test_parity_bias_pair_budget():
    X = SetVar({(1,), (2,)}, 2)
    Y = SetVar({(y,) for y in range(4)}, 4)
    with pytest.raises(ResourceError) as err:
        parity_bias((1,), X, Y, pair_budget=7)
    assert (err.value.required, err.value.budget) == (8, 7)


def test_norm_bound_example_m2():
    X = SetVar({(1,), (2,)}, 2)
    Y = SetVar({(y,) for y in range(4)}, 4)
    nb = norm_bound_check((1,), X, Y)
    assert nb.lhs == 0
    # rhs = sqrt(1/2) * 2 * sqrt(1/4): squared = 1/2 * 4 * 1/4
    assert nb.rhs_squared == Fraction(1, 2)
    assert nb.holds


def test_norm_bound_point_masses():
    X = SetVar({(3,)}, 4)
    Y = SetVar({(0b0010,)}, 16)
    nb = norm_bound_check((1,), X, Y)
    assert nb.lhs == 1
    assert nb.rhs_squared == 2 ** 4
    assert nb.holds


def test_norm_bound_random_battery():
    rng = random.Random(55)
    for _ in range(150):
        m = rng.choice([2, 4, 8])
        nI = rng.choice([1, 2])
        coords = tuple(range(1, nI + 1))
        X = SetVar({tuple(rng.randint(1, m) for _ in coords)
                    for _ in range(rng.randint(1, 16))}, m)
        Y = SetVar({tuple(rng.randrange(2 ** m) for _ in coords)
                    for _ in range(rng.randint(1, 16))}, 2 ** m)
        I = tuple(rng.sample(coords, rng.randint(1, nI)))
        assert norm_bound_check(I, X, Y).holds


def test_norm_bound_reads_gadget_matrix_norm(monkeypatch):
    """The bound's operator norm is GadgetMatrix's, per block, so the tested
    row orthogonality is what backs it: a changed constant moves rhs_squared."""
    X = SetVar({(3, 1), (1, 2)}, 4)
    Y = SetVar({(0b0010, 0b0100), (0b1000, 0b0001)}, 16)
    before = norm_bound_check((1, 2), X, Y).rhs_squared
    monkeypatch.setattr(GadgetMatrix, "operator_norm_squared",
                        property(lambda self: 3 * 2 ** self.m))
    assert norm_bound_check((1, 2), X, Y).rhs_squared == 9 * before


def test_gadget_matrix_orthogonality():
    for m in (2, 4):
        M = GadgetMatrix(m)
        assert M.rows_pairwise_orthogonal()
        assert M.operator_norm_squared == 2 ** m
        # squared row norm equals the claimed operator norm squared
        assert sum(M.entry(1, y) ** 2 for y in range(2 ** m)) == 2 ** m


# --- fourier implication ---

def uniform_dist(j):
    return ExactDist(dict.fromkeys(itertools.product((0, 1), repeat=j), 1))


def test_fourier_uniform():
    assert fourier_pointwise_check(uniform_dist(2), 2) == (True, True)


def test_fourier_point_mass():
    d = ExactDist({(0, 1): 1})
    assert fourier_pointwise_check(d, 2) == (False, False)


def test_fourier_correlated_example():
    d = ExactDist({(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 3})
    assert fourier_coefficient(d, (1, 2)) == Fraction(1, 2)
    hyp, _ = fourier_pointwise_check(d, 2)
    assert not hyp


def test_fourier_conclusion_holds_at_its_boundary():
    """At n = 2, j = 1 the slack is 1/n^3 * 1/2 = 1/16, and 9/16 is exactly
    1/16 from uniform, so the conclusion holds; one 1/32 further, it fails."""
    assert fourier_pointwise_check(
        ExactDist({(0,): 9, (1,): 7}), 2) == (False, True)
    assert fourier_pointwise_check(
        ExactDist({(0,): 19, (1,): 13}), 2) == (False, False)


def fourier_noise_dist(rng, j, n, at_budget=False):
    """Uniform plus parity noise within the hypothesis budget: c_I is
    k/100 * n^(-5|I|), k = +-100 at the budget and drawn in [-100, 100]
    otherwise, so over D = 100 n^(5j) each p(z) is one integer over D 2^j."""
    D = 100 * n ** (5 * j)
    coeffs = []
    for r in range(1, j + 1):
        for I in itertools.combinations(range(1, j + 1), r):
            k = 100 * rng.choice([-1, 1]) if at_budget else rng.randint(-100, 100)
            coeffs.append((I, k * n ** (5 * (j - r))))
    return ExactDist({
        z: D + sum(-c if sum(z[i - 1] for i in I) % 2 else c for I, c in coeffs)
        for z in itertools.product((0, 1), repeat=j)}, D * 2 ** j)


def test_fourier_implication_battery_within_domain():
    """hypothesis => conclusion whenever the index set fits inside [n]."""
    rng = random.Random(202)
    tried = 0
    hyp_true = 0
    for _ in range(300):
        n = rng.choice([2, 4])
        j = rng.randint(1, n)
        if rng.random() < 0.5:
            d = fourier_noise_dist(rng, j, n, at_budget=rng.random() < 0.5)
        else:
            weights = [rng.randint(1, 8) for _ in range(2 ** j)]
            d = ExactDist(dict(zip(itertools.product((0, 1), repeat=j), weights)))
        hyp, concl = fourier_pointwise_check(d, n)
        tried += 1
        if hyp:
            hyp_true += 1
            assert concl
    assert tried == 300 and hyp_true > 50


def test_fourier_bound_is_calibrated_to_n():
    """Outside |J| <= n the implication genuinely fails: all coefficients at
    the budget overshoot the pointwise slack.  This is why the batteries keep
    the index set inside [n]."""
    rng = random.Random(7)
    d = fourier_noise_dist(rng, 4, 2, at_budget=True)
    hyp, concl = fourier_pointwise_check(d, 2)
    assert hyp and not concl


def test_fourier_rejects_n1():
    with pytest.raises(DomainError):
        fourier_pointwise_check(uniform_dist(1), 1)


# --- decision tree error ---

def test_dt_error_examples():
    f = xor_outer(2)
    t = xor_decision_tree(2)
    assert dt_error(t, f) == 0
    const0 = DecisionTree(2, DLeaf(0))
    assert dt_error(const0, f) == 1
    mix = RandomizedDecisionTree(2, [(Fraction(3, 4), t), (Fraction(1, 4), const0)])
    assert dt_error(mix, f) == Fraction(1, 4)


def test_dt_error_partial_function_ignores_undefined():
    from liftsim.core import OuterFunction

    f = OuterFunction(1, {(0,): 0})
    t = DecisionTree(1, DQuery(1, DLeaf(0), DLeaf(1)))
    assert dt_error(t, f) == 0  # z=(1,) is a promise violation, not counted


def test_dt_error_counts_bot():
    f = xor_outer(1)
    t = DecisionTree(1, DLeaf(BOT))
    assert dt_error(t, f) == 1
