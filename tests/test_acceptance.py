"""Acceptance criteria, one test per criterion, exact tolerances pinned.

Zero-tolerance criteria use exact rational arithmetic throughout; the
closeness curve is a measured trend (medians non-increasing in the block
size); sampler consistency is statistical at three standard errors.
Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL
summary is printed at the end of the session.
"""

import itertools
import math
import random
import statistics
from fractions import Fraction

import pytest

from liftsim.analysis import (
    fourier_pointwise_check,
    marginals_report,
    norm_bound_check,
    replay_transcript_dist,
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
    is_structured,
)
from liftsim.entropy import (
    SetVar,
    density_restoring_partition,
    verify_partition_lemma,
)
from liftsim.fixtures import (
    bob_first_fixture,
    instance,
    one_bit_fixture,
    random_decision_tree,
    random_protocol,
    random_support,
    sweep_family,
)
from liftsim.protocol import (
    RLeaf,
    dt_eval,
    dt_to_protocol,
    project_transcript,
    refine,
    run_protocol,
    run_refined,
)
from liftsim.simulate import (
    ExactDist,
    SimConfig,
    ledger_check,
    simulate_exact,
    simulate_sample,
    walk_law,
)

DELTA = Fraction(9, 10)
CFG = SimConfig(delta=DELTA)


@pytest.fixture(scope="module")
def refined_battery():
    """100 random protocols (n <= 2, m in {2,4}, depth <= 4) and their
    refinements; shared by criteria 1 and 3."""
    rng = random.Random(0xACCE01)
    battery = []
    combos = [(1, 2), (1, 4), (2, 2), (2, 4)]
    for i in range(100):
        n, m = combos[i % len(combos)]
        G = instance(n, m)
        pt = random_protocol(rng, G, max_depth=4)
        battery.append((G, pt, refine(pt, DELTA)))
    return battery


@pytest.mark.acceptance("01 refinement equivalence")
def test_criterion_1_refinement_equivalence(refined_battery):
    assert len(refined_battery) >= 100
    for G, pt, rp in refined_battery:
        for xs in G.alice_domain():
            for ys in G.bob_domain():
                t, v = run_protocol(pt, xs, ys)
                rt, rv = run_refined(rp, xs, ys)
                assert rv == v
                assert project_transcript(rt) == t


@pytest.mark.acceptance("02 density-restoring lemma")
def test_criterion_2_partition_lemma():
    rng = random.Random(0xACCE02)
    checked = 0
    for _ in range(1000):
        j = rng.randint(1, 3)
        m = rng.choice([2, 3, 4, 5, 8])
        v = SetVar(random_support(rng, j, m, max_size=64), m)
        parts = density_restoring_partition(v, DELTA)
        report = verify_partition_lemma(v, parts, DELTA)
        assert report.ok, f"lemma violated on {v}"
        checked += 1
    assert checked >= 1000


@pytest.mark.acceptance("03 structured invariant")
def test_criterion_3_structured_invariant(refined_battery):
    nodes = 0
    for G, _, rp in refined_battery:
        for node in (nd for nd in rp.iter_nodes() if not isinstance(nd, RLeaf)):
            assert is_structured(node.rect, node.rho, DELTA, G)
            nodes += 1
    assert nodes > 100


def _noise_dist(rng, j, n, at_budget):
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


def _single_coef_dist(I, j, n, sign):
    N = n ** (5 * len(I))   # p(z) = (1 +- 1/N) / 2^j
    return ExactDist({z: N - sign if sum(z[i - 1] for i in I) % 2 else N + sign
                      for z in itertools.product((0, 1), repeat=j)}, N * 2 ** j)


@pytest.mark.acceptance("04 fourier implication")
def test_criterion_4_fourier_implication():
    """Never (hypothesis=True, conclusion=False).  The parity budget is
    calibrated for index sets inside [n], so batteries keep |J| <= n; the
    single-coefficient fixtures sit exactly at the budget boundary."""
    rng = random.Random(0xACCE04)
    checked = 0
    hyp_seen = 0
    for n in (2, 4):
        for j in range(1, min(n, 4) + 1):
            for I in itertools.chain.from_iterable(
                itertools.combinations(range(1, j + 1), r) for r in range(1, j + 1)
            ):
                for sign in (1, -1):
                    d = _single_coef_dist(I, j, n, sign)
                    hyp, concl = fourier_pointwise_check(d, n)
                    assert not (hyp and not concl)
                    checked += 1
                    hyp_seen += hyp
    while checked < 1000:
        n = rng.choice([2, 4])
        j = rng.randint(1, n)
        if rng.random() < 0.5:
            d = _noise_dist(rng, j, n, at_budget=rng.random() < 0.3)
        else:
            weights = [rng.randint(1, 8) for _ in range(2 ** j)]
            d = ExactDist(dict(zip(itertools.product((0, 1), repeat=j), weights)))
        hyp, concl = fourier_pointwise_check(d, n)
        assert not (hyp and not concl)
        checked += 1
        hyp_seen += hyp
    assert checked >= 1000 and hyp_seen >= 100


@pytest.mark.acceptance("05 norm bound")
def test_criterion_5_norm_bound():
    rng = random.Random(0xACCE05)
    for _ in range(1000):
        m = rng.choice([2, 4, 8])
        nI = rng.choice([1, 2])
        coords = tuple(range(1, nI + 1))
        X = SetVar(random_support(rng, nI, m, max_size=16), m)
        Y = SetVar({tuple(rng.randrange(2 ** m) for _ in coords)
                    for _ in range(rng.randint(1, 16))}, 2 ** m)
        I = tuple(sorted(rng.sample(coords, rng.randint(1, nI))))
        assert norm_bound_check(I, X, Y).holds


@pytest.mark.acceptance("06 query locality and ledger")
def test_criterion_6_query_locality_and_ledger():
    rng = random.Random(0xACCE06)
    fixtures_ = [one_bit_fixture(2), bob_first_fixture(2)]
    for _ in range(8):
        n, m = rng.choice([(1, 2), (2, 2), (2, 4)])
        fixtures_.append(random_protocol(rng, instance(n, m), 4))
    runs = 0
    bots = 0
    cfg = SimConfig(delta=DELTA, strict_zpp=True, query_cap=2)
    for pt in fixtures_:
        rp = refine(pt, DELTA)
        law = walk_law(rp, cfg)
        leaves = dict(rp.leaves())
        n = pt.G.n
        for i in range(1000):
            z = tuple(rng.randint(0, 1) for _ in range(n))
            out = simulate_sample(law, z, seed=i)
            assert ledger_check(out.ledger, pt.G.m, DELTA)
            if out.failure is None:
                leaf = leaves[out.transcript]
                assert tuple(sorted(out.queries)) == leaf.rho.fix
            else:
                bots += 1
            runs += 1
    assert runs >= 10 ** 4


@pytest.mark.acceptance("07 bundled fixture exact")
def test_criterion_7_bundled_fixture():
    rp = refine(one_bit_fixture(2), DELTA)
    law = walk_law(rp, SimConfig(delta=DELTA, strict_zpp=True))
    for z in ((0,), (1,)):
        t_z = simulate_exact(law, z).transcripts
        t_true = true_transcript_dist(rp, z)
        assert tv_distance(t_z, t_true) == 0
        assert support_check(t_z, t_true)


@pytest.mark.acceptance("08 conversion")
def test_criterion_8_conversion():
    rng = random.Random(0xACCE08)
    for _ in range(60):
        n, m = rng.choice([(1, 2), (1, 4), (2, 2), (2, 4)])
        G = instance(n, m)
        t = random_decision_tree(rng, n, depth=2)
        pt = dt_to_protocol(t, G)
        assert pt.cost == t.depth * (G.log_m + 1)
        for xs in G.alice_domain():
            for ys in G.bob_domain():
                z = compose_eval(G, xs, ys)
                assert run_protocol(pt, xs, ys)[1] == dt_eval(t, z)[0]


def _curve(n, ms, cross_check_ms=()):
    medians = {}
    rows = []
    for m in ms:
        tvs = []
        for name, pt in sweep_family(n, m):
            rp = refine(pt, DELTA)
            law = walk_law(rp, CFG)
            for z in itertools.product((0, 1), repeat=n):
                t_z = simulate_exact(law, z).transcripts
                t_true = true_transcript_dist(rp, z)
                if m in cross_check_ms:
                    assert t_true == replay_transcript_dist(rp, z)
                tv = tv_distance(t_z, t_true)
                tvs.append(tv)
                rows.append((name, z, m, tv))
        medians[m] = statistics.median(sorted(tvs))
    return medians, rows


@pytest.mark.acceptance("09 closeness curve")
def test_criterion_9_closeness_curve():
    """Exact slices cap the n=2 battery at m in {4,8}; the full curve runs at
    n=1 over m in {4,8,16,32}.  Medians must be non-increasing in m, and the
    slice-replay oracle cross-checks the counting route where it fits."""
    med2, rows2 = _curve(2, [4, 8], cross_check_ms=(4,))
    assert med2[8] <= med2[4]
    med1, rows1 = _curve(1, [4, 8, 16, 32], cross_check_ms=(4, 8))
    ms = [4, 8, 16, 32]
    for a, b in zip(ms, ms[1:]):
        assert med1[b] <= med1[a]
    print("\ncloseness curve, n=1 medians:",
          {m: str(med1[m]) for m in ms})
    print("closeness curve, n=2 medians:", {m: str(med2[m]) for m in (4, 8)})


@pytest.mark.acceptance("10 sampler consistency")
def test_criterion_10_sampler_consistency():
    rng = random.Random(0xACCE10)
    cases = [
        (one_bit_fixture(2), (0,)),
        (bob_first_fixture(2), (0,)),
        (random_protocol(rng, instance(2, 2), 3), (0, 1)),
    ]
    n_samples = 10 ** 4
    for pt, z in cases:
        rp = refine(pt, DELTA)
        law = walk_law(rp, CFG)
        exact = simulate_exact(law, z).transcripts
        counts = {}
        for i in range(n_samples):
            out = simulate_sample(law, z, seed=i)
            counts[out.transcript] = counts.get(out.transcript, 0) + 1
        assert set(counts) <= exact.support
        for o in exact.support:
            p = float(exact.prob(o))
            freq = counts.get(o, 0) / n_samples
            se = math.sqrt(p * (1 - p) / n_samples)
            assert abs(freq - p) <= 3 * se + 1e-12, (o, freq, p)


@pytest.mark.acceptance("11 marginals report battery")
def test_criterion_11_marginals_batteries():
    """Report-only: closeness of slice-conditioned marginals holds only at
    asymptotic block sizes, so tv_x, tv_y, and the nonemptiness rate are
    summarized per m without a hard threshold."""
    rng = random.Random(0xACCE11)
    print("\nmarginals battery (no hard threshold; the 1/n^2 closeness bound "
          "needs asymptotically large m):")
    for m in (2, 4, 8):
        stats = {"tv_x": [], "tv_y": [], "nonempty": 0, "held": 0}
        count = 100
        for _ in range(count):
            n = rng.choice([1, 2])
            g = instance(n, m)
            X = frozenset(random_support(rng, n, m, max_size=8))
            Y = frozenset(tuple(rng.randrange(2 ** m) for _ in range(n))
                          for _ in range(rng.randint(1, 8)))
            z = tuple(rng.randint(0, 1) for _ in range(n))
            rep = marginals_report(Rect(X, ExplicitBobSet(n, m, Y)),
                                   PartialAssignment.free_everywhere(n), z, g)
            assert 0 <= rep.tv_x <= 1 and 0 <= rep.tv_y <= 1
            stats["nonempty"] += rep.nonempty
            stats["held"] += rep.structured and rep.deficiency_ok
            if rep.nonempty:
                stats["tv_x"].append(float(rep.tv_x))
                stats["tv_y"].append(float(rep.tv_y))
        print(f"  m={m}: nonempty {stats['nonempty']}/{count}, "
              f"hypotheses held {stats['held']}/{count}, "
              f"median tv_x {statistics.median(stats['tv_x']):.4f}, "
              f"median tv_y {statistics.median(stats['tv_y']):.4f}")
