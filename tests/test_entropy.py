"""Entropy, density, and density-restoring partition tests."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftsim import entropy
from liftsim.entropy import (
    SetVar,
    as_fraction,
    cmp_pow,
    deficiency,
    density_restoring_partition,
    is_blockwise_dense,
    log2_float,
    marginal_min_entropy,
    verify_partition_lemma,
    violation_threshold,
)
from liftsim.errors import DomainError, ResourceError

D = Fraction(9, 10)


def singles(values, m):
    return SetVar({(v,) for v in values}, (m,))


# --- exact arithmetic helpers ---

def test_cmp_pow_basics():
    assert cmp_pow(Fraction(1, 2), 2, Fraction(-1)) == 0
    # 1/3 vs 4^(-9/10): tenth powers give 3^-10 vs 4^-9, i.e. 4^9 vs 3^10.
    assert cmp_pow(Fraction(1, 3), 4, Fraction(-9, 10)) == (
        1 if 4 ** 9 > 3 ** 10 else -1
    )
    assert cmp_pow(Fraction(1, 4), 4, Fraction(-9, 10)) < 0


def test_log2_float_rendering():
    # the power of two is split off exactly, the odd/odd rest goes to math.log2
    assert log2_float(2) == 1.0
    assert log2_float(Fraction(1, 8)) == -3.0
    assert log2_float(Fraction(3, 2)) == -1.0 + math.log2(3.0)
    assert log2_float(Fraction(12, 5)) == 2.0 + math.log2(0.6)
    assert log2_float(Fraction(1, 2 ** 2000)) == -2000.0  # float() would underflow
    # rendering only: log2(3) > 1.5 is decided by cmp_pow, not by the float
    assert cmp_pow(Fraction(3), 2, Fraction(3, 2)) > 0
    assert cmp_pow(Fraction(3), 2, Fraction(8, 5)) < 0


def test_as_fraction_reads_floats_decimally():
    assert as_fraction(0.9) == Fraction(9, 10)
    assert as_fraction("0.9") == Fraction(9, 10)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


# --- marginal min-entropy ---

def test_min_entropy_full_support_all_coords():
    v = SetVar(set(itertools.product((1, 2), repeat=3)), (2, 2, 2))
    assert marginal_min_entropy(v, (1, 2, 3)) == 2 ** 3


def test_min_entropy_concentrated_coordinate():
    v = SetVar({(1, 1), (1, 2)}, (4, 4))
    assert marginal_min_entropy(v, (1,)) == 2 ** 0
    assert marginal_min_entropy(v, (2,)) == 2 ** 1
    assert marginal_min_entropy(v, ()) == 2 ** 0


# --- deficiency ---

def test_deficiency_uniform_is_zero():
    v = SetVar(set(itertools.product((1, 2, 3, 4), repeat=2)), (4, 4))
    for I in [(1,), (2,), (1, 2), ()]:
        assert deficiency(v, I) == 2 ** 0


def test_deficiency_bob_halved_set():
    # Y in {0,1}^4 with |Y| = 8: one bit of deficiency.
    v = SetVar({(y,) for y in range(8)}, (16,))
    assert deficiency(v, (1,)) == 2 ** 1


def test_deficiency_fixed_coordinate():
    v = SetVar({(1, 1), (1, 2)}, (4, 4))
    assert deficiency(v, (1,)) == 2 ** 2


def test_deficiency_monotone_under_marginalization():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.choice([2, 4, 8])
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, min(24, len(pop))))
        v = SetVar(support, (m,) * n)
        full = tuple(range(1, n + 1))
        dJ = deficiency(v, full)
        for r in range(0, n + 1):
            for I in itertools.combinations(full, r):
                # log2 is monotone: the ratios order like the bits
                assert deficiency(v, I) <= dJ


# --- blockwise density ---

def test_density_full_domain():
    v = SetVar(set(itertools.product((1, 2, 3, 4), repeat=2)), (4, 4))
    assert is_blockwise_dense(v, D)


def test_density_fails_on_fixed_coordinate():
    v = SetVar({(1, 1), (1, 2)}, (4, 4))
    assert not is_blockwise_dense(v, D)


def test_essential_density_one_bit_slack():
    v = singles({1, 2, 3}, 4)
    # log2(3) >= 0.9*2 - 1 holds, but log2(3) >= 1.8 does not.
    assert is_blockwise_dense(v, D, essential=True)
    assert not is_blockwise_dense(v, D)


def test_density_subset_budget(monkeypatch):
    monkeypatch.setattr(entropy, "SUBSET_BUDGET", 8)
    v = SetVar(set(itertools.product((1, 2), repeat=5)), (2,) * 5)
    with pytest.raises(ResourceError):
        is_blockwise_dense(v, D)


# --- density-restoring partition ---

def reference_partition(v, delta):
    """Literal transcription of the procedure, with the documented tie-break,
    searching subsets exhaustively every round.  Kept separate from the
    implementation on purpose."""
    delta = as_fraction(delta)
    m = v.ambient[0] if v.ambient else 2
    remaining = set(v.support)
    out = []
    while remaining:
        size = len(remaining)
        counts = {}
        violating = []
        coords = v.coords
        for r in range(1, len(coords) + 1):
            for I in itertools.combinations(coords, r):
                pos = [coords.index(i) for i in I]
                c = {}
                for t in remaining:
                    key = tuple(t[p] for p in pos)
                    c[key] = c.get(key, 0) + 1
                counts[I] = c
                if cmp_pow(Fraction(max(c.values()), size), m, -delta * r) > 0:
                    violating.append(I)
        if not violating:
            out.append(((), (), frozenset(remaining)))
            break
        maximal = [I for I in violating
                   if not any(set(T) > set(I) for T in violating)]
        seeds = sorted(I[0] for I in violating if len(I) == 1)
        if seeds:
            cur = {seeds[0]}
            while True:
                ext = [j for j in coords if j not in cur and any(
                    set(T) >= cur | {j} for T in violating)]
                if not ext:
                    break
                cur.add(min(ext))
            I = tuple(sorted(cur))
        else:
            I = min(maximal, key=lambda T: tuple(sorted(T)))
        c = counts[I]
        best = max(c.values())
        alpha = min(k for k, cnt in c.items() if cnt == best)
        pos = [coords.index(i) for i in I]
        part = frozenset(t for t in remaining if tuple(t[p] for p in pos) == alpha)
        out.append((I, alpha, part))
        remaining -= part
    return out


def test_partition_already_dense_single_part():
    v = singles({1, 2, 3, 4}, 4)
    parts = density_restoring_partition(v, D)
    assert len(parts) == 1
    assert parts[0].coords == ()
    assert parts[0].label() == ""
    assert parts[0].support == v.support
    assert parts[0].delta_ratio == 1


def test_partition_three_points_in_four():
    v = singles({1, 2, 3}, 4)
    parts = density_restoring_partition(v, D)
    assert [(p.coords, p.alpha) for p in parts] == [((1,), (1,)), ((1,), (2,)), ((1,), (3,))]
    assert [p.delta_ratio for p in parts] == [Fraction(1), Fraction(3, 2), Fraction(3)]


def test_partition_square_matches_reference_oracle():
    v = SetVar({(1, 1), (1, 2), (2, 1), (2, 2)}, (4, 4))
    got = [(p.coords, p.alpha, p.support) for p in density_restoring_partition(v, D)]
    assert got == reference_partition(v, D)


def test_partition_matches_reference_oracle_randomly():
    rng = random.Random(20250809)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.choice([2, 4, 8])
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, min(30, len(pop))))
        v = SetVar(support, (m,) * n)
        got = [(p.coords, p.alpha, p.support) for p in density_restoring_partition(v, D)]
        assert got == reference_partition(v, D)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_partition_matches_reference_oracle_over_rates(data):
    """The same differential over other rates and non-power-of-two blocks:
    parts, order and alpha agree with the oracle, and the lemma holds."""
    delta = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), D, Fraction(1, 7)]),
                      label="delta")
    m = data.draw(st.sampled_from([2, 3, 4, 5, 8]), label="m")
    n = data.draw(st.integers(1, 4), label="n")
    points = data.draw(st.sets(st.tuples(*[st.integers(1, m)] * n),
                               min_size=1, max_size=40), label="points")
    v = SetVar(points, (m,) * n)
    parts = density_restoring_partition(v, delta)
    assert [p.order for p in parts] == list(range(1, len(parts) + 1))
    assert [(p.coords, p.alpha, p.support) for p in parts] == reference_partition(v, delta)
    assert verify_partition_lemma(v, parts, delta).ok


@pytest.mark.parametrize("m, delta, k, size, T", [
    (4, Fraction(1, 2), 1, 4, 2),       # 2/4 = 4^(-1/2) exactly: c = 2 does not violate
    (2, Fraction(1, 2), 2, 8, 4),       # 4/8 = 2^(-1) exactly
    (3, Fraction(1, 2), 2, 27, 9),      # 9/27 = 3^(-1) exactly
    (3, D, 1, 10, 3),                   # 10 * 3^(-9/10) is about 3.72
    (5, Fraction(2, 3), 2, 50, 5),      # about 5.85
    (5, Fraction(99, 100), 1, 199, 40), # about 40.45; 100th powers of 199
    (3, Fraction(7, 11), 2, 30, 7),     # about 7.41
    (8, Fraction(1, 7), 3, 17, 6),      # about 6.97
])
def test_violation_threshold_exact_boundary(m, delta, k, size, T):
    """A k-block marginal of `size` points violates iff its heaviest count c
    has c/size > m^(-delta*k); the integer threshold T is the largest c that
    does not, which cmp_pow confirms at c = T and c = T + 1."""
    assert violation_threshold(size, k, delta, m) == T
    assert cmp_pow(Fraction(T, size), m, -delta * k) <= 0
    assert cmp_pow(Fraction(T + 1, size), m, -delta * k) > 0


@pytest.mark.parametrize("delta", [2, 1, 0, Fraction(-1, 2)])
def test_rate_outside_unit_interval_refused(delta):
    """The partition, its lemma verifier, the density check, the structured
    check, refine and the simulator's config refuse a rate outside (0, 1)
    alike."""
    from liftsim.core import PartialAssignment, Rect, is_structured
    from liftsim.fixtures import instance, one_bit_fixture
    from liftsim.protocol import refine
    from liftsim.simulate import SimConfig

    v = singles([1, 2], 4)
    parts = density_restoring_partition(v, Fraction(1, 2))
    G = instance(1, 4)
    calls = [lambda: density_restoring_partition(v, delta),
             lambda: verify_partition_lemma(v, parts, delta),
             lambda: is_blockwise_dense(v, delta),
             lambda: is_structured(Rect(G.full_X(), G.full_Y()),
                                   PartialAssignment.free_everywhere(1), delta, G),
             lambda: refine(one_bit_fixture(4), delta),
             lambda: SimConfig(delta=delta)]
    for call in calls:
        with pytest.raises(DomainError, match=r"^delta must be in \(0,1\)$"):
            call()


@pytest.mark.parametrize("violating, chosen", [
    ([{1, 2}, {2, 3}], (1, 2)),
    ([{3}, {1, 3}, {2, 3, 4}], (1, 3)),
    ([{1, 3}, {2}], (2,)),
    ([{1, 2}, {1, 4}, {2, 3}], (1, 2)),
    ([{2}, {2, 4}, {1, 2, 3}, {3}], (1, 2, 3)),
    ([], ()),
])
def test_choose_violating_set_pinned(violating, chosen):
    violating = [frozenset(I) for I in violating]
    assert entropy._choose_violating_set((1, 2, 3, 4), violating) == chosen


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_choose_violating_set_is_maximal(data):
    """The choice is a violating set, holds the smallest violating singleton
    if there is one, and has no violating strict superset."""
    coords = tuple(range(1, data.draw(st.integers(1, 5)) + 1))
    subsets = [frozenset(I) for r in range(1, len(coords) + 1)
               for I in itertools.combinations(coords, r)]
    violating = data.draw(st.lists(st.sampled_from(subsets), unique=True))
    chosen = entropy._choose_violating_set(coords, violating)
    assert chosen == tuple(sorted(chosen))
    if not violating:
        assert chosen == ()
        return
    I = frozenset(chosen)
    assert I in violating
    singles = [i for T in violating if len(T) == 1 for i in T]
    assert not singles or min(singles) in I
    assert not any(T > I for T in violating)


def test_partition_covers_disjointly():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.choice([2, 4])
        n = rng.randint(1, 3)
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, len(pop)))
        v = SetVar(support, (m,) * n)
        parts = density_restoring_partition(v, D)
        union = set()
        total = 0
        for p in parts:
            assert p.support.isdisjoint(union)
            union |= p.support
            total += p.size
        assert union == set(v.support) and total == v.size
        # |X^(>=i)| = |X| * 2^(-delta_i) holds by definition of the stored ratio
        for p in parts:
            assert p.tail_size * p.delta_ratio == v.size


# --- partition lemma verification ---

def test_lemma_dense_case_vacuous():
    v = singles({1, 2, 3, 4}, 4)
    report = verify_partition_lemma(v, density_restoring_partition(v, D), D)
    assert report.ok and report.is_partition


def test_lemma_exact_rational_example():
    # X = {1,2,3} in [4], part 2 = {2}: 0 <= (2 - log 3) - 0.2 + log(3/2).
    v = singles({1, 2, 3}, 4)
    parts = density_restoring_partition(v, D)
    report = verify_partition_lemma(v, parts, D)
    assert report.ok
    assert report.parts[1].label == "x_{1}=(2)"
    assert report.parts[1].deficiency_ok


def test_lemma_random_battery():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = 8
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, min(40, len(pop))))
        v = SetVar(support, (m,) * n)
        parts = density_restoring_partition(v, D)
        assert verify_partition_lemma(v, parts, D).ok


def _forgeries(part, m):
    """Copies of a genuine part, each with one recorded field wrong."""
    yield dataclasses.replace(part, tail_size=part.tail_size - 1)
    yield dataclasses.replace(part, input_size=part.input_size + 1)
    yield dataclasses.replace(part, size=part.size + 1)
    yield dataclasses.replace(part, order=part.order + 1)
    if part.coords:
        yield dataclasses.replace(part, alpha=(part.alpha[0] % m + 1,) + part.alpha[1:])


def test_lemma_rejects_fake_parts():
    v = singles({1, 2, 3}, 4)
    parts = density_restoring_partition(v, D)
    # Drop a part: no longer a partition.
    report = verify_partition_lemma(v, parts[:-1], D)
    assert not report.ok and not report.is_partition
    # Repeat a part: the repeat finds no tail left.
    report = verify_partition_lemma(v, parts + parts[:1], D)
    assert not report.ok and not report.is_partition
    # Forge one field of one part of a genuine partition: the verifier
    # recomputes order, size, input size and tail, and checks alpha.
    rng = random.Random(0xF0E6)
    m = 8
    pop = list(itertools.product(range(1, m + 1), repeat=3))
    forged = 0
    for _ in range(8):
        v = SetVar(rng.sample(pop, rng.randint(1, 40)), (m,) * 3)
        parts = density_restoring_partition(v, D)
        assert verify_partition_lemma(v, parts, D).ok
        for k, part in enumerate(parts):
            for fake in _forgeries(part, m):
                report = verify_partition_lemma(v, parts[:k] + [fake] + parts[k + 1:], D)
                assert not report.ok
                bad = report.first_violation()
                assert bad is not None and bad.order == k + 1
                forged += 1
    assert forged > 60


def test_lemma_non_power_of_two_domain():
    rng = random.Random(3)
    for m in (3, 5, 6, 7):
        pop = list(itertools.product(range(1, m + 1), repeat=2))
        for _ in range(20):
            support = rng.sample(pop, rng.randint(1, min(20, len(pop))))
            v = SetVar(support, (m, m))
            parts = density_restoring_partition(v, D)
            assert verify_partition_lemma(v, parts, D).ok


def test_setvar_validation():
    with pytest.raises(DomainError):
        SetVar(set(), (4,))
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, (4,))
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, (4, 4), (1, 3))  # block 3 outside the ambient
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, (4, 4), (2, 2))  # a repeated block
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, (4, 4), (2, 1))  # blocks out of order


# --- reading a set on some of its blocks ---

@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_view_partition_matches_projection(data):
    """X constant on a set of fixed blocks: the partition of X read on the
    free blocks is the partition of its projection onto them, mapped back to
    full tuples, with the same order, coords, alpha and tails."""
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.sampled_from([2, 4, 8]), label="m")
    free = tuple(sorted(data.draw(st.sets(st.integers(1, n)), label="free")))
    fixed = {i: data.draw(st.integers(1, m), label=f"x_{i}")
             for i in range(1, n + 1) if i not in free}
    points = data.draw(st.sets(st.tuples(*[st.integers(1, m)] * len(free)),
                               min_size=1, max_size=40), label="points")

    def full(p):
        vals = {**fixed, **dict(zip(free, p))}
        return tuple(vals[i] for i in range(1, n + 1))

    def proj(x):
        return tuple(x[i - 1] for i in free)

    X = {full(p) for p in points}
    view = density_restoring_partition(SetVar(X, (m,) * n, free), D)
    projected = density_restoring_partition(SetVar(points, (m,) * len(free)), D)
    mapped = [(p.order, tuple(free[j - 1] for j in p.coords), p.alpha,
               frozenset(x for x in X if proj(x) in p.support),
               p.size, p.tail_size, p.input_size) for p in projected]
    assert [(p.order, p.coords, p.alpha, p.support, p.size, p.tail_size, p.input_size)
            for p in view] == mapped
    assert verify_partition_lemma(SetVar(X, (m,) * n, free), view, D).ok


def test_view_reads_only_its_blocks():
    # Block 2 is not read: its domain size may differ, and its values do not
    # enter the marginals, the density or the partition labels.
    v = SetVar({(1, 5, 1), (1, 5, 2), (2, 5, 1), (2, 5, 2)}, (4, 16, 4), (1, 3))
    assert v.positions((3, 1)) == [0, 2]
    assert deficiency(v, (1, 3)) == 4
    assert is_blockwise_dense(v, Fraction(1, 2))
    with pytest.raises(DomainError):
        v.positions((2,))
    parts = density_restoring_partition(v, D)
    assert all(set(p.coords) <= {1, 3} for p in parts)
    assert frozenset().union(*(p.support for p in parts)) == v.support
