"""Entropy, density, and density-restoring partition tests."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liftsim import entropy
from liftsim.entropy import (
    SetVar,
    as_fraction,
    as_rate,
    cmp_pow,
    deficiency,
    density_restoring_partition,
    is_blockwise_dense,
    log2_float,
    parse_rational,
    verify_partition_lemma,
    violation_threshold,
)
from liftsim.errors import DomainError, ResourceError
from liftsim.simulate import SimConfig

D = Fraction(9, 10)


def singles(values, m):
    return SetVar({(v,) for v in values}, m)


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


def _fraction_log2_float(q):
    """log2_float as it was written over a Fraction: the reference for pairs."""
    q = Fraction(q)
    en = (q.numerator & -q.numerator).bit_length() - 1
    ed = (q.denominator & -q.denominator).bit_length() - 1
    return float(en - ed) + math.log2(float(Fraction(q.numerator >> en, q.denominator >> ed)))


@pytest.mark.parametrize("a, b, text", [
    (6, 4, "3/2"), (3, 3, "1/1"), (1, 2 ** 2000, f"1/{2 ** 2000}"), (12, 5, "12/5"),
    (2, 1, "2/1"), (3 ** 40 * 10, 3 ** 39 * 4, "15/2"), (7 ** 400, 7 ** 399 * 2 ** 9, "7/512"),
])
def test_rendering_from_integer_pairs(a, b, text):
    """A pair (a, b), reduced or not, renders as Fraction(a, b) does."""
    assert entropy.frac_str((a, b)) == entropy.frac_str(Fraction(a, b)) == text
    assert log2_float((a, b)) == log2_float(Fraction(a, b)) == _fraction_log2_float(
        Fraction(a, b))


@settings(max_examples=300, deadline=None, database=None)
@given(a=st.integers(1, 10 ** 30), b=st.integers(1, 10 ** 30), k=st.integers(1, 10 ** 6))
def test_rendering_from_integer_pairs_randomly(a, b, k):
    for pair in ((a, b), (a * k, b * k)):
        assert entropy.frac_str(pair) == entropy.frac_str(Fraction(a, b))
        assert log2_float(pair) == _fraction_log2_float(Fraction(a, b))


def test_as_fraction_reads_floats_decimally():
    assert as_fraction(0.9) == Fraction(9, 10)
    assert as_fraction("0.9") == Fraction(9, 10)
    third = Fraction(1, 3)
    assert as_fraction(third) is third  # immutable, so not rebuilt


@settings(max_examples=200, deadline=None, database=None)
@given(mantissa=st.sampled_from(["1", "25", "0.5", "-3.75", ".5"]), e=st.sampled_from("eE"),
       sign=st.sampled_from(["", "+", "-"]), zeros=st.integers(0, 3),
       exponent=st.integers(0, 99999))
def test_parse_rational_refuses_only_long_exponents(mantissa, e, sign, zeros, exponent):
    """parse_rational is Fraction on a decimal exponent of at most 4 digits
    after its leading zeros, and refuses a longer one."""
    text = f"{mantissa}{e}{sign}{'0' * zeros}{exponent}"
    if exponent < 10 ** 4:
        assert parse_rational(text) == Fraction(text)
    else:
        with pytest.raises(DomainError, match="exponent"):
            parse_rational(text)


def test_as_fraction_and_rates_refuse_long_exponents():
    """A str reaches Fraction only through parse_rational's exponent guard,
    so a config's rate or cap cannot build 10^10000."""
    for read in (as_fraction, as_rate, lambda x: SimConfig(deficiency_cap=x)):
        for text in ("1e10000", "1e-10000"):
            with pytest.raises(DomainError, match="exponent"):
                read(text)
    assert as_fraction("1e9999") == 10 ** 9999 and as_rate("1e-9999") == Fraction(1, 10 ** 9999)


def test_parse_rational_numbers_and_underscores():
    """A number is read by Fraction as is (a float exactly, not through its
    repr), and underscores do not hide an exponent's length."""
    assert parse_rational(0.1) == Fraction(0.1) != Fraction("0.1")
    assert parse_rational(7) == 7
    with pytest.raises(DomainError, match="exponent"):
        parse_rational("1e1_0000_000")


def _fraction_cmp_pow(q, base, exponent):
    """cmp_pow as it was written over Fractions, before the integer
    cross-multiplication: the reference the property below holds it to."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError("cmp_pow requires a positive left side")
    base = Fraction(base)
    if base <= 0:
        raise DomainError("cmp_pow requires a positive base")
    exponent = as_fraction(exponent)
    lhs = q ** exponent.denominator
    rhs = base ** exponent.numerator
    if lhs < rhs:
        return -1
    if lhs > rhs:
        return 1
    return 0


def _outcome(f, *args):
    """f's result, or the message of the DomainError it raised."""
    try:
        return f(*args)
    except DomainError as e:
        return str(e)


_cmp_values = st.one_of(st.integers(-30, 30),
                        st.fractions(-30, 30, max_denominator=40),
                        st.fractions(0, 10 ** 6, max_denominator=10 ** 6))
_exponents = st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=9),
                       st.sampled_from([0.9, -0.9, 0.5, -1.5, 0.0, 2.0]))


@settings(max_examples=400, deadline=None, database=None)
@given(q=_cmp_values, base=_cmp_values, exponent=_exponents)
@example(q=0, base=2, exponent=1)
@example(q=Fraction(-1, 2), base=2, exponent=Fraction(1, 2))
@example(q=1, base=0, exponent=1)
@example(q=Fraction(1, 3), base=Fraction(-2, 3), exponent=-1)
def test_cmp_pow_matches_the_fraction_comparison(q, base, exponent):
    """Ints, Fractions and float exponents (read through str), exponents
    negative, zero and non-integral, and both DomainErrors."""
    assert _outcome(cmp_pow, q, base, exponent) == _outcome(
        _fraction_cmp_pow, q, base, exponent)


@settings(max_examples=200, deadline=None, database=None)
@given(root=st.one_of(st.integers(1, 40), st.fractions(0, 40, max_denominator=40)
                      .filter(lambda t: t > 0)),
       r=st.integers(-7, 7), s=st.integers(1, 7), nudge=st.sampled_from([-1, 0, 1]))
def test_cmp_pow_exact_powers(root, r, s, nudge):
    """q = base^(r/s) exactly, with base = root^s and q = root^r, is equality;
    moving q by a 1/(big) nudge moves the result with it."""
    base, q = Fraction(root) ** s, Fraction(root) ** r
    q += Fraction(nudge, 10 ** 12 * q.denominator)
    e = Fraction(r, s)
    assert cmp_pow(q, base, e) == _fraction_cmp_pow(q, base, e) == nudge
    if e.denominator == 1 and base.denominator == q.denominator == 1:
        assert cmp_pow(int(q), int(base), int(e)) == nudge


def test_cmp_pow_refusals():
    with pytest.raises(DomainError, match="positive left side"):
        cmp_pow(0, 2, 1)
    with pytest.raises(DomainError, match="positive left side"):
        cmp_pow(Fraction(-1, 2), 0, 1)  # the left side is read first
    with pytest.raises(DomainError, match="positive base"):
        cmp_pow(1, Fraction(-1, 2), 1)


# --- marginal min-entropy, read off the deficiency: H = |I| log m - D ---

def test_min_entropy_full_support_all_coords():
    v = SetVar(set(itertools.product((1, 2), repeat=3)), 2)
    assert 2 ** 3 / deficiency(v, (1, 2, 3)) == 2 ** 3


def test_min_entropy_concentrated_coordinate():
    v = SetVar({(1, 1), (1, 2)}, 4)
    assert 4 / deficiency(v, (1,)) == 2 ** 0
    assert 4 / deficiency(v, (2,)) == 2 ** 1
    assert deficiency(v, ()) == 2 ** 0


# --- deficiency ---

def test_deficiency_uniform_is_zero():
    v = SetVar(set(itertools.product((1, 2, 3, 4), repeat=2)), 4)
    for I in [(1,), (2,), (1, 2), ()]:
        assert deficiency(v, I) == 2 ** 0


def test_deficiency_bob_halved_set():
    # Y in {0,1}^4 with |Y| = 8: one bit of deficiency.
    v = SetVar({(y,) for y in range(8)}, 16)
    assert deficiency(v, (1,)) == 2 ** 1


def test_deficiency_fixed_coordinate():
    v = SetVar({(1, 1), (1, 2)}, 4)
    assert deficiency(v, (1,)) == 2 ** 2


def test_deficiency_monotone_under_marginalization():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.choice([2, 4, 8])
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, min(24, len(pop))))
        v = SetVar(support, m)
        full = tuple(range(1, n + 1))
        dJ = deficiency(v, full)
        for r in range(0, n + 1):
            for I in itertools.combinations(full, r):
                # log2 is monotone: the ratios order like the bits
                assert deficiency(v, I) <= dJ


# --- blockwise density ---

def test_density_full_domain():
    v = SetVar(set(itertools.product((1, 2, 3, 4), repeat=2)), 4)
    assert is_blockwise_dense(v, D)


def test_density_fails_on_fixed_coordinate():
    v = SetVar({(1, 1), (1, 2)}, 4)
    assert not is_blockwise_dense(v, D)


def test_density_fails_on_three_of_four():
    v = singles({1, 2, 3}, 4)
    # log2(3) >= 0.9*2 does not hold.
    assert not is_blockwise_dense(v, D)


def test_density_subset_budget(monkeypatch):
    monkeypatch.setattr(entropy, "SUBSET_BUDGET", 8)
    v = SetVar(set(itertools.product((1, 2), repeat=5)), 2)
    with pytest.raises(ResourceError):
        is_blockwise_dense(v, D)


def test_partition_subset_budget(monkeypatch):
    # 2 points on 5 blocks are far below m^(delta*5): the partition counts no
    # marginal, yet 2^5 subsets are still refused against a budget of 8
    monkeypatch.setattr(entropy, "SUBSET_BUDGET", 8)
    v = SetVar({(1,) * 5, (2,) * 5}, 2)
    assert violation_threshold(v.size, 5, D, 2) == 0
    with pytest.raises(ResourceError, match="^subset enumeration: needs 32 but budget is 8$"):
        density_restoring_partition(v, D)


# --- density-restoring partition ---

def reference_partition(v, delta):
    """Literal transcription of the procedure, with the documented tie-break,
    searching subsets exhaustively every round.  Kept separate from the
    implementation on purpose."""
    delta = as_fraction(delta)
    coords = v.coords
    m = v.m
    remaining = set(v.support)
    out = []
    while remaining:
        size = len(remaining)
        counts = {}
        violating = []
        for r in range(1, len(coords) + 1):
            for I in itertools.combinations(coords, r):
                pos = [i - 1 for i in I]  # block i sits at tuple position i - 1
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
        pos = [i - 1 for i in I]
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
    assert Fraction(parts[0].input_size, parts[0].tail_size) == 1


def test_partition_three_points_in_four():
    v = singles({1, 2, 3}, 4)
    parts = density_restoring_partition(v, D)
    assert [(p.coords, p.alpha) for p in parts] == [((1,), (1,)), ((1,), (2,)), ((1,), (3,))]
    assert [Fraction(p.input_size, p.tail_size) for p in parts] == [
        Fraction(1), Fraction(3, 2), Fraction(3)]


def test_partition_square_matches_reference_oracle():
    v = SetVar({(1, 1), (1, 2), (2, 1), (2, 2)}, 4)
    got = [(p.coords, p.alpha, p.support) for p in density_restoring_partition(v, D)]
    assert got == reference_partition(v, D)


def test_partition_matches_reference_oracle_randomly():
    rng = random.Random(20250809)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.choice([2, 4, 8])
        pop = list(itertools.product(range(1, m + 1), repeat=n))
        support = rng.sample(pop, rng.randint(1, min(30, len(pop))))
        v = SetVar(support, m)
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
    v = SetVar(points, m)
    parts = density_restoring_partition(v, delta)
    assert [p.order for p in parts] == list(range(1, len(parts) + 1))
    assert [(p.coords, p.alpha, p.support) for p in parts] == reference_partition(v, delta)
    assert verify_partition_lemma(v, parts, delta).ok


# Read on blocks 1-3 of four at delta = 1/2, m = 2: the six points need no
# grouping on J at the start (threshold 2 on J), (1,2) = (1,1) holds 4 > 3 of
# them, and the 2 left, which agree on J, fall below the threshold.
_MID_LOOP = ({(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1),
              (2, 2, 1, 2)}, 2, 4, (1, 2, 3), Fraction(1, 2))


@st.composite
def _view_sets(draw):
    """(points, m, n, coords, delta): a set read on a strict subset of its
    blocks, so several points may share a value on the blocks it is read on."""
    m = draw(st.sampled_from([2, 3, 4, 8]), label="m")
    n = draw(st.integers(2, 4), label="n")
    coords = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1),
                               label="coords")))
    points = draw(st.sets(st.tuples(*[st.integers(1, m)] * n), min_size=1, max_size=40),
                  label="points")
    delta = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), D, Fraction(1, 7)]),
                 label="delta")
    return points, m, n, coords, delta


@settings(max_examples=150, deadline=None, database=None)
@given(case=_view_sets())
@example(case=_MID_LOOP)
def test_partition_matches_reference_oracle_on_views(case):
    """Parts of a set read on some of its blocks agree with the oracle in
    order, coords, alpha, support, size and tails, whether the grouping on J
    holds from the start, from some round on, or never; and they pass the
    lemma, with D(X) read from X's heaviest count on J, since several points
    may share a value there."""
    points, m, n, coords, delta = case
    v = SetVar(points, m, coords)
    parts = density_restoring_partition(v, delta)
    assert [(p.coords, p.alpha, p.support) for p in parts] == reference_partition(v, delta)
    assert verify_partition_lemma(v, parts, delta).ok
    tail = v.size
    for order, p in enumerate(parts, 1):
        assert (p.order, p.size, p.tail_size, p.input_size) == (
            order, len(p.support), tail, v.size)
        tail -= p.size


@pytest.mark.parametrize("case, expected", [
    # read on blocks 1 and 3, five points below 8^(0.9*2): grouped on J from
    # the start; (1,7) and (2,5) tie at two points and the smaller alpha goes
    # first, then the single (1,1)
    (({(2, 1, 5), (2, 8, 5), (1, 3, 7), (1, 4, 7), (1, 1, 1)}, 8, 3, (1, 3), D),
     [((1, 3), (1, 7), {(1, 3, 7), (1, 4, 7)}, 5),
      ((1, 3), (2, 5), {(2, 1, 5), (2, 8, 5)}, 3),
      ((1, 3), (1, 1), {(1, 1, 1)}, 1)]),
    (_MID_LOOP,
     [((1, 2), (1, 1), {(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2)}, 6),
      ((1, 2, 3), (2, 2, 1), {(2, 2, 1, 1), (2, 2, 1, 2)}, 2)]),
], ids=["tie-from-start", "mid-loop"])
def test_partition_groups_on_J_pinned(case, expected):
    points, m, n, coords, delta = case
    v = SetVar(points, m, coords)
    parts = density_restoring_partition(v, delta)
    assert [(p.coords, p.alpha, p.support, p.tail_size) for p in parts] == expected
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
        v = SetVar(support, m)
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
            assert p.tail_size * Fraction(p.input_size, p.tail_size) == v.size


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
        v = SetVar(support, m)
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
        v = SetVar(rng.sample(pop, rng.randint(1, 40)), m)
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
            v = SetVar(support, m)
            parts = density_restoring_partition(v, D)
            assert verify_partition_lemma(v, parts, D).ok


def _fraction_verdicts(v, parts, delta):
    """(density_ok, deficiency_ok) of each part by the Fraction arithmetic
    the verifier used before it compared integer pairs, with the marginals
    counted here: the reference the property below holds it to."""
    m = v.m

    def heaviest(points, I):
        return max(Counter(tuple(t[i - 1] for i in I) for t in points).values())

    def deficiency_of(points, I):  # 1 on I = (): no coordinates, no deficiency
        return Fraction(m ** len(I) * heaviest(points, I), len(points)) if I else Fraction(1)

    def dense(points, coords):
        return all(_fraction_cmp_pow(Fraction(heaviest(points, I), len(points)), m,
                                     -delta * len(I)) <= 0
                   for r in range(1, len(coords) + 1)
                   for I in itertools.combinations(coords, r))

    d_x_size = deficiency_of(v.support, v.coords) * v.size
    tail = v.size
    verdicts = []
    for order, part in enumerate(parts, 1):
        fixed = all(tuple(t[i - 1] for i in part.coords) == part.alpha for t in part.support)
        counted = tail > 0 and (part.order, part.size, part.input_size, part.tail_size) == (
            order, len(part.support), v.size, tail)
        rest = tuple(i for i in v.coords if i not in part.coords)
        density_ok = fixed and dense(part.support, rest)
        deficiency_ok = counted and _fraction_cmp_pow(
            deficiency_of(part.support, rest) * tail / d_x_size, m,
            -(1 - delta) * len(part.coords)) <= 0
        verdicts.append((density_ok, deficiency_ok))
        tail -= len(part.support)
    return verdicts


def _peel_groups(v, picks):
    """Parts of v peeled by picks, read cyclically until nothing is left: for
    (I, k), the remainder is grouped by its value on I and the k-th group, in
    order of alpha and modulo their number, is peeled off with its true
    order, size, tail and input size.  Either bullet may fail on them."""
    remaining, parts = set(v.support), []
    while remaining:
        I, k = picks[len(parts) % len(picks)]
        groups = {}
        for t in remaining:
            groups.setdefault(tuple(t[i - 1] for i in I), set()).add(t)
        alpha = sorted(groups)[k % len(groups)]
        part = frozenset(groups[alpha])
        parts.append(entropy.DensityPart(len(parts) + 1, I, alpha, part, len(part),
                                         len(remaining), v.size))
        remaining -= part
    return parts


@st.composite
def _lemma_cases(draw):
    """(v, parts, delta): v on J <= 4 blocks of [m], parts either the
    partition's own or peeled by random groupings in random order."""
    m = draw(st.sampled_from([3, 4, 8]), label="m")
    n = draw(st.integers(1, 4), label="n")
    delta = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 2), D]), label="delta")
    points = draw(st.sets(st.tuples(*[st.integers(1, m)] * n), min_size=1, max_size=40),
                  label="points")
    v = SetVar(points, m)
    if draw(st.booleans(), label="own partition"):
        return v, density_restoring_partition(v, delta), delta
    picks = draw(st.lists(st.tuples(st.sets(st.integers(1, n)).map(lambda I: tuple(sorted(I))),
                                    st.integers(0, 40)), min_size=1, max_size=6), label="picks")
    return v, _peel_groups(v, picks), delta


# {1,2,3} in [4] as one part fixed on nothing is not 9/10-dense, and its
# deficiency bullet holds with equality; peeling {1} first from all of [4]
# fails the deficiency bullet, 4/4 > 4^(-1/10).
_DENSITY_FAILS = (singles({1, 2, 3}, 4), [((), 0)], D, [(False, True)])
_DEFICIENCY_FAILS = (singles({1, 2, 3, 4}, 4), [((1,), 0)], D,
                     [(True, False), (True, True), (True, True), (True, True)])


@pytest.mark.parametrize("v, picks, delta, verdicts", [_DENSITY_FAILS, _DEFICIENCY_FAILS],
                         ids=["density-fails", "deficiency-fails"])
def test_lemma_verdicts_pinned_failures(v, picks, delta, verdicts):
    parts = _peel_groups(v, picks)
    report = verify_partition_lemma(v, parts, delta)
    assert [(c.density_ok, c.deficiency_ok) for c in report.parts] == verdicts
    assert _fraction_verdicts(v, parts, delta) == verdicts
    assert report.is_partition and not report.ok


@settings(max_examples=200, deadline=None, database=None)
@given(case=_lemma_cases())
@example(case=(_DENSITY_FAILS[0], _peel_groups(*_DENSITY_FAILS[:2]), D))
@example(case=(_DEFICIENCY_FAILS[0], _peel_groups(*_DEFICIENCY_FAILS[:2]), D))
def test_lemma_verdicts_match_the_fraction_reference(case):
    """Each part's two verdicts, passes and failures alike, are the ones the
    Fraction arithmetic gives."""
    v, parts, delta = case
    report = verify_partition_lemma(v, parts, delta)
    assert [(c.density_ok, c.deficiency_ok) for c in report.parts] == _fraction_verdicts(
        v, parts, delta)


def test_setvar_validation():
    with pytest.raises(DomainError):
        SetVar(set(), 4)
    with pytest.raises(DomainError, match="one tuple arity"):
        SetVar({(1, 2), (1,)}, 4)  # mixed arities
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, 4, (1, 3))  # block 3 outside the tuples
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, 4, (2, 2))  # a repeated block
    with pytest.raises(DomainError):
        SetVar({(1, 2)}, 4, (2, 1))  # blocks out of order


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_project_counts_is_the_per_tuple_tally(data):
    """On 0-3 blocks, keys are tuples, one block included."""
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.sampled_from([2, 3, 4]), label="m")
    points = data.draw(st.sets(st.tuples(*[st.integers(1, m)] * n),
                               min_size=1, max_size=30), label="points")
    v = SetVar(points, m)
    for r in range(n + 1):
        for I in itertools.permutations(range(1, n + 1), r):
            want = Counter(tuple(t[i - 1] for i in sorted(I)) for t in points)
            assert v.project_counts(I) == want


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
    view = density_restoring_partition(SetVar(X, m, free), D)
    projected = density_restoring_partition(SetVar(points, m), D)
    mapped = [(p.order, tuple(free[j - 1] for j in p.coords), p.alpha,
               frozenset(x for x in X if proj(x) in p.support),
               p.size, p.tail_size, p.input_size) for p in projected]
    assert [(p.order, p.coords, p.alpha, p.support, p.size, p.tail_size, p.input_size)
            for p in view] == mapped
    assert verify_partition_lemma(SetVar(X, m, free), view, D).ok


def test_view_reads_only_its_blocks():
    # Block 2 is not read: its values may lie outside [m], and they do not
    # enter the marginals, the density or the partition labels.
    v = SetVar({(1, 5, 1), (1, 5, 2), (2, 5, 1), (2, 5, 2)}, 4, (1, 3))
    assert v.positions((3, 1)) == [0, 2]
    assert deficiency(v, (1, 3)) == 4
    assert is_blockwise_dense(v, Fraction(1, 2))
    with pytest.raises(DomainError):
        v.positions((2,))
    parts = density_restoring_partition(v, D)
    assert all(set(p.coords) <= {1, 3} for p in parts)
    assert frozenset().union(*(p.support for p in parts)) == v.support
