"""Brute-force oracles and exact checkers.

Everything here recomputes quantities from first principles (slice
enumeration, closed-form counting, full Fourier sums) so the simulator and
refinement machinery can be checked against an independent route.  All
probabilities are exact rationals; square roots and irrational powers are
compared through squared or integer-powered forms.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .core import (
    BOT,
    ComposedInstance,
    PAIR_BUDGET_DEFAULT,
    PartialAssignment,
    Rect,
    bit_at,
    compose_eval,
    gadget,
    is_structured,
    iter_slice,
    slice_count,
)
from .entropy import SetVar, cmp_pow, nonempty_subsets
from .errors import DomainError, ResourceError
from .protocol import (
    DecisionTree,
    RandomizedDecisionTree,
    RefinedProtocol,
    run_protocol,
    run_refined,
)
from .simulate import ExactDist, SimConfig


def true_transcript_dist(rp: RefinedProtocol, z, *,
                         pair_budget: int = PAIR_BUDGET_DEFAULT) -> ExactDist:
    """Exact distribution of refined transcripts on a uniform slice input.

    The budget picks the route.  The count reads z's row of `rp.slice_table`,
    |slice ∩ leaf rectangle| per leaf, built once and shared by all 2^n
    values of z; it runs when its cost, `rp.count_cost` (`slice_counts_cost`
    per leaf row, also summed once per protocol), fits.  Otherwise the slice
    is replayed (`replay_transcript_dist`) when it fits, and otherwise
    ResourceError names the smaller of the two costs.
    """
    total = slice_count(rp.G, z)
    z = tuple(z)
    if rp.count_cost > pair_budget:
        if total > pair_budget:
            raise ResourceError("true transcript distribution",
                                min(rp.count_cost, total), pair_budget)
        return replay_transcript_dist(rp, z, pair_budget=pair_budget)
    counts = rp.slice_table.get(z, {})
    if sum(counts.values()) != total:
        raise DomainError("leaf rectangles failed to cover the slice")
    return ExactDist(counts)


def _replay(G: ComposedInstance, z, run, pair_budget: int) -> ExactDist:
    """The transcripts run(xs, ys) yields over the slice G^{-1}(z), tallied."""
    total = slice_count(G, z)
    if total > pair_budget:
        raise ResourceError("slice replay", total, pair_budget)
    return ExactDist(
        Counter(run(xs, ys)[0] for xs, ys in iter_slice(G, z)))


def replay_transcript_dist(rp: RefinedProtocol, z, *,
                           pair_budget: int = PAIR_BUDGET_DEFAULT) -> ExactDist:
    """true_transcript_dist by replaying the refined protocol on every slice
    element: the independent reference the count is checked against, and its
    route when the count does not fit the budget."""
    return _replay(rp.G, z, partial(run_refined, rp), pair_budget)


def tv_distance(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Half the L1 distance, over the union of supports (bottom included).

    Both sum to 1, so it is 1 - sum min(p, q) over the common support: with
    p = a/t1 and q = b/t2, one integer sum of min(a t2, b t1) over t1 t2."""
    c2, t1, t2 = d2.counts, d1.total, d2.total
    common = sum(min(a * t2, c2[o] * t1) for o, a in d1.counts.items() if o in c2)
    return Fraction(t1 * t2 - common, t1 * t2)


def support_check(t_z: ExactDist, t_true: ExactDist) -> bool:
    """Every non-bottom outcome the simulator can emit occurs on the slice."""
    return all(o is BOT or o in t_true.counts for o in t_z.counts)


@dataclass(frozen=True)
class MarginalsReport:
    nonempty: bool
    tv_x: Fraction
    tv_y: Fraction
    structured: bool
    deficiency_ok: bool
    intersection_size: int


def marginals_report(rect: Rect, rho: PartialAssignment, z, G: ComposedInstance,
                     delta=Fraction(9, 10), cap=None,
                     pair_budget: int = PAIR_BUDGET_DEFAULT) -> MarginalsReport:
    """How close the slice-conditioned marginals are to uniform on X and Y.

    The closeness guarantee behind this report is asymptotic in the gadget
    size; at desk scale the hypotheses can hold while the intersection is
    empty, so emptiness is reported, never asserted.
    """
    z = tuple(z)
    if not rho.consistent(z):
        raise DomainError("z is not consistent with rho")
    cap = SimConfig(deficiency_cap=cap).cap_bits(G.n)
    pairs = len(rect.X) * rect.Y.size
    if pairs > pair_budget:
        raise ResourceError("marginals enumeration", pairs, pair_budget)
    Y = rect.Y.materialize(pair_budget)
    x_counts = {xs: 0 for xs in rect.X}
    y_counts = {ys: 0 for ys in Y}
    total = 0
    for xs in rect.X:
        for ys in Y:
            if compose_eval(G, xs, ys) == z:
                x_counts[xs] += 1
                y_counts[ys] += 1
                total += 1
    structured = is_structured(rect, rho, delta, G)
    deficiency_ok = cmp_pow(rect.Y.deficiency(), 2, cap) <= 0
    if total == 0:
        return MarginalsReport(False, Fraction(1), Fraction(1),
                               structured, deficiency_ok, 0)
    # half of sum |c/total - 1/|X||, over the denominator total * |X|
    nx, ny = len(rect.X), len(Y)
    tv_x = Fraction(sum(abs(c * nx - total) for c in x_counts.values()), 2 * total * nx)
    tv_y = Fraction(sum(abs(c * ny - total) for c in y_counts.values()), 2 * total * ny)
    return MarginalsReport(True, tv_x, tv_y, structured, deficiency_ok, total)


@dataclass(frozen=True)
class GadgetMatrix:
    """The +1/-1 communication matrix of a single index gadget."""

    m: int

    def entry(self, x: int, y: int) -> int:
        return -1 if bit_at(y, x, self.m) else 1

    def rows_pairwise_orthogonal(self) -> bool:
        for x1 in range(1, self.m + 1):
            for x2 in range(x1 + 1, self.m + 1):
                if sum(self.entry(x1, y) * self.entry(x2, y)
                       for y in range(2 ** self.m)) != 0:
                    return False
        return True

    @property
    def operator_norm_squared(self) -> int:
        # rows orthogonal, each of squared length 2^m
        return 2 ** self.m


def _aligned_positions(X: SetVar, Y: SetVar, I):
    I = tuple(sorted(I))
    if not I:
        raise DomainError("I must be nonempty")
    return I, X.positions(I), Y.positions(I)


def parity_bias(I, X: SetVar, Y: SetVar,
                pair_budget: int = PAIR_BUDGET_DEFAULT) -> Fraction:
    """E[(-1)^(xor of gadget outputs on I)] under independent uniform X and Y,
    the index gadget on X's block size m (Y's blocks are m-bit strings)."""
    I, xpos, ypos = _aligned_positions(X, Y, I)
    if X.size * Y.size > pair_budget:
        raise ResourceError("parity bias enumeration", X.size * Y.size, pair_budget)
    acc = 0
    for xs in X.support:
        for ys in Y.support:
            parity = 0
            for xp, yp in zip(xpos, ypos):
                parity ^= gadget(xs[xp], ys[yp], X.m)
            acc += -1 if parity else 1
    return Fraction(acc, X.size * Y.size)


@dataclass(frozen=True)
class NormBound:
    lhs: Fraction        # |parity bias|
    rhs_squared: Fraction
    holds: bool


def _squared_two_norm(v: SetVar, I) -> Fraction:
    return Fraction(sum(c * c for c in v.project_counts(I).values()), v.size ** 2)


def norm_bound_check(I, X: SetVar, Y: SetVar,
                     pair_budget: int = PAIR_BUDGET_DEFAULT) -> NormBound:
    """|bias| <= ||dist(X_I)|| * 2^(|I|m/2) * ||dist(Y_I)||, via squares.

    The middle factor is the operator norm of the tensored gadget matrix:
    GadgetMatrix's per-block squared norm, to the power |I|.
    """
    I, xpos, ypos = _aligned_positions(X, Y, I)
    lhs = abs(parity_bias(I, X, Y, pair_budget))
    qx = _squared_two_norm(X, I)
    qy = _squared_two_norm(Y, I)
    rhs_sq = qx * qy * GadgetMatrix(X.m).operator_norm_squared ** len(I)
    return NormBound(lhs, rhs_sq, lhs * lhs <= rhs_sq)


def fourier_coefficient(D: ExactDist, I) -> Fraction:
    """E[chi_I(z)] = sum_z D(z) * (-1)^(parity of z on I), summed as counts."""
    return Fraction(sum(-c if sum(z[i - 1] for i in I) % 2 else c
                        for z, c in D.counts.items()), D.total)


def fourier_pointwise_check(D: ExactDist, n: int) -> tuple:
    """(hypothesis, conclusion) of the parities-to-pointwise implication.

    hypothesis: every nonempty parity bias is at most n^(-5|I|);
    conclusion: every point probability is within a 1/n^3 factor of uniform.
    Exact: 2^(-5|I| log2 n) is n^(-5|I|), a rational.  Needs n >= 2 (at n = 1
    the bound is 1 and vacuous), and the bound is calibrated for index sets
    living inside [n], i.e. |J| <= n.
    """
    if n < 2:
        raise DomainError("the parity bound needs n >= 2")
    sizes = {len(z) for z in D.support}
    if len(sizes) != 1:
        raise DomainError("distribution outcomes must share one length")
    (j,) = sizes
    hypothesis = all(abs(fourier_coefficient(D, I)) <= Fraction(1, n ** (5 * len(I)))
                     for I in nonempty_subsets(range(1, j + 1)))
    # |c/total - 1/2^j| <= 1/(n^3 2^j), both sides times n^3 2^j total
    total, cube = D.total, n ** 3
    conclusion = all(cube * abs(D.counts.get(z, 0) * 2 ** j - total) <= total
                     for z in itertools.product((0, 1), repeat=j))
    return hypothesis, conclusion


def dt_error(T, f) -> Fraction:
    """Max over defined z of Pr[tree output != f(z)]; bottom counts as error."""
    if isinstance(T, DecisionTree):
        T = RandomizedDecisionTree(T.n, [(Fraction(1), T)])
    if T.n != f.n:
        raise DomainError("arity mismatch between tree and outer function")
    return max((sum((p for v, p in T.output_dist(z).items() if v != f(z)), Fraction(0))
                for z in f.defined()), default=Fraction(0))


def source_transcript_dist(rp: RefinedProtocol, z,
                           pair_budget: int = PAIR_BUDGET_DEFAULT) -> ExactDist:
    """Distribution of the unrefined protocol's transcripts, replayed on the
    slice; the projection of true_transcript_dist must coincide with it."""
    return _replay(rp.G, z, partial(run_protocol, rp.source), pair_budget)
