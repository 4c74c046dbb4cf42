"""Brute-force oracles and exact checkers.

Everything here recomputes quantities from first principles (slice
enumeration, closed-form counting, full Fourier sums) so the simulator and
refinement machinery can be checked against an independent route.  All
probabilities are exact rationals; square roots and irrational powers are
compared through squared or integer-powered forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BOT,
    ComposedInstance,
    PAIR_BUDGET_DEFAULT,
    PartialAssignment,
    Rect,
    compose_eval,
    is_structured,
    iter_slice,
    slice_count,
)
from .entropy import SetVar, as_fraction, cmp_pow, nonempty_subsets
from .errors import DomainError, ResourceError
from .protocol import (
    DecisionTree,
    RandomizedDecisionTree,
    RefinedProtocol,
    dt_eval,
    run_refined,
)
from .simulate import ExactDist


def true_transcript_dist(rp: RefinedProtocol, z, *,
                         pair_budget: int = PAIR_BUDGET_DEFAULT,
                         method: str = "auto") -> ExactDist:
    """Exact distribution of refined transcripts on a uniform slice input.

    method "enumerate" replays the protocol on every slice element; "count"
    tallies |slice ∩ leaf rectangle| per leaf (closed-form on cube Bob sets).
    "auto" picks the cheaper exact route.  Both agree; the enumeration is the
    independent oracle and stays available at small scale.
    """
    G = rp.G
    z = tuple(z)
    total = slice_count(G, z)
    if total == 0:
        raise DomainError(f"slice of z={z} is empty")
    leaves = rp.leaves()
    if method == "auto":
        count_cost = sum(len(leaf.rect.X) * leaf.rect.Y.count_slice_cost
                         for _, leaf in leaves)
        method = "count" if count_cost < total else "enumerate"
        if min(count_cost, total) > pair_budget:
            raise ResourceError("true transcript distribution",
                                min(count_cost, total), pair_budget)
    if method == "enumerate":
        if total > pair_budget:
            raise ResourceError("slice replay", total, pair_budget)
        counts = {}
        for xs, ys in iter_slice(G, z):
            t, _ = run_refined(rp, xs, ys)
            counts[t] = counts.get(t, 0) + 1
        return ExactDist.from_counts(counts)
    if method != "count":
        raise DomainError(f"unknown method {method!r}")
    counts = {}
    covered = 0
    for t, leaf in leaves:
        c = sum(leaf.rect.Y.count_slice(xs, z) for xs in leaf.rect.X)
        if c:
            counts[t] = counts.get(t, 0) + c
            covered += c
    if covered != total:
        raise DomainError("leaf rectangles failed to cover the slice")
    return ExactDist.from_counts(counts)


def tv_distance(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Half the L1 distance, over the union of supports (bottom included)."""
    out = Fraction(0)
    for o in d1.support | d2.support:
        out += abs(d1.prob(o) - d2.prob(o))
    return out / 2


def support_check(t_z: ExactDist, t_true: ExactDist) -> bool:
    """Every non-bottom outcome the simulator can emit occurs on the slice."""
    return all(o is BOT or t_true.prob(o) > 0 for o in t_z.support)


@dataclass(frozen=True)
class MarginalsReport:
    nonempty: bool
    tv_x: Fraction
    tv_y: Fraction
    structured: bool
    deficiency_ok: bool
    intersection_size: int

    @property
    def preconditions_held(self) -> bool:
        return self.structured and self.deficiency_ok


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
    if rect.pair_count > pair_budget:
        raise ResourceError("marginals enumeration", rect.pair_count, pair_budget)
    cap = Fraction(G.n ** 3) if cap is None else as_fraction(cap)
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
    tv_x = sum((abs(Fraction(c, total) - Fraction(1, len(rect.X)))
                for c in x_counts.values()), Fraction(0)) / 2
    tv_y = sum((abs(Fraction(c, total) - Fraction(1, len(Y)))
                for c in y_counts.values()), Fraction(0)) / 2
    return MarginalsReport(True, tv_x, tv_y, structured, deficiency_ok, total)


@dataclass(frozen=True)
class GadgetMatrix:
    """The +1/-1 communication matrix of a single index gadget."""

    m: int

    def entry(self, x: int, y: int) -> int:
        from .core import bit_at

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


def parity_bias(g, I, X: SetVar, Y: SetVar,
                pair_budget: int = PAIR_BUDGET_DEFAULT) -> Fraction:
    """E[(-1)^(xor of gadget outputs on I)] under independent uniform X and Y."""
    I, xpos, ypos = _aligned_positions(X, Y, I)
    if X.size * Y.size > pair_budget:
        raise ResourceError("parity bias enumeration", X.size * Y.size, pair_budget)
    acc = 0
    for xs in X.support:
        for ys in Y.support:
            parity = 0
            for xp, yp in zip(xpos, ypos):
                parity ^= g.eval(xs[xp], ys[yp])
            acc += -1 if parity else 1
    return Fraction(acc, X.size * Y.size)


@dataclass(frozen=True)
class NormBound:
    lhs: Fraction        # |parity bias|
    rhs_squared: Fraction
    holds: bool

    @property
    def rhs(self) -> float:
        return float(self.rhs_squared) ** 0.5


def _squared_two_norm(v: SetVar, I) -> Fraction:
    counts = v.project_counts(I)
    return sum((Fraction(c, v.size) ** 2 for c in counts.values()), Fraction(0))


def norm_bound_check(g, I, X: SetVar, Y: SetVar,
                     pair_budget: int = PAIR_BUDGET_DEFAULT) -> NormBound:
    """|bias| <= ||dist(X_I)|| * 2^(|I|m/2) * ||dist(Y_I)||, via squares.

    The middle factor is the operator norm of the tensored gadget matrix,
    which is exactly 2^(m/2) per block for the index gadget.
    """
    I, xpos, ypos = _aligned_positions(X, Y, I)
    lhs = abs(parity_bias(g, I, X, Y, pair_budget))
    qx = _squared_two_norm(X, I)
    qy = _squared_two_norm(Y, I)
    rhs_sq = qx * qy * (2 ** (len(I) * g.m))
    return NormBound(lhs, rhs_sq, lhs * lhs <= rhs_sq)


def fourier_coefficient(D: ExactDist, I) -> Fraction:
    """E[chi_I(z)] = sum_z D(z) * (-1)^(parity of z on I)."""
    acc = Fraction(0)
    for z, p in D.items():
        parity = sum(z[i - 1] for i in I) % 2
        acc += -p if parity else p
    return acc


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
    uniform = Fraction(1, 2 ** j)
    slack = Fraction(1, n ** 3) * uniform
    conclusion = all(
        abs(D.prob(z) - uniform) <= slack
        for z in itertools.product((0, 1), repeat=j)
    )
    return hypothesis, conclusion


def dt_error(T, f) -> Fraction:
    """Max over defined z of Pr[tree output != f(z)]; bottom counts as error."""
    if isinstance(T, DecisionTree):
        T = RandomizedDecisionTree(T.n, [(Fraction(1), T)])
    if T.n != f.n:
        raise DomainError("arity mismatch between tree and outer function")
    worst = Fraction(0)
    for z in f.defined():
        err = Fraction(0)
        for w, t in T.components:
            v, _ = dt_eval(t, z)
            if v != f(z):
                err += w
        worst = max(worst, err)
    return worst


def source_transcript_dist(rp: RefinedProtocol, z,
                           pair_budget: int = PAIR_BUDGET_DEFAULT) -> ExactDist:
    """Distribution of the unrefined protocol's transcripts on the slice;
    the projection of true_transcript_dist must coincide with it."""
    from .protocol import run_protocol

    G = rp.G
    total = slice_count(G, z)
    if total > pair_budget:
        raise ResourceError("slice replay", total, pair_budget)
    counts = {}
    for xs, ys in iter_slice(G, z):
        t, _ = run_protocol(rp.source, xs, ys)
        counts[t] = counts.get(t, 0) + 1
    return ExactDist.from_counts(counts)
