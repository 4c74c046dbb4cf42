"""Exact min-entropy, deficiency, blockwise density, and the density-restoring partition.

All quantities are kept exact: probabilities are big-integer rationals, and
an entropy, deficiency or potential of b bits is stored as the positive
rational q with log2(q) = b.  Every inequality on them is decided by integer
arithmetic, never by floats: one cmp_pow (raising both sides to a common
power), or in the partition's inner loop an integer count threshold derived
the same way; log2_float renders a stored ratio in bits for reports only.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceError

SUBSET_BUDGET = 2 ** 20  # cap on the number of enumerated coordinate subsets
RATIONAL_BUDGET = 10 ** 4  # cap on p and q of a given rate p/q; exact tests raise to them


def as_fraction(x) -> Fraction:
    """Coerce to an exact rational; floats go through their decimal repr.

    Fraction(0.9) would be the exact binary float 0.9000000000000000222...,
    which is never what a caller means by a density rate, so floats are read
    back from str().
    """
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def as_rate(delta) -> Fraction:
    """A density rate as an exact rational, refused outside (0, 1)."""
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0,1)")
    return delta


def cmp_pow(q: Fraction, base, exponent) -> int:
    """Compare q against base**exponent exactly; returns -1, 0, or +1.

    exponent may be any rational; both sides are raised to its denominator so
    the comparison happens between rationals with integer exponents.
    """
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


def _split_pow2(n: int) -> tuple[int, int]:
    """n = 2**e * odd; returns (e, odd)."""
    e = (n & -n).bit_length() - 1
    return e, n >> e


def log2_float(q) -> float:
    """log2(q) as a float, for rendering only; q is a positive rational.

    The power of two is split off first, so the float error is only that of
    log2 of the odd/odd remainder.
    """
    q = Fraction(q)
    en, odd_n = _split_pow2(q.numerator)
    ed, odd_d = _split_pow2(q.denominator)
    return float(en - ed) + math.log2(float(Fraction(odd_n, odd_d)))


def frac_str(q) -> str:
    """A rational as "p/q", for rendering; an integer keeps its "/1"."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class SetVar:
    """The uniform random variable on an explicit set of tuples, read on some
    of their blocks.

    support: tuples, one entry per block of the ambient;
    ambient: per-block domain sizes;
    coords:  the blocks it is read on (1-based, distinct, ascending), all by
             default.  Marginals, densities and partitions see only these
             blocks, under the caller's block labels, and parts keep the full
             tuples.  A marginal counts the tuples by their values on its
             blocks, so on a set constant off coords it is the marginal of the
             projection onto coords.
    """

    support: frozenset
    ambient: tuple
    coords: tuple

    def __init__(self, support, ambient, coords=None):
        support = frozenset(support)
        ambient = tuple(ambient)
        if coords is None:
            coords = tuple(range(1, len(ambient) + 1))
        coords = tuple(coords)
        if not support:
            raise DomainError("SetVar support must be nonempty")
        if (coords != tuple(sorted(set(coords)))
                or not set(coords) <= set(range(1, len(ambient) + 1))):
            raise DomainError(f"coords {coords} are not distinct, ascending "
                              f"blocks of 1..{len(ambient)}")
        for t in support:
            if len(t) != len(ambient):
                raise DomainError("support tuple arity does not match ambient")
        super().__setattr__("support", support)
        super().__setattr__("ambient", ambient)
        super().__setattr__("coords", coords)

    @property
    def size(self) -> int:
        return len(self.support)

    def positions(self, I) -> list:
        """Tuple positions of the blocks I, ascending; each must be in coords."""
        for i in I:
            if i not in self.coords:
                raise DomainError(f"coordinate {i} not in {self.coords}")
        return sorted(i - 1 for i in I)

    def project_counts(self, I) -> Counter:
        pos = self.positions(I)
        return Counter(tuple(t[p] for p in pos) for t in self.support)


def marginal_min_entropy(v: SetVar, I) -> Fraction:
    """Min-entropy of v's marginal on coordinate set I, as the ratio
    |v| / (heaviest outcome's count) whose log2 it is; 1 for I = ()."""
    I = tuple(I)
    if not I:
        return Fraction(1)
    max_count = max(v.project_counts(I).values())
    return Fraction(v.size, max_count)


def deficiency(v: SetVar, I) -> Fraction:
    """Ambient bits of the I-marginal minus its min-entropy, as the ratio
    (ambient size * heaviest count) / |v| whose log2 it is; 1 for I = ()."""
    I = tuple(I)
    if not I:
        return Fraction(1)
    pos = v.positions(I)
    ambient_size = 1
    for p in pos:
        ambient_size *= v.ambient[p]
    max_count = max(v.project_counts(I).values())
    return Fraction(ambient_size * max_count, v.size)


def _uniform_block_size(v: SetVar) -> int:
    """The common domain size of the blocks v is read on."""
    sizes = {v.ambient[i - 1] for i in v.coords}
    if not sizes:
        return 2  # irrelevant: no nonempty subsets exist
    if len(sizes) > 1:
        raise DomainError("blockwise density needs a uniform per-coordinate domain")
    return sizes.pop()


def nonempty_subsets(coords):
    """The nonempty subsets of coords by size, then lexicographically;
    refused beyond SUBSET_BUDGET."""
    n = len(coords)
    if n and 2 ** n > SUBSET_BUDGET:
        raise ResourceError("subset enumeration", 2 ** n, SUBSET_BUDGET)
    for r in range(1, n + 1):
        yield from itertools.combinations(coords, r)


def _max_prob(v: SetVar, I) -> Fraction:
    return Fraction(max(v.project_counts(I).values()), v.size)


def is_blockwise_dense(v: SetVar, delta, essential: bool = False) -> bool:
    """Every nonempty marginal has min-entropy rate >= delta (minus 1 bit if essential).

    Exhaustive over all 2^|J| - 1 nonempty coordinate subsets.
    """
    delta = as_rate(delta)
    m = _uniform_block_size(v)
    for I in nonempty_subsets(v.coords):
        p = _max_prob(v, I)
        if essential:
            p = p / 2  # H >= d|I|log m - 1  <=>  p <= 2 * m^(-d|I|)
        if cmp_pow(p, m, -delta * len(I)) > 0:
            return False
    return True


@dataclass(frozen=True)
class DensityPart:
    """One part of a density-restoring partition, in emission order.

    label reads "x_I = alpha"; delta_ratio is |X| / |X^(>=i)|, where X^(>=i)
    is what remained just before this part was peeled off; the part's drop
    delta_i is its log2.
    """

    order: int            # 1-based emission index
    coords: tuple         # I_i, ascending original labels
    alpha: tuple          # fixed value on I_i
    support: frozenset    # the part, as full-arity tuples of the input SetVar
    size: int
    tail_size: int        # |X^(>=i)|
    input_size: int       # |X|

    @property
    def delta_ratio(self) -> Fraction:
        return Fraction(self.input_size, self.tail_size)

    def label(self) -> str:
        if not self.coords:
            return ""
        idx = ",".join(str(i) for i in self.coords)
        val = ",".join(str(a) for a in self.alpha)
        return f"x_{{{idx}}}=({val})"


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for an integer x >= 0, by integer Newton steps."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)  # a power of two above the root
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def violation_threshold(size: int, k: int, delta: Fraction, m: int) -> int:
    """The largest count c with c/size <= m^(-delta*k), i.e. the heaviest
    outcome a k-block marginal of a set of `size` points may have and still
    hold min-entropy delta*k*log2(m).

    With delta = p/q the test c^q * m^(p*k) <= size^q is between integers, so
    the threshold is the integer q-th root of size^q / m^(p*k), rounded down.
    """
    p, q = delta.numerator, delta.denominator
    return _iroot(size ** q // m ** (p * k), q)


def _choose_violating_set(coords, violating):
    """A deterministic maximal set among the violating subsets (frozensets of
    the ascending coords); empty if there are none.

    The pool is every violating set that contains the smallest violating
    singleton, or every violating set when no singleton violates (e.g.
    diagonal sets).  The choice is the set in the pool whose membership
    vector over coords is lexicographically largest.  It is genuinely
    maximal, as the partition lemma needs: a violating strict superset would
    contain the singleton too and have a larger vector.  On the maximal sets,
    an antichain, the largest vector is the smallest sorted tuple.
    """
    singles = [i for I in violating if len(I) == 1 for i in I]
    pool = [I for I in violating if min(singles) in I] if singles else violating
    return tuple(sorted(max(pool, key=lambda I: [c in I for c in coords], default=())))


def _key(pos):
    """Reads a tuple's values at the positions pos, as a tuple."""
    if len(pos) == 1:
        p = pos[0]
        return lambda t: (t[p],)
    return operator.itemgetter(*pos)


def density_restoring_partition(v: SetVar, delta) -> list:
    """Split v.support into ordered parts, each fixed on a violating block set
    and delta-dense on the rest.

    While the remainder is nonempty: take the maximal subset I whose marginal
    is too concentrated, the heaviest outcome alpha on it (ties: smallest),
    peel off {x : x_I = alpha}.  A remainder that is already dense is emitted
    as a single part with the empty label, which ends the loop.

    Every marginal is counted once, at the start; a peel subtracts the peeled
    points from each count.  A marginal on k blocks is too concentrated when
    its heaviest count exceeds violation_threshold(|remainder|, k).
    """
    delta = as_rate(delta)
    m = _uniform_block_size(v)
    input_size = v.size
    remaining = set(v.support)
    marginals = {}  # nonempty subset of v.coords -> (its key, its counts)
    for I in nonempty_subsets(v.coords):
        key = _key(v.positions(I))
        marginals[frozenset(I)] = (key, Counter(map(key, remaining)))
    parts = []
    order = 0
    while remaining:
        order += 1
        size = len(remaining)
        limit = {k: violation_threshold(size, k, delta, m)
                 for k in range(1, len(v.coords) + 1)}
        violating = [I for I, (_, counts) in marginals.items()
                     if max(counts.values()) > limit[len(I)]]
        I = _choose_violating_set(v.coords, violating)
        if not I:
            parts.append(DensityPart(order, (), (), frozenset(remaining),
                                      size, size, input_size))
            break
        key, counts = marginals[frozenset(I)]
        best = max(counts.values())
        alpha = min(a for a, c in counts.items() if c == best)
        part = frozenset(t for t in remaining if key(t) == alpha)
        if len(part) != best:  # a stale count would loop on an empty part
            raise RuntimeError(f"marginal count {best} of {I}={alpha} "
                               f"disagrees with the remainder ({len(part)})")
        parts.append(DensityPart(order, I, alpha, part,
                                 len(part), size, input_size))
        remaining -= part
        for key, counts in marginals.values():
            for a in map(key, part):
                if counts[a] == 1:
                    del counts[a]
                else:
                    counts[a] -= 1
    return parts


@dataclass(frozen=True)
class PartCheck:
    order: int
    label: str
    density_ok: bool
    deficiency_ok: bool


@dataclass(frozen=True)
class PartitionLemmaReport:
    ok: bool
    is_partition: bool
    parts: tuple

    def first_violation(self):
        for p in self.parts:
            if not (p.density_ok and p.deficiency_ok):
                return p
        return None


def verify_partition_lemma(v: SetVar, parts, delta) -> PartitionLemmaReport:
    """Check both partition-lemma bullets for every part, in exact arithmetic.

    Of each part only its coords, alpha and support are read; its order,
    size, input size and tail are recomputed from its place in `parts`, and a
    part that claims other values fails the deficiency bullet.
    Density: every tuple of the part equals alpha on its coords, and the part
    is delta-dense on the remaining blocks of v.
    Deficiency: D(X^i on J\\I_i) <= D(X) - (1-delta)|I_i| log m + delta_i,
    with delta_i taken from the recomputed tail.  It is checked as one
    rational-vs-m^q comparison, so it stays exact even when m is not a power
    of two.
    """
    delta = as_rate(delta)
    m = _uniform_block_size(v)
    seen = set()
    tail = v.size  # |X^(>=i)|, before the current part is peeled off
    checks = []
    for order, part in enumerate(parts, 1):
        size = len(part.support)
        pos = v.positions(part.coords)
        fixed = all(tuple(t[p] for p in pos) == part.alpha for t in part.support)
        counted = tail > 0 and (part.order, part.size, part.input_size,
                                part.tail_size) == (order, size, v.size, tail)
        rest = tuple(i for i in v.coords if i not in part.coords)
        if rest:
            sub = SetVar(part.support, v.ambient, rest)
            density_ok = fixed and is_blockwise_dense(sub, delta)
            lhs_arg = deficiency(sub, rest)
        else:
            density_ok = fixed
            lhs_arg = Fraction(1)  # deficiency over no coordinates is 0
        # lhs <= D(X) + delta_i - (1-delta)|I| log m, with
        # D(X) = log2(m^|J| / |X|) and delta_i = log2(|X| / tail).
        deficiency_ok = counted and cmp_pow(lhs_arg * tail / m ** len(v.coords), m,
                                            -(1 - delta) * len(part.coords)) <= 0
        checks.append(PartCheck(order, part.label(), density_ok, deficiency_ok))
        seen |= part.support
        tail -= size
    is_partition = tail == 0 and seen == set(v.support)
    ok = is_partition and all(c.density_ok and c.deficiency_ok for c in checks)
    return PartitionLemmaReport(ok, is_partition, tuple(checks))
