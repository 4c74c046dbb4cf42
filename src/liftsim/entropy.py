"""Exact deficiency, blockwise density, and the density-restoring partition.

All quantities are kept exact: probabilities are big-integer rationals, and
an entropy, deficiency or potential of b bits is stored as the positive
rational q with log2(q) = b.  Every inequality on them is decided by integer
arithmetic, never by floats: one cmp_pow (both sides raised to a common
power and cross-multiplied, as integers), or in the partition's inner loop an
integer count threshold derived the same way; log2_float renders a stored
ratio in bits for reports only.  The lemma verifier and the density check build
no Fraction: with delta = p/q, a part's deficiency bullet is one cmp_pow of the
pair (num * tail, den * m^|J| * h) against m^((p-q)|I|/q) (see verify_partition_lemma).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_power_of_two

SUBSET_BUDGET = 2 ** 20  # cap on the number of enumerated coordinate subsets
RATIONAL_BUDGET = 10 ** 4  # cap on p and q of a given rate p/q; exact tests raise to them


def parse_rational(x) -> Fraction:
    """Fraction(x), but a str whose decimal exponent has over 4 digits is refused
    before Fraction builds 10**exponent (seconds at 8 digits): no mantissa of at
    most 4300 digits per integer (Python's cap) brings it back within budget."""
    if isinstance(x, str) and re.search(r"e[-+]?0*[1-9]\d{4}", x.replace("_", ""), re.I):
        raise DomainError(f"{x!r}: decimal exponent has more than 4 digits")
    return Fraction(x)


def as_fraction(x) -> Fraction:
    """Coerce to an exact rational; floats go through their decimal repr.

    Fraction(0.9) would be the exact binary float 0.9000000000000000222...,
    which is never what a caller means by a density rate, so floats are read
    back from str().  A Fraction is returned as is; the rest go to parse_rational.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return parse_rational(x)


def as_rate(delta) -> Fraction:
    """A density rate as an exact rational, refused outside (0, 1)."""
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise DomainError("delta must be in (0,1)")
    return delta


def _ratio(x, read=Fraction) -> tuple[int, int]:
    """(numerator, denominator) of x: an integer pair as it is, else x read
    by `read` unless an int or a Fraction."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    x = read(x)
    return x.numerator, x.denominator


def cmp_pow(q: Fraction, base, exponent) -> int:
    """Compare q against base**exponent exactly; returns -1, 0, or +1.

    exponent may be any rational r/s; with q = a/b and base = c/d, both sides
    are raised to the power s and cross-multiplied, so the comparison is one
    between the integers a^s * d^r and c^r * b^s (a^s * c^-r and d^-r * b^s
    when r < 0).  A float exponent is read through its decimal repr.  q and
    exponent may also be integer pairs (a, b) with b > 0, read as a/b and
    not reduced, so a caller holding integers builds no Fraction.
    """
    a, b = _ratio(q)
    if a <= 0:
        raise DomainError("cmp_pow requires a positive left side")
    c, d = _ratio(base)
    if c <= 0:
        raise DomainError("cmp_pow requires a positive base")
    r, s = _ratio(exponent, as_fraction)
    if r < 0:
        c, d, r = d, c, -r
    lhs = a ** s * d ** r
    rhs = c ** r * b ** s
    return (lhs > rhs) - (lhs < rhs)


def log2_float(q) -> float:
    """log2(q) as a float, for rendering only; q is a positive rational, or an
    integer pair (a, b) with b > 0 read as a/b.

    The power of two is split off first, so the float error is only that of
    log2 of the odd/odd remainder, an int quotient that is correctly rounded,
    as float() of its Fraction is, whether or not the pair is reduced.
    """
    a, b = _ratio(q)
    en, ed = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1  # trailing zeros
    return float(en) - float(ed) + math.log2((a >> en) / (b >> ed))


def frac_str(q) -> str:
    """A rational, or an integer pair (a, b) with b > 0, as "p/q" in lowest
    terms, for rendering; an integer keeps its "/1"."""
    a, b = _ratio(q)
    g = math.gcd(a, b)
    return f"{a // g}/{b // g}"


@dataclass(frozen=True)
class SetVar:
    """The uniform random variable on an explicit set of tuples, read on some
    of their blocks.

    support: tuples of one arity, one entry per block;
    m:       the domain size of every block;
    coords:  the blocks it is read on (1-based, distinct, ascending), all by
             default.  Marginals, densities and partitions see only these
             blocks, under the caller's block labels, and parts keep the full
             tuples.  A marginal counts the tuples by their values on its
             blocks, so on a set constant off coords it is the marginal of the
             projection onto coords.
    """

    support: frozenset
    m: int
    coords: tuple

    def __init__(self, support, m, coords=None):
        support = frozenset(support)
        arities = set(map(len, support))
        if len(arities) != 1:
            raise DomainError("SetVar support must be nonempty, of one tuple arity")
        (n,) = arities
        coords = tuple(range(1, n + 1)) if coords is None else tuple(coords)
        if (coords != tuple(sorted(set(coords)))
                or not set(coords) <= set(range(1, n + 1))):
            raise DomainError(f"coords {coords} are not distinct, ascending "
                              f"blocks of 1..{n}")
        super().__setattr__("support", support)
        super().__setattr__("m", m)
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
        """The tuples counted by their values on the blocks I, as tuples."""
        pos = self.positions(I)
        if not pos:
            return Counter({(): self.size})
        get = operator.itemgetter(*pos)
        return Counter(zip(map(get, self.support)) if len(pos) == 1
                       else map(get, self.support))


def deficiency(v: SetVar, I) -> Fraction:
    """Ambient bits of the I-marginal minus its min-entropy, as the ratio
    (m^|I| * heaviest count) / |v| whose log2 it is; 1 for I = ()."""
    I = tuple(I)
    if not I:
        return Fraction(1)
    return Fraction(v.m ** len(I) * max(v.project_counts(I).values()), v.size)


def nonempty_subsets(coords):
    """The nonempty subsets of coords by size, then lexicographically, as a
    lazy iterator; refused beyond SUBSET_BUDGET at the call, before any is
    listed."""
    n = len(coords)
    check_power_of_two("subset enumeration", n, SUBSET_BUDGET)
    return itertools.chain.from_iterable(
        itertools.combinations(coords, r) for r in range(1, n + 1))


def is_blockwise_dense(v: SetVar, delta) -> bool:
    """Every nonempty marginal has min-entropy rate >= delta.

    Exhaustive over all 2^|J| - 1 nonempty coordinate subsets.
    """
    delta = as_rate(delta)
    p, q = delta.numerator, delta.denominator
    for I in nonempty_subsets(v.coords):
        if cmp_pow((max(v.project_counts(I).values()), v.size), v.m, (-p * len(I), q)) > 0:
            return False
    return True


@dataclass(frozen=True)
class DensityPart:
    """One part of a density-restoring partition, in emission order.

    label reads "x_I = alpha"; X^(>=i) is what remained just before this
    part was peeled off, and the part's drop delta_i is log2(|X| / |X^(>=i)|),
    rendered from (input_size, tail_size).
    """

    order: int            # 1-based emission index
    coords: tuple         # I_i, ascending original labels
    alpha: tuple          # fixed value on I_i
    support: frozenset    # the part, as full-arity tuples of the input SetVar
    size: int
    tail_size: int        # |X^(>=i)|
    input_size: int       # |X|

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

    A marginal on k blocks is too concentrated when its heaviest count
    exceeds violation_threshold(|remainder|, k).  Every marginal is counted
    once, in the first round that needs them; a peel subtracts the peeled
    points from each count.

    The singleton regime, in closed form (each group is one point when J is
    every block).  Let J = v.coords be nonempty.  In a round where
    violation_threshold(|remainder|, |J|) is 0, the rest of the partition is
    the remainder grouped by its value on J, heaviest group first, ties to
    the smallest alpha, and no marginal needs counting:
    - every outcome of the J-marginal has count >= 1 > 0, so J violates;
    - J's membership vector over coords is all ones, the largest there is,
      and J holds every violating singleton, so _choose_violating_set picks
      J whichever pool it searches; the peel is then the heaviest group;
    - the threshold never grows as the size shrinks, so it stays 0 in every
      later round and J is picked again;
    - a peel on J removes one whole group and leaves the others' J-counts
      as they were, so the order of the groups is fixed on entry.
    Below m^(delta*|J|) points the regime holds from the start, and then the
    subsets are never listed; SUBSET_BUDGET still refuses a J too large.

    The J-marginal is never counted when J covers every block of the tuples:
    - remaining is a set, so its tuples differ on J, and every count of the
      J-marginal is 1, in every round;
    - J therefore violates only in a round whose threshold is 0, and that
      round is the singleton regime's, which reads no marginal;
    - so J is never in `violating`, never peeled on, and its counts are
      never read.
    When J misses a block, tuples may repeat a value on J, and it is counted.
    """
    delta = as_rate(delta)
    m = v.m
    J = v.coords
    subsets = nonempty_subsets(J)  # refused here, beyond SUBSET_BUDGET
    input_size = v.size
    remaining = set(v.support)
    arity = len(next(iter(remaining)))
    marginals = {}  # nonempty subset of J, J only if it misses a block -> (its key, its counts)
    parts = []
    order = 0
    while remaining:
        order += 1
        size = len(remaining)
        limit = {k: violation_threshold(size, k, delta, m)
                 for k in range(1, len(J) + 1)}
        if J and not limit[len(J)]:
            key, groups = _key(v.positions(J)), {}
            for t in remaining:
                groups.setdefault(key(t), []).append(t)
            for alpha in sorted(groups, key=lambda a: (-len(groups[a]), a)):
                part = frozenset(groups[alpha])
                parts.append(DensityPart(order, J, alpha, part,
                                         len(part), size, input_size))
                order += 1
                size -= len(part)
            break
        if order == 1:
            for I in subsets:
                if len(I) == arity:  # all ones: see the docstring
                    continue
                pos = v.positions(I)
                key = _key(pos)
                marginals[frozenset(I)] = (key, Counter(
                    zip(map(operator.itemgetter(*pos), remaining)) if len(pos) == 1
                    else map(key, remaining)))
        violating = [I for I, (_, counts) in marginals.items()
                     if max(counts.values()) > limit[len(I)]]
        I = _choose_violating_set(J, violating)
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
    with delta_i = log2(|X| / tail) from the recomputed tail.  With delta = p/q,
    h = X's heaviest count on J (points may repeat a value there) and num/den =
    m^|rest| * X^i's heaviest count on rest / |X^i| (1/1 for rest = ()), it is
        num * tail / (den * m^|J| * h) <= m^((p-q)|I_i| / q),
    one cmp_pow on integer pairs, exact even when m is not a power of two.
    """
    delta = as_rate(delta)
    p, q = delta.numerator, delta.denominator
    m = v.m
    d_x_size = m ** len(v.coords) * max(v.project_counts(v.coords).values())
    seen = set()
    tail = v.size  # |X^(>=i)|, before the current part is peeled off
    checks = []
    for order, part in enumerate(parts, 1):
        size = len(part.support)
        pos = v.positions(part.coords)
        fixed = all(tuple(t[i] for i in pos) == part.alpha for t in part.support)
        counted = tail > 0 and (part.order, part.size, part.input_size,
                                part.tail_size) == (order, size, v.size, tail)
        rest = tuple(i for i in v.coords if i not in part.coords)
        if rest:
            sub = SetVar(part.support, m, rest)
            density_ok = fixed and is_blockwise_dense(sub, delta)
            num, den = m ** len(rest) * max(sub.project_counts(rest).values()), sub.size
        else:
            density_ok = fixed
            num = den = 1  # deficiency over no coordinates is 0
        deficiency_ok = counted and cmp_pow((num * tail, den * d_x_size), m,
                                            ((p - q) * len(part.coords), q)) <= 0
        checks.append(PartCheck(order, part.label(), density_ok, deficiency_ok))
        seen |= part.support
        tail -= size
    is_partition = tail == 0 and seen == set(v.support)
    ok = is_partition and all(c.density_ok and c.deficiency_ok for c in checks)
    return PartitionLemmaReport(ok, is_partition, tuple(checks))
