"""The index gadget, composed instances, Bob sets, rectangles, partial
assignments, and slices.

Conventions used throughout: Alice's per-block value x is 1-based in [m];
Bob's per-block value y is an m-bit string, written left to right, so bit 1 is
the most significant bit of the integer that stores it.  The index gadget
returns bit x of y under that order.  An explicit set of Bob inputs is one
integer bit mask over the 2^(nm) inputs, and its cuts and counts are ANDs
and popcounts.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from . import entropy
from .errors import DomainError, ResourceError, check_power_of_two

PAIR_BUDGET_DEFAULT = 2 ** 24  # cap on |X| * |Y| (and on slice sizes) for enumeration


class _BotType:
    """Failure outcome of a simulation; a single shared sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"

    def __str__(self):
        return "bot"


BOT = _BotType()


def bit_at(y: int, pos: int, m: int) -> int:
    """Bit `pos` (1-based, left to right) of the m-bit string stored in y."""
    if not 1 <= pos <= m:
        raise DomainError(f"bit position {pos} outside 1..{m}")
    return (y >> (m - pos)) & 1


def gadget(x: int, y: int, m: int) -> int:
    """The index gadget on one block: bit x of y, for x in [m] and y in {0,1}^m."""
    if not 1 <= x <= m:
        raise DomainError(f"x={x} outside [{m}]")
    if not 0 <= y < 2 ** m:
        raise DomainError(f"y={y} is not a {m}-bit string")
    return bit_at(y, x, m)


@dataclass(frozen=True)
class ComposedInstance:
    """G = g^n on [m]^n x ({0,1}^m)^n, the index gadget on every block."""

    n: int
    m: int

    def __post_init__(self):
        if type(self.m) is not int or self.m < 2 or self.m & (self.m - 1):
            raise DomainError(f"index gadget needs m a power of 2, m >= 2; got {self.m}")
        if type(self.n) is not int or self.n < 1:
            raise DomainError(f"need an integer n >= 1 blocks, got {self.n!r}")

    @property
    def log_m(self) -> int:
        return self.m.bit_length() - 1

    @property
    def alice_size(self) -> int:
        return self.m ** self.n

    @property
    def bob_size(self) -> int:
        return 2 ** (self.m * self.n)

    def alice_domain(self):
        return itertools.product(range(1, self.m + 1), repeat=self.n)

    def bob_domain(self):
        return itertools.product(range(2 ** self.m), repeat=self.n)

    def check_alice_budget(self, pair_budget: int) -> None:
        """Refuse more than pair_budget Alice inputs by the exponent of m^n."""
        check_power_of_two("Alice domain", self.n * self.log_m, pair_budget)

    def full_X(self, pair_budget: int = PAIR_BUDGET_DEFAULT) -> frozenset:
        """The Alice domain; refused when its m^n tuples exceed the budget."""
        self.check_alice_budget(pair_budget)
        return frozenset(self.alice_domain())

    def full_Y(self, pair_budget: int = PAIR_BUDGET_DEFAULT):
        """The explicit Bob domain, the all-ones mask; refused when its
        2^(nm) elements exceed the budget."""
        check_power_of_two("explicit Bob domain", self.n * self.m, pair_budget)
        return ExplicitBobSet._of_bits(self.n, self.m, (1 << self.bob_size) - 1)

    def check_alice(self, xs):
        if len(xs) != self.n:
            raise DomainError(f"Alice input has {len(xs)} blocks, expected {self.n}")
        for x in xs:
            if not 1 <= x <= self.m:
                raise DomainError(f"Alice block value {x} outside [{self.m}]")

    def check_bob(self, ys):
        if len(ys) != self.n:
            raise DomainError(f"Bob input has {len(ys)} blocks, expected {self.n}")
        for y in ys:
            if not 0 <= y < 2 ** self.m:
                raise DomainError(f"Bob block value {y} out of range")

    def check_z(self, z) -> tuple:
        """z as a tuple, refused unless it is a bit string of n blocks."""
        z = tuple(z)
        if len(z) != self.n:
            raise DomainError("z arity mismatch")
        if any(c not in (0, 1) for c in z):
            raise DomainError("z must be a bit string")
        return z


def _bits(y: str, m: int) -> int:
    """A '0101' string of exactly m characters as the int that stores it."""
    if len(y) != m or not set(y) <= {"0", "1"}:
        raise DomainError(f"y={y!r} is not a {m}-bit string")
    return int(y, 2)


def compose_eval(G: ComposedInstance, xs, ys) -> tuple:
    """z with z_i = g(xs_i, ys_i); a block of ys is an int or an m-character
    '0101' string."""
    xs = tuple(xs)
    ys = tuple(_bits(y, G.m) if isinstance(y, str) else y for y in ys)
    G.check_alice(xs)
    G.check_bob(ys)
    return tuple(gadget(x, y, G.m) for x, y in zip(xs, ys))


@dataclass(frozen=True, slots=True)
class PartialAssignment:
    """rho in {0,1,*}^n; entries use None for *.  `free` and `fix`, the
    1-based blocks of * and of a bit, are listed when it is built; equality
    and hashing read `entries` only."""

    entries: tuple
    free: tuple = field(repr=False, compare=False)
    fix: tuple = field(repr=False, compare=False)

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if e not in (0, 1, None):
                raise DomainError("partial assignment entries must be 0, 1, or None")
        self._fill(entries)

    def _fill(self, entries: tuple) -> "PartialAssignment":
        free, fix = [], []
        for i, e in enumerate(entries, 1):
            (free if e is None else fix).append(i)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "free", tuple(free))
        object.__setattr__(self, "fix", tuple(fix))
        return self

    @classmethod
    def free_everywhere(cls, n: int) -> "PartialAssignment":
        return cls((None,) * n)

    def __str__(self):
        return "".join("*" if e is None else str(e) for e in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def value(self, i: int):
        return self.entries[i - 1]

    def consistent(self, z) -> bool:
        return all(e is None or e == zi for e, zi in zip(self.entries, z))

    def assign(self, I, bits) -> "PartialAssignment":
        """rho with each block of I set to its bit: the entries are rho's,
        already checked, so only the blocks and bits written are."""
        out = list(self.entries)
        for i, b in zip(I, bits):
            if not 1 <= i <= len(out):
                raise DomainError(f"block {i} outside 1..{len(out)}")
            if out[i - 1] is not None:
                raise DomainError(f"block {i} already fixed")
            if b not in (0, 1):
                raise DomainError(f"block {i} value {b!r} is not a bit")
            out[i - 1] = b
        return object.__new__(PartialAssignment)._fill(tuple(out))


# --- Bob sets: a BobCube or an ExplicitBobSet, with one interface; `split` is
# the one way to cut them, and an empty result is None, not an empty set. ---

@functools.cache
def _keys(k: int) -> tuple:
    """The 2^k bit strings of length k, ascending ("0...0" first), each with
    its bits as integers: (s, bits)."""
    return tuple(("".join(map(str, bits)), bits)
                 for bits in itertools.product((0, 1), repeat=k))


def _split_keys(positions, n, m) -> tuple:
    """A split's keys as `_keys` lists them; refuses repeated or
    out-of-range pairs."""
    if len(set(positions)) < len(positions) or not all(
            1 <= blk <= n and 1 <= pos <= m for blk, pos in positions):
        raise DomainError(f"split positions {positions} repeat or fall out of range")
    return _keys(len(positions))


# z's bits at a block a cube's pin pattern leaves unpinned (None), or pins
_Z_BITS = {None: (0, 1), 0: (0,), 1: (1,)}


@dataclass(frozen=True, slots=True)
class BobCube:
    """A subcube of Bob's domain: some (block, position) bits pinned.

    The large-m representation (sweeps reach 2^32 strings per block).  Bit
    pinning is exactly what single-bit announcements and pointer fixing do,
    and it keeps slice counting closed form: one pin-pattern lookup per row
    of X, whatever |Y|."""

    n: int
    m: int
    fixed: tuple  # sorted ((block, pos), bit)

    slice_counts_cost = 1  # per row of X: slice_counts looks up its pin pattern

    def __post_init__(self):
        pins = {}
        for (blk, pos), b in self.fixed:
            if not (1 <= blk <= self.n and 1 <= pos <= self.m):
                raise DomainError(f"cube constraint ({blk},{pos}) out of range")
            if b not in (0, 1) or pins.setdefault((blk, pos), b) != b:
                raise DomainError("conflicting or non-bit cube constraint")
        object.__setattr__(self, "fixed", tuple(sorted(pins.items())))

    @property
    def size(self) -> int:
        return 2 ** (self.n * self.m - len(self.fixed))

    def contains(self, ys) -> bool:
        """Whether ys reads every pin, each a bit of its index; DomainError
        off the domain."""
        n, m = self.n, self.m
        i = _bob_index(ys, n, m)
        return all(i >> ((n - blk) * m + m - pos) & 1 == b for (blk, pos), b in self.fixed)

    @classmethod
    def _of_pins(cls, n: int, m: int, fixed: tuple) -> "BobCube":
        """The cube of pins already checked, distinct and sorted, built
        without __post_init__'s re-check."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "fixed", fixed)
        return out

    def split(self, positions) -> dict:
        """Y cut at (block, pos) pairs: each bit string s over them, ascending,
        to the subcube reading s there, or None; in closed form.  A position
        Y already pins keeps its one pin, and s must agree with it."""
        pins = dict(self.fixed)
        held = [(j, pins[p]) for j, p in enumerate(positions) if p in pins]  # (index, pin)
        out = {}
        for s, bits in _split_keys(positions, self.n, self.m):
            if held and any(bits[j] != b for j, b in held):
                out[s] = None
                continue
            new = tuple(zip(positions, bits))
            if held:
                new = tuple(pin for pin in new if pin[0] not in pins)
            out[s] = BobCube._of_pins(self.n, self.m, tuple(sorted(self.fixed + new)))
        return out

    def deficiency(self) -> Fraction:
        """D(Y) relative to the full Bob domain, as the ratio 2^(nm) / |Y|
        whose log2 it is: 2 to the pinned-bit count."""
        return Fraction(2 ** len(self.fixed))

    def slice_counts(self, X) -> dict:
        """{z: |{(xs, y) in X x Y : G(xs, y) = z}|} over every z at once, in
        closed form.  X is tallied by pin pattern: per block, the bit Y pins
        where xs points, or None, read by one {pos: bit} lookup per block
        along X's column of that block, and counted by a Counter in one C
        pass; a single row is its own tally.  A row of a pattern with f unpinned
        blocks meets the slice of each of the 2^f z agreeing with its pins
        in 2^(nm - |pins| - f) strings: z fixes the f pointed-to bits."""
        pins = [{} for _ in range(self.n)]
        for (blk, pos), b in self.fixed:
            pins[blk - 1][pos] = b
        if len(X) == 1:
            # one row is its own tally
            patterns = {tuple(map(dict.get, pins, next(iter(X)))): 1}
        else:
            patterns = Counter(zip(*(map(pins[i].get, map(itemgetter(i), X))
                                     for i in range(self.n))))
        free_bits = self.n * self.m - len(self.fixed)
        out = {}
        for pattern, k in patterns.items():
            share = k << (free_bits - pattern.count(None))
            for z in itertools.product(*map(_Z_BITS.__getitem__, pattern)):
                out[z] = out.get(z, 0) + share
        return out

    def materialize(self, pair_budget: int = PAIR_BUDGET_DEFAULT) -> frozenset:
        if self.size > pair_budget:
            raise ResourceError("cube materialization", self.size, pair_budget)
        per_block = [[y for y in range(2 ** self.m)
                      if all(bit_at(y, p, self.m) == b for (bl, p), b in self.fixed if bl == blk)]
                     for blk in range(1, self.n + 1)]
        return frozenset(itertools.product(*per_block))


def _bob_index(ys, n: int, m: int) -> int:
    """ys's index in an ExplicitBobSet mask; DomainError off the domain."""
    if len(ys) != n or not all(0 <= y < 1 << m for y in ys):
        raise DomainError(f"{ys!r} is not {n} blocks of {m}-bit strings")
    return functools.reduce(lambda i, y: i << m | y, ys, 0)


@functools.cache
def _position_mask(n: int, m: int, blk: int, pos: int) -> int:
    """The ExplicitBobSet mask of every element reading 1 at bit pos of block
    blk, kept per instance size: those whose index has bit
    k = (n - blk) m + m - pos set, so runs of 2^k zeros and 2^k ones alternate
    over the 2^(nm) indices.  One period is doubled until it covers them."""
    run = 1 << ((n - blk) * m + m - pos)
    mask, width = ((1 << run) - 1) << run, 2 * run
    while width < 1 << n * m:
        mask |= mask << width
        width *= 2
    return mask


@dataclass(frozen=True, init=False, repr=False, slots=True)
class ExplicitBobSet:
    """An explicit set of Bob inputs, n-tuples of m-bit strings, stored as one
    integer bit mask over the 2^(nm) domain indices.

    An element's index is its blocks' m-bit strings concatenated, block 1
    most significant, so index order is `ComposedInstance.bob_domain`'s.  A
    cut ANDs the mask with per-position masks (`_position_mask`) or with a
    Bob table map's 1-mask, and a size is a popcount, so no element is read.
    A set costs 2^(nm)/8 bytes whatever its size, and the per-position masks
    add n m more of that size per instance size."""

    n: int
    m: int
    bits: int  # bit i set: the element of index i is in the set

    def __init__(self, n: int, m: int, ys):
        """The set of the n-tuples ys; DomainError on one off the domain."""
        buf = bytearray(((1 << n * m) + 7) // 8)
        for i in (_bob_index(e, n, m) for e in ys):
            buf[i >> 3] |= 1 << (i & 7)
        self._fill(n, m, int.from_bytes(buf, "little"))

    @classmethod
    def _of_bits(cls, n: int, m: int, bits: int) -> "ExplicitBobSet":
        return object.__new__(cls)._fill(n, m, bits)

    def _fill(self, n: int, m: int, bits: int) -> "ExplicitBobSet":
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)
        return self

    def __repr__(self):
        return f"ExplicitBobSet(n={self.n}, m={self.m}, bits={self.bits:#x})"

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    slice_counts_cost = size  # per row of X: ANDs and popcounts over the mask

    def contains(self, ys) -> bool:
        """Whether ys is in the set: one bit of the mask; DomainError off the
        domain."""
        return self.bits >> _bob_index(ys, self.n, self.m) & 1 == 1

    def _subset(self, bits):
        return ExplicitBobSet._of_bits(self.n, self.m, bits) if bits else None

    def _pieces(self, positions) -> list:
        """The masks of Y cut at (block, pos) pairs, in `split`'s key order."""
        pieces = [self.bits]
        for blk, pos in positions:
            ones = _position_mask(self.n, self.m, blk, pos)
            zeros = ~ones  # negative, so an AND with it clears just those bits
            pieces = [q for p in pieces for q in (p & zeros, p & ones)]
        return pieces

    def split(self, positions) -> dict:
        """Y cut at (block, pos) pairs: each bit string s over them, ascending,
        to the elements reading s there, or None; by ANDs with the masks."""
        keys = (s for s, _ in _split_keys(positions, self.n, self.m))
        return dict(zip(keys, map(self._subset, self._pieces(positions))))

    def split_fn(self, fn):
        """(elements fn maps to 0, the rest): Y ANDed with the table map's
        1-mask, `fn.bob_mask`, which the map reads once and keeps."""
        ones = self.bits & fn.bob_mask
        return self._subset(self.bits ^ ones), self._subset(ones)

    def deficiency(self) -> Fraction:
        """D(Y) relative to the full Bob domain, as the ratio 2^(nm) / |Y|
        whose log2 it is."""
        if not self.bits:
            raise DomainError("deficiency of an empty set")
        return Fraction(2 ** (self.n * self.m), self.size)

    def slice_counts(self, X) -> dict:
        """{z: |{(xs, ys) in X x Y : G(xs, ys) = z}|} over every z at once,
        zero counts left out: each row xs cuts Y at its n pointed-to
        positions, whose pieces come in z's order, and counts each by
        popcount."""
        zs = list(itertools.product((0, 1), repeat=self.n))
        counts = {}
        for xs in X:
            for z, piece in zip(zs, self._pieces(tuple(enumerate(xs, 1)))):
                if piece:
                    counts[z] = counts.get(z, 0) + piece.bit_count()
        return counts

    def materialize(self, pair_budget: int = PAIR_BUDGET_DEFAULT) -> frozenset:
        """The elements as tuples, decoded from the mask in index order."""
        if self.size > pair_budget:
            raise ResourceError("explicit set materialization", self.size, pair_budget)
        flags = map("1".__eq__, reversed(format(self.bits, f"0{1 << self.n * self.m}b")))
        return frozenset(itertools.compress(
            itertools.product(range(1 << self.m), repeat=self.n), flags))


def bob_size(Y) -> int:
    return Y.size


@dataclass(frozen=True, slots=True)
class Rect:
    """A combinatorial rectangle X x Y: X explicit, Y a Bob set."""

    X: frozenset
    Y: object

    def __init__(self, X, Y):
        object.__setattr__(self, "X", frozenset(X))
        object.__setattr__(self, "Y", Y)


@dataclass(frozen=True)
class OuterFunction:
    """A (possibly partial) boolean function on {0,1}^n, built from a dict
    z -> bit; missing z = undefined.

    Undefined inputs are promise violations: they never participate in error
    maximization.
    """

    n: int
    values: tuple  # sorted ((z, bit), ...)

    def __init__(self, n, values):
        self._check_n(n)
        pairs = []
        for z, b in values.items():
            z = tuple(z)
            if len(z) != n or not set(z) <= {0, 1} or type(b) is not int or b not in (0, 1):
                raise DomainError(f"bad outer-function entry {z}->{b}")
            pairs.append((z, b))
        if not pairs:
            raise DomainError("outer function needs at least one defined input")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", tuple(sorted(pairs)))

    @staticmethod
    def _check_n(n):
        if type(n) is not int or n < 1:
            raise DomainError(f"outer function needs an integer n >= 1, got {n!r}")

    def defined(self):
        return [z for z, _ in self.values]

    def __call__(self, z):
        z = tuple(z)
        for zz, b in self.values:
            if zz == z:
                return b
        return None

    def to_dict(self) -> dict:
        return {
            "format": "outer_function",
            "n": self.n,
            "values": {"".join(map(str, z)): b for z, b in self.values},
        }

    @classmethod
    def from_dict(cls, d) -> "OuterFunction":
        """A `values` key must be exactly n ASCII '0'/'1' characters, so two
        distinct keys never name the same z."""
        if d.get("format") != "outer_function":
            raise DomainError("not an outer-function record")
        n = d["n"]
        cls._check_n(n)  # before the keys, which are read against n
        for k in d["values"]:
            if len(k) != n or not set(k) <= {"0", "1"}:
                raise DomainError(f"outer-function key {k!r} is not {n} characters of 0/1")
        return cls(n, {tuple(map(int, k)): v for k, v in d["values"].items()})


def slice_count(G: ComposedInstance, z) -> int:
    """|G^{-1}(z)| in closed form, after G.check_z: each block has m pointers,
    each with 2^(m-1) strings carrying z_i at the pointed-to bit, so every
    slice is nonempty."""
    G.check_z(z)
    return (G.m * 2 ** (G.m - 1)) ** G.n


def iter_slice(G: ComposedInstance, z):
    """Yield every (xs, ys) with G(xs, ys) = z, grouped by xs."""
    z = tuple(z)
    allowed = {}
    for x in range(1, G.m + 1):
        for b in (0, 1):
            allowed[(x, b)] = [y for y in range(2 ** G.m) if gadget(x, y, G.m) == b]
    for xs in G.alice_domain():
        pools = [allowed[(x, zi)] for x, zi in zip(xs, z)]
        for ys in itertools.product(*pools):
            yield xs, ys


def is_structured(rect: Rect, rho: PartialAssignment, delta, G: ComposedInstance) -> bool:
    """Whether X x Y is rho-structured: X delta-dense on free blocks, fixed on
    the rest, and every output of G on the rectangle consistent with rho.

    Output consistency only bites on fixed blocks (free positions of rho allow
    anything), so once X is constant on fix(rho) it reduces to Y pinning the
    pointed-to bit of each fixed block.
    """
    if not rect.X or not rect.Y.size:
        raise DomainError("is_structured needs a nonempty rectangle")
    if rho.n != G.n:
        raise DomainError("rho arity mismatch")
    fix = rho.fix
    rep = next(iter(rect.X))
    for i in fix:
        if any(xs[i - 1] != rep[i - 1] for xs in rect.X):
            return False
    if not entropy.is_blockwise_dense(entropy.SetVar(rect.X, G.m, rho.free), delta):
        return False
    # on block i, every y must carry bit rho_i at the position X points to:
    # the piece of Y reading the other bit there is empty
    return all(rect.Y.split(((i, rep[i - 1]),))[str(1 - rho.value(i))] is None for i in fix)
