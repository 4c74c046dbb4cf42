"""The index gadget, composed instances, Bob sets, rectangles, partial
assignments, and slices.

Conventions used throughout: Alice's per-block value x is 1-based in [m];
Bob's per-block value y is an m-bit string, written left to right, so bit 1 is
the most significant bit of the integer that stores it.  The index gadget
returns bit x of y under that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import entropy
from .errors import DomainError, ResourceError

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


def asymptotic_gadget_size(n: int) -> int:
    """Block-domain size at which the theory's guarantees are stated: n**256.

    Informational only; it is astronomically beyond anything this harness can
    enumerate, which is why all closeness results here are measured trends.
    """
    return n ** 256


def bit_at(y: int, pos: int, m: int) -> int:
    """Bit `pos` (1-based, left to right) of the m-bit string stored in y."""
    if not 1 <= pos <= m:
        raise DomainError(f"bit position {pos} outside 1..{m}")
    return (y >> (m - pos)) & 1


def bits_str(y: int, m: int) -> str:
    return format(y, f"0{m}b")


def _is_power_of_two(v: int) -> bool:
    return v >= 1 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class GadgetSpec:
    """The index gadget on one block: g(x, y) = bit x of y, for x in [m] and
    y in {0,1}^m."""

    m: int

    @classmethod
    def index(cls, m: int) -> "GadgetSpec":
        if m < 2 or not _is_power_of_two(m):
            raise DomainError(f"index gadget needs m a power of 2, m >= 2; got {m}")
        return cls(m)

    def eval(self, x: int, y: int) -> int:
        if not 1 <= x <= self.m:
            raise DomainError(f"x={x} outside [{self.m}]")
        if not 0 <= y < 2 ** self.m:
            raise DomainError(f"y={y} is not a {self.m}-bit string")
        return bit_at(y, x, self.m)


def gadget_eval(g: GadgetSpec, x: int, y) -> int:
    """g evaluated on one block; y may be an int or a '0101' string."""
    if isinstance(y, str):
        if len(y) != g.m or set(y) - {"0", "1"}:
            raise DomainError(f"y={y!r} is not a {g.m}-bit string")
        y = int(y, 2)
    return g.eval(x, y)


@dataclass(frozen=True)
class ComposedInstance:
    """G = g^n on [m]^n x ({0,1}^m)^n, evaluated blockwise."""

    n: int
    gadget: GadgetSpec

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need n >= 1 blocks")

    @property
    def m(self) -> int:
        return self.gadget.m

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

    def full_X(self) -> frozenset:
        return frozenset(self.alice_domain())

    def full_Y(self, pair_budget: int = PAIR_BUDGET_DEFAULT):
        """The explicit Bob domain; refused when its 2^(nm) tuples exceed the
        budget."""
        if self.bob_size > pair_budget:
            raise ResourceError("explicit Bob domain", self.bob_size, pair_budget)
        return ExplicitBobSet(self.n, self.m, self.bob_domain())

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


def compose_eval(G: ComposedInstance, xs, ys) -> tuple:
    """z with z_i = g(xs_i, ys_i)."""
    xs = tuple(xs)
    ys = tuple(int(y, 2) if isinstance(y, str) else y for y in ys)
    G.check_alice(xs)
    G.check_bob(ys)
    return tuple(G.gadget.eval(x, y) for x, y in zip(xs, ys))


@dataclass(frozen=True)
class PartialAssignment:
    """rho in {0,1,*}^n; entries use None for *."""

    entries: tuple

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if e not in (0, 1, None):
                raise DomainError("partial assignment entries must be 0, 1, or None")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def free_everywhere(cls, n: int) -> "PartialAssignment":
        return cls((None,) * n)

    @classmethod
    def from_string(cls, s: str) -> "PartialAssignment":
        return cls(tuple(None if c == "*" else int(c) for c in s))

    def __str__(self):
        return "".join("*" if e is None else str(e) for e in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def free(self) -> tuple:
        return tuple(i + 1 for i, e in enumerate(self.entries) if e is None)

    @property
    def fix(self) -> tuple:
        return tuple(i + 1 for i, e in enumerate(self.entries) if e is not None)

    def value(self, i: int):
        return self.entries[i - 1]

    def consistent(self, z) -> bool:
        return all(e is None or e == zi for e, zi in zip(self.entries, z))

    def assign(self, I, bits) -> "PartialAssignment":
        out = list(self.entries)
        for i, b in zip(I, bits):
            if out[i - 1] is not None:
                raise DomainError(f"block {i} already fixed")
            out[i - 1] = b
        return PartialAssignment(out)


# --- Bob sets: a BobCube or an ExplicitBobSet, with one interface; every
# operation that can come out empty returns None for the empty set. ---

@dataclass(frozen=True)
class BobCube:
    """A subcube of Bob's domain: some (block, position) bits pinned.

    The large-m representation (sweeps reach 2^32 strings per block).  Bit
    pinning is exactly what single-bit announcements and pointer fixing do."""

    n: int
    m: int
    fixed: tuple  # sorted ((block, pos), bit)

    count_slice_cost = 1  # count_slice is closed form

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
        return all(bit_at(ys[blk - 1], pos, self.m) == b for (blk, pos), b in self.fixed)

    def restrict(self, pins):
        """Pin more bits, {(block, pos): bit}; None if inconsistent."""
        merged = dict(self.fixed)
        for key, b in pins.items():
            if merged.setdefault(key, b) != b:
                return None
        return BobCube(self.n, self.m, tuple(merged.items()))

    def split_bit(self, blk: int, pos: int):
        return self.restrict({(blk, pos): 0}), self.restrict({(blk, pos): 1})

    def deficiency(self) -> Fraction:
        """D(Y) relative to the full Bob domain, as the ratio 2^(nm) / |Y|
        whose log2 it is: 2 to the pinned-bit count."""
        return Fraction(2 ** len(self.fixed))

    def count_slice(self, xs, z) -> int:
        """|{y in Y : g(xs_i, y_i) = z_i for all i}| without enumerating."""
        pins = dict(self.fixed)
        for blk, (x, b) in enumerate(zip(xs, z), start=1):
            if pins.setdefault((blk, x), b) != b:
                return 0
        return 2 ** (self.n * self.m - len(pins))

    def materialize(self, pair_budget: int = PAIR_BUDGET_DEFAULT) -> frozenset:
        if self.size > pair_budget:
            raise ResourceError("cube materialization", self.size, pair_budget)
        per_block = [[y for y in range(2 ** self.m)
                      if all(bit_at(y, p, self.m) == b for (bl, p), b in self.fixed if bl == blk)]
                     for blk in range(1, self.n + 1)]
        return frozenset(itertools.product(*per_block))


@dataclass(frozen=True)
class ExplicitBobSet:
    """An explicit set of Bob inputs: n-tuples of m-bit strings."""

    n: int
    m: int
    ys: frozenset

    def __post_init__(self):
        object.__setattr__(self, "ys", frozenset(self.ys))

    @property
    def size(self) -> int:
        return len(self.ys)

    count_slice_cost = size  # count_slice scans every element

    def contains(self, ys) -> bool:
        return tuple(ys) in self.ys

    def _subset(self, ys):
        return ExplicitBobSet(self.n, self.m, ys) if ys else None

    def restrict(self, pins):
        """The elements with bit (block, pos) = b for each pin; None if empty."""
        m = self.m
        return self._subset(frozenset(
            ys for ys in self.ys
            if all(bit_at(ys[blk - 1], pos, m) == b for (blk, pos), b in pins.items())
        ))

    def split_bit(self, blk: int, pos: int):
        return self.split_fn(lambda ys: bit_at(ys[blk - 1], pos, self.m))

    def split_fn(self, fn):
        """(elements fn maps to 0, the rest), one call of fn per element."""
        zero = frozenset(ys for ys in self.ys if fn(ys) == 0)
        return self._subset(zero), self._subset(self.ys - zero)

    def deficiency(self) -> Fraction:
        """D(Y) relative to the full Bob domain, as the ratio 2^(nm) / |Y|
        whose log2 it is."""
        if not self.ys:
            raise DomainError("deficiency of an empty set")
        return Fraction(2 ** (self.n * self.m), len(self.ys))

    def count_slice(self, xs, z) -> int:
        """|{y in Y : g(xs_i, y_i) = z_i for all i}| by a scan."""
        m = self.m
        return sum(1 for ys in self.ys
                   if all(bit_at(y, x, m) == b for x, y, b in zip(xs, ys, z)))

    def materialize(self, pair_budget: int = PAIR_BUDGET_DEFAULT) -> frozenset:
        return self.ys


def bob_size(Y) -> int:
    return Y.size


@dataclass(frozen=True)
class Rect:
    """A combinatorial rectangle X x Y: X explicit, Y a Bob set."""

    X: frozenset
    Y: object

    def __init__(self, X, Y):
        object.__setattr__(self, "X", frozenset(X))
        object.__setattr__(self, "Y", Y)

    @property
    def x_size(self) -> int:
        return len(self.X)

    @property
    def y_size(self) -> int:
        return self.Y.size

    @property
    def pair_count(self) -> int:
        return self.x_size * self.y_size

    @property
    def is_empty(self) -> bool:
        return self.x_size == 0 or self.y_size == 0

    def contains(self, xs, ys) -> bool:
        return tuple(xs) in self.X and self.Y.contains(ys)


@dataclass(frozen=True)
class OuterFunction:
    """A (possibly partial) boolean function on {0,1}^n; missing z = undefined.

    Undefined inputs are promise violations: they never participate in error
    maximization.
    """

    n: int
    values: tuple  # sorted ((z, bit), ...)

    def __init__(self, n, values):
        pairs = []
        for z, b in (values.items() if isinstance(values, dict) else values):
            z = tuple(z)
            if len(z) != n or any(c not in (0, 1) for c in z) or b not in (0, 1):
                raise DomainError(f"bad outer-function entry {z}->{b}")
            pairs.append((z, b))
        if not pairs:
            raise DomainError("outer function needs at least one defined input")
        if len({z for z, _ in pairs}) != len(pairs):
            raise DomainError("duplicate outer-function entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", tuple(sorted(pairs)))

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
        if d.get("format") != "outer_function":
            raise DomainError("not an outer-function record")
        return cls(d["n"], {tuple(int(c) for c in k): v for k, v in d["values"].items()})


def slice_count(G: ComposedInstance, z) -> int:
    """|G^{-1}(z)| in closed form: each block has m pointers, each with
    2^(m-1) strings carrying z_i at the pointed-to bit."""
    if len(tuple(z)) != G.n:
        raise DomainError("z arity mismatch")
    return (G.m * 2 ** (G.m - 1)) ** G.n


def iter_slice(G: ComposedInstance, z):
    """Yield every (xs, ys) with G(xs, ys) = z, grouped by xs."""
    z = tuple(z)
    g = G.gadget
    allowed = {}
    for x in range(1, g.m + 1):
        for b in (0, 1):
            allowed[(x, b)] = [y for y in range(2 ** g.m) if g.eval(x, y) == b]
    for xs in G.alice_domain():
        pools = [allowed[(x, zi)] for x, zi in zip(xs, z)]
        for ys in itertools.product(*pools):
            yield xs, ys


def slice_enumerate(G: ComposedInstance, z, pair_budget: int = PAIR_BUDGET_DEFAULT) -> list:
    """Materialize G^{-1}(z); refuses beyond the enumeration budget."""
    total = slice_count(G, z)
    if total > pair_budget:
        raise ResourceError(f"slice enumeration for z={z}", total, pair_budget)
    return list(iter_slice(G, z))


def is_structured(rect: Rect, rho: PartialAssignment, delta, G: ComposedInstance) -> bool:
    """Whether X x Y is rho-structured: X delta-dense on free blocks, fixed on
    the rest, and every output of G on the rectangle consistent with rho.

    Output consistency only bites on fixed blocks (free positions of rho allow
    anything), so once X is constant on fix(rho) it reduces to Y pinning the
    pointed-to bit of each fixed block.
    """
    if rect.is_empty:
        raise DomainError("is_structured needs a nonempty rectangle")
    if rho.n != G.n:
        raise DomainError("rho arity mismatch")
    fix = rho.fix
    rep = next(iter(rect.X))
    for i in fix:
        if any(xs[i - 1] != rep[i - 1] for xs in rect.X):
            return False
    if not entropy.is_blockwise_dense(entropy.SetVar(rect.X, (G.m,) * G.n, rho.free), delta):
        return False
    if not fix:
        return True
    # on block i, every y must carry bit rho_i at the position X points to
    held = rect.Y.restrict({(i, rep[i - 1]): rho.value(i) for i in fix})
    return held is not None and held.size == rect.Y.size
