"""The randomized decision-tree walk and its exact distribution.

Given only query access to z, the simulator walks the refined tree as if both
inputs were uniform on the current rectangle; the bit-fixing rounds are where
it actually reads z.  When the message z demands is impossible (Bob's set has
no such string), the walk fails with a bottom outcome.  The walk's draws never
read z, so one pass over the refined tree, taking every answer, lists every
leaf and bottom with its z-free probability; the exact outcome distribution on
z sums those consistent with z.  Each run carries a potential ledger that
depends only on its path, so every path's ledger is listed and checked exactly
once, and each sampled run's ledger must be one of them.
"""

from fractions import Fraction

from liftsim import (SimConfig, ledger_exact, refine, simulate_exact, simulate_sample,
                     walk_law)
from liftsim.core import BOT
from liftsim.fixtures import bob_first_fixture

DELTA = Fraction(9, 10)
cfg = SimConfig(delta=DELTA)

# Bob opens by announcing y_1; afterwards Alice may fix her pointer to 1, and
# on the branch where Bob's announcement contradicts z the fixing round has
# no consistent message.
pt = bob_first_fixture(m=2)
rp = refine(pt, DELTA)
z = (0,)

law = walk_law(rp, cfg)
exact = simulate_exact(law, z)
print(f"exact outcome distribution on z={z}:")
for t, p in sorted(exact.transcripts.items(), key=lambda kv: str(kv[0])):
    label = "bottom" if t is BOT else t
    print(f"  {label}: {p}")
print("failure breakdown:", {r: str(p) for r, p in exact.bot_reasons.items()})
print("query-count distribution:", {q: str(p) for q, p in exact.queries.items()})

# Every path's ledger verifies; sampled runs agree with the exact law and
# carry one of those ledgers.
ledgers = ledger_exact(law)
assert all(ledgers.values())
print(f"\ndistinct path ledgers, each checked once: {len(ledgers)}")
counts = {}
for seed in range(2000):
    out = simulate_sample(law, z, seed=seed)
    assert out.ledger in ledgers
    counts[out.transcript] = counts.get(out.transcript, 0) + 1
print("2000 seeded samples:")
for t, c in sorted(counts.items(), key=lambda kv: str(kv[0])):
    print(f"  {'bottom' if t is BOT else t}: {c / 2000:.3f} "
          f"(exact {float(exact.transcripts.prob(t)):.3f})")

# One full outcome record, with its ledger's exact ratios.
out = simulate_sample(law, z, seed=3)
print("\none outcome record:")
print(f"  transcript {out.transcript}, value {'bottom' if out.value is BOT else out.value}, "
      f"failure {out.failure}, queries {list(out.queries)}")
for row in out.ledger:
    print(f"  iteration {row.iteration}: gamma_ratio {Fraction(*row.gamma)}, "
          f"delta_ratio {Fraction(*row.delta)}, queries {row.queries}")

# The strict failure mode also cuts off runs whose Bob set gets too deficient.
strict = SimConfig(delta=DELTA, strict_zpp=True, deficiency_cap=Fraction(1))
print("\nwith a 1-bit deficiency cap:",
      {r: str(p) for r, p in simulate_exact(walk_law(rp, strict), z).bot_reasons.items()})
