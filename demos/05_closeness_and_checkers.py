"""Closeness curves and the uniformity checkers.

The simulator's output law t_z should track the true transcript distribution
t'_z of the refined protocol on a uniform slice input.  At desk scale the gap
is measurable; sweeping the block size m shows it shrinking.  The second half
exercises the exact uniformity checkers: parity biases, the norm bound, and
the parities-to-pointwise implication.
"""

import itertools
import statistics

from liftsim import (
    ExactDist,
    SetVar,
    SimConfig,
    fourier_pointwise_check,
    norm_bound_check,
    parity_bias,
    refine,
    simulate_exact,
    true_transcript_dist,
    tv_distance,
    walk_law,
)
from liftsim.fixtures import sweep_family

cfg = SimConfig()

print("exact TV(t_z, t'_z) medians over the bundled n=1 family:")
for m in (4, 8, 16, 32):
    tvs = []
    for name, pt in sweep_family(1, m):
        rp = refine(pt, cfg.delta)
        law = walk_law(rp, cfg)
        for z in ((0,), (1,)):
            tvs.append(tv_distance(simulate_exact(law, z).transcripts,
                                   true_transcript_dist(rp, z)))
    print(f"  m={m:>2}: median {statistics.median(sorted(tvs))} "
          f"({float(statistics.median(sorted(tvs))):.5f})")
print("the walk's per-announcement bias scales like 1/m, so the curve halves.")

# Parity bias: uniform inputs give unbiased gadget outputs; constant ones max
# it out; the norm bound caps it always.
m = 4
X_uniform = SetVar({(x,) for x in range(1, m + 1)}, m)
Y_uniform = SetVar({(y,) for y in range(2 ** m)}, 2 ** m)
print("\nbias under uniform X, Y:", parity_bias((1,), X_uniform, Y_uniform))
Y_zeros = SetVar({(0,)}, 2 ** m)
print("bias when Bob is the all-zeros string:",
      parity_bias((1,), X_uniform, Y_zeros))
nb = norm_bound_check((1,), X_uniform, Y_zeros)
print(f"norm bound: |bias|^2 = {nb.lhs ** 2} <= {nb.rhs_squared}, holds = {nb.holds}")

# Pointwise uniformity from small parities: distributions whose parity biases
# all fit under n^(-5|I|) are pointwise within a 1/n^3 factor of uniform.
n = 4
j = 3
N = n ** 5   # p(z) = (1 +- 1/N) / 2^j, the sign that of z's parity
d = ExactDist({z: N + 1 if sum(z) % 2 == 0 else N - 1
               for z in itertools.product((0, 1), repeat=j)}, N * 2 ** j)
hyp, concl = fourier_pointwise_check(d, n)
print(f"\nbudgeted-parity distribution: hypothesis={hyp}, conclusion={concl}")
hyp, concl = fourier_pointwise_check(ExactDist({(0,) * j: 1}), n)
print(f"point mass:                    hypothesis={hyp}, conclusion={concl}")
