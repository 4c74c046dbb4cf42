"""Deficiency, blockwise density, and the density-restoring partition.

A set X inside [m]^J is blockwise delta-dense when no projection of it is too
concentrated.  When density fails, the partition procedure peels off parts
that are fixed on a maximal offending block set and dense on the rest, and
the partition lemma bounds each part's remaining deficiency.  All checks run
in exact rational arithmetic; nothing here is a float comparison.
"""

from fractions import Fraction

from liftsim import (
    SetVar,
    deficiency,
    density_restoring_partition,
    is_blockwise_dense,
    log2_float,
    verify_partition_lemma,
)

DELTA = Fraction(9, 10)

# A correlated set in [4]^2: both coordinates concentrated on 1.
v = SetVar({(1, 1), (1, 2)}, 4)
print("support:", sorted(v.support))
for I in [(1,), (2,), (1, 2)]:
    print(f"  deficiency on {I}: {log2_float(deficiency(v, I)):.3f} bits "
          f"(|I| log m minus the marginal's min-entropy)")
print("blockwise 0.9-dense?", is_blockwise_dense(v, DELTA))

# The partition procedure on a slightly lopsided set.
w = SetVar({(x,) for x in (1, 2, 3)}, 4)
print("\npartitioning {1,2,3} inside [4]:")
parts = density_restoring_partition(w, DELTA)
for p in parts:
    ratio = Fraction(p.input_size, p.tail_size)
    print(f"  part {p.order}: label {p.label() or '(already dense)'}, "
          f"size {p.size}, delta_i = log2({ratio}) "
          f"= {log2_float(ratio):.3f} bits")

report = verify_partition_lemma(w, parts, DELTA)
print("lemma verified on every part?", report.ok)

# A diagonal set shows why the offending block set can be genuinely joint:
# no single coordinate is concentrated, but the pair is.
diag = SetVar({(x, x) for x in range(1, 5)}, 4)
print("\ndiagonal set dense?", is_blockwise_dense(diag, DELTA))
for p in density_restoring_partition(diag, DELTA):
    print(f"  part {p.order}: {p.label()}")
