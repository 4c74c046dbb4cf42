"""Gadgets, compositions, and slices.

The index gadget hands Alice a pointer x in [m] and Bob an m-bit string y,
and outputs the pointed-to bit y_x.  Composing n copies gives a two-party
function whose input domain splits into slices: all pairs producing a given
output word z.  Everything below is exact counting.
"""

from liftsim import (
    ComposedInstance,
    compose_eval,
    iter_slice,
    slice_count,
)

# One block: m = 4, so y is a 4-bit string and bit positions read left to right.
G4 = ComposedInstance(1, 4)
print("g(x=2, y=0110) =", compose_eval(G4, (2,), ("0110",)))
print("g(x=4, y=0001) =", compose_eval(G4, (4,), ("0001",)))

# Two blocks of m = 2: the composition evaluates blockwise.
G = ComposedInstance(2, 2)
xs, ys = (1, 2), ("10", "01")
print(f"\nG{xs, ys} =", compose_eval(G, xs, ys))

# The slice of z collects every input pair mapped to z.
G1 = ComposedInstance(1, 2)
for z in [(0,), (1,)]:
    sl = list(iter_slice(G1, z))
    shown = [(x[0], format(y[0], "02b")) for x, y in sl]
    print(f"\nslice of z={z}: {shown}")
    print(f"  count {len(sl)} = m * 2^(m-1) = {slice_count(G1, z)}")

# Slices partition the whole domain, with equal sizes for the index gadget.
total = sum(slice_count(G, z) for z in [(0, 0), (0, 1), (1, 0), (1, 1)])
print(f"\nsum of slice sizes over z: {total} "
      f"= |Alice domain| * |Bob domain| = {G.alice_size * G.bob_size}")
