"""Similarity dimension, covering bounds, and a box-counting cross-check.

Run:  python demos/07_dimension_diagnostics.py [out.csv]
"""

import sys
from fractions import Fraction

import quadcantor as qc

F = qc.make_field(-1)

specs = [
    ("middle-third Cantor", qc.ifs_new(F.element(3), [F.element(0), F.element(2)])),
    ("Gaussian 4-of-5", qc.ifs_new(F.element(-2, 1), [F.element(k) for k in range(4)])),
    ("full 5-digit tile", qc.ifs_new(F.element(-2, 1), [F.element(k) for k in range(5)])),
]

for name, spec in specs:
    sigma = qc.similarity_dimension(spec)
    r2 = spec.radius_sq
    print(f"{name}: sigma = {sigma:.6f}, R'^2 = {r2}")

cantor = specs[0][1]
print("\ncovering table for the Cantor spec (radius delta, ball count bound):")
for k in range(6):
    delta = Fraction(1, 3**k)
    print(f"  delta = 1/3^{k}:  bound {qc.covering_bound(cantor, delta)}")

est = qc.box_dim_estimate(cantor, range(4, 13))
print("\nbox-counting estimate over depths 4..12:", round(est.dimension, 4))
print("similarity dimension:                    ", round(qc.similarity_dimension(cantor), 4))

if len(sys.argv) > 1:
    pts = qc.sample_points(cantor, 10)
    with open(sys.argv[1], "w") as fh:
        for z in pts:
            fh.write(f"{z.real:.12f},{z.imag:.12f}\n")
    print("wrote", len(pts), "sample points to", sys.argv[1])
