"""Mapping the evidence region in the (lam, a) plane.

For the family w = lam z, phi = a z + 1 - a with candidate exponent s, the
certified region should be lam * a^s > 1 (candidate orbit grows) inside
lam < 1 (weight norms vanish).  Every norm of this family is |lam|^n times
its lam = 1 value, so the sweep builds the weight norms and the candidate
orbit once per a and scales them to each lam in log space; only the
certificates run per cell.  Columns are independent, so a worker pool could
evaluate them concurrently, and the table is assembled in grid order either
way.
"""

import numpy as np

from wcochaos.experiments import ExperimentConfig, sweep_task

s = -0.4
base = ExperimentConfig(space="h2", degree=256, horizon=500,
                        candidates=[{"s": s, "k": 0}]).to_dict()

lams = [float(lam) for lam in np.linspace(0.5, 0.9, 5)]
avals = [float(a) for a in np.linspace(0.1, 0.5, 5)]
columns = [sweep_task(("lambda-a", lams, a, base)) for a in avals]

print(f"candidate s = {s}; entries show the plain-certificate verdict")
print("        " + "  ".join(f"a={a:.1f}" for a in avals))
for i, lam in enumerate(lams):
    row = []
    for a, column in zip(avals, columns):
        kind = column[i]["li"].kind
        mark = {"LI_YORKE_EVIDENCE": "E", "INCONCLUSIVE": ".", "NO_EVIDENCE": "o"}[kind]
        rate = lam * a**s
        row.append(f"{mark}({rate:4.2f})")
    print(f"lam={lam:.1f} " + "  ".join(row))

print("\nE = evidence, . = inconclusive; the number is the candidate rate lam * a^s.")
print("The E region fills the rate > 1 region, except cells barely above 1")
print("(like rate 1.01), where the crossing needs a horizon ~ log(G)/log(rate)")
print("far beyond the 500 steps used here.  Certificates only ever claim what")
print("the computed horizon shows.")
