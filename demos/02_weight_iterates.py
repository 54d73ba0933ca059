"""Weight iterates w(n) = (w o phi^(n-1)) ... (w o phi) * w.

The n-th power of the operator f -> w * (f o phi) is multiplication by w(n)
after composition with phi^n, so the entire norm story of the operator is
the norm story of these products.  The family shown here is w = lam * z with
phi = a z + 1 - a, whose iterates factor completely.
"""

import numpy as np

from wcochaos import (Hardy, SupSpace, WeightSymbol, WeightedCompOp, affine_fixing_one,
                      validate_self_map, weight_iterate_sequence, weight_norm_sequence)

lam, a = 0.6, 0.5
w = WeightSymbol.from_coeffs([0, lam])
phi = affine_fixing_one(a)
validate_self_map(phi)
print(f"weight w = {lam}*z, symbol phi = {a}*z + {1-a}")
print(f"sup-norm bracket of w: {(w.sup_lower, w.sup_upper)}")

# The stored w(n), for indexing; norms read a stream.
stored = weight_iterate_sequence(w, phi, horizon=50)
print("\nfirst iterates:")
for n in (1, 2, 3):
    print(f"  w({n}) =", stored[n - 1])

print("\nat z = 1 every factor except the lam*z ones equals 1, so")
for n in (5, 20, 50):
    print(f"  |w({n})(1)| = {abs(stored[n - 1](1.0)):.3e}"
          f"  vs lam^{n} = {lam**n:.3e}")

print("\nsup-norm brackets pin the sequence to the geometric law")
print("(one sequence carries both sides: values below, upper above):")
op = WeightedCompOp(w, phi)
sup = weight_norm_sequence(op, SupSpace(), 50)
for n in (1, 10, 30, 50):
    print(f"  n={n:>2}: lower {sup.value(n):.6e}  upper {sup.upper[n - 1]:.6e}"
          f"  lam^n {lam**n:.6e}")

h2 = weight_norm_sequence(op, Hardy(2), 50)
ratio = h2.values / lam ** np.arange(1, 51)
print(f"\nH2 norms stay a bounded fraction of lam^n: ratio range "
      f"[{ratio.min():.4f}, {ratio.max():.4f}]")
print("provenance of the H2 sequence:", h2.provenance)
