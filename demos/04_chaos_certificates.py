"""Finite-horizon chaos certificates: evidence, controls, soundness.

A Li-Yorke type certificate needs two witnesses inside the horizon: some
weight norm below epsilon (orbits of bounded functions collapse along that
subsequence) and some channel growing beyond G times its first value (the
powers are unbounded).  The averaged certificate runs the same logic on
Cesaro means.  No verdict ever claims a limit; kinds are EVIDENCE,
NO_EVIDENCE or INCONCLUSIVE.
"""

import numpy as np

from wcochaos import (ExperimentConfig, Hardy, SelfMapSymbol, WeightSymbol,
                      WeightedCompOp, affine_fixing_one, binomial_series,
                      certify_li_yorke, certify_mean_li_yorke,
                      orbit_norm_sequence, run_classify, validate_self_map,
                      weight_norm_sequence)


def show(tag, verdict):
    print(f"  {tag}: {verdict.kind}")
    print(f"    rule: {verdict.citation}")
    if verdict.decay:
        print(f"    decay witness:  n={verdict.decay.index}, value={verdict.decay.value:.3e}")
    if verdict.growth:
        rate = "n/a" if verdict.growth.rate is None else f"{verdict.growth.rate:.4f}"
        print(f"    growth witness: {verdict.growth.channel}, n={verdict.growth.index}, "
              f"value={verdict.growth.value:.3e}, fitted rate {rate}")


print("== supercritical weighted family: lam = 0.9 > sqrt(a) = 0.5 ==")
result = run_classify(ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="h2",
                                       degree=1024, horizon=500,
                                       candidates=[{"s": -0.4, "k": 0}]))
show("plain", result.li_yorke)
show("averaged", result.mean_li_yorke)

print("\n== subcritical control: lam = 0.6 < sqrt(a) = 0.707 ==")
result = run_classify(ExperimentConfig(weight="0.6*z", phi_affine=0.5, space="h2",
                                       degree=1024, horizon=500,
                                       candidates=[{"s": -0.4, "k": 0}]))
show("plain", result.li_yorke)

print("\n== rotation control: an isometry shows nothing ==")
phi = SelfMapSymbol.affine(np.exp(1j * np.pi / 3), 0)
validate_self_map(phi)
op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
ws = weight_norm_sequence(op, Hardy(2), 200)
orbit = orbit_norm_sequence(op, binomial_series(-0.4, 256), Hardy(2), 200)
show("plain", certify_li_yorke(ws, [orbit]))
show("averaged", certify_mean_li_yorke(ws, [orbit]))

print("\n== soundness guard ==")
print("decay tests refuse sequences that only bound the norms from below;")
print("a degree cap of 20 leaves partial sums of the weight iterates:")
phi = affine_fixing_one(0.25)
validate_self_map(phi)
op = WeightedCompOp(WeightSymbol.from_coeffs([0, 0.9]), phi)
capped = weight_norm_sequence(op, Hardy(2), 60, max_degree=20)
try:
    certify_li_yorke(capped, [])
except ValueError as exc:
    print(f"  ValueError: {exc}")
print("in H^inf each test reads the bracket side it bounds: decay the upper")
print("side (coefficient sums), growth the lower side (boundary-grid maxima):")
result = run_classify(ExperimentConfig(weight="0.9*z", phi_affine=0.25, space="hinf",
                                       candidates=[{"s": 0.5, "k": 0}]))
show("plain", result.li_yorke)
