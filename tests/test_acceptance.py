"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from wcochaos.chaos import (certify_li_yorke, certify_mean_li_yorke,
                            eigen_residual, fit_window, growth_rate_fit,
                            sequence_stats)
from wcochaos.experiments import ExperimentConfig, run_classify
from wcochaos.iterates import weight_iterate_sequence, weight_iterates
from wcochaos.operators import (NormSequence, WeightedCompOp,
                                eigen_orbit_norm_sequence, orbit_norm_sequence,
                                weight_norm_sequence)
from wcochaos.series import AnalyticPoly, binomial_series
from wcochaos.spaces import (Bergman, Hardy, SupSpace, coeff_norm_bergman2,
                             coeff_norm_h2, quad_norm_bergman_p, quad_norm_hp,
                             space_norm, sup_norm_bracket)
from wcochaos.symbols import WeightSymbol, affine_fixing_one, validate_self_map

from oracle import apply, apply_n, rotation


def report(cid: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] {cid}: {status} {detail}")
    assert not failures, f"{cid}: {failures[:5]}"


def random_poly(rng, max_degree, complex_coeffs=True):
    d = int(rng.integers(0, max_degree + 1))
    c = rng.uniform(-1, 1, d + 1)
    if complex_coeffs:
        c = c + 1j * rng.uniform(-1, 1, d + 1)
    return AnalyticPoly(c)


def make_op(w_coeffs, a):
    phi = affine_fixing_one(a)
    assert validate_self_map(phi)
    return WeightedCompOp(WeightSymbol.from_coeffs(w_coeffs), phi)


def test_criterion_1_norm_oracle_equivalence():
    rng = np.random.default_rng(101)
    failures = []
    for i in range(100):
        f = random_poly(rng, 64)
        q = quad_norm_hp(f, 2)
        c = coeff_norm_h2(f)
        if abs(q - c) > 1e-10 * c:
            failures.append(("hardy", i, abs(q - c) / c))
        for beta in (-0.5, 0.0, 1.0, 2.5):
            qb = quad_norm_bergman_p(f, 2, beta)
            cb = coeff_norm_bergman2(f, beta)
            if abs(qb - cb) > 1e-8 * cb:
                failures.append(("bergman", i, beta, abs(qb - cb) / cb))
    report("criterion 1 (norm oracle equivalence)", failures)


def test_criterion_2_iterate_identity():
    rng = np.random.default_rng(102)
    failures = []
    for i in range(15):
        op = make_op(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3),
                     rng.uniform(0.1, 0.9))
        f = random_poly(rng, 16)
        seq = f
        for n in range(1, 13):
            seq = apply(op, seq)
            closed = apply_n(op, f, n)
            m = max(len(closed.coeffs), len(seq.coeffs))
            gap = float(np.max(np.abs(closed.padded(m) - seq.padded(m))))
            scale = 1.0 + float(np.max(np.abs(seq.coeffs)))
            if gap > 1e-12 * scale:
                failures.append((i, n, gap / scale))
    report("criterion 2 (iterate identity)", failures)


def test_criterion_3_norm_domination_inequalities():
    rng = np.random.default_rng(103)
    failures = []
    slack = 1 + 1e-9
    for i in range(100):
        a = rng.uniform(0.1, 0.9)
        op = make_op(rng.uniform(-1, 1, 3), a)
        n = int(rng.integers(1, 6))
        f = random_poly(rng, 8)
        tf = apply_n(op, f, n)
        wn = weight_iterate_sequence(op.w, op.phi, n)[-1]
        f_sup_upper = f.coeff_abs_sum()
        for p in (1, 2, 3):
            if quad_norm_hp(tf, p) > quad_norm_hp(wn, p) * f_sup_upper * slack:
                failures.append(("hardy", i, p))
        for p, beta in ((2, 0.0), (2, 1.0), (3, -0.5)):
            lhs = quad_norm_bergman_p(tf, p, beta)
            rhs = quad_norm_bergman_p(wn, p, beta) * f_sup_upper
            if lhs > rhs * slack:
                failures.append(("bergman", i, p, beta))
        # sup-space identity: contraction for normalized f, equality at f = 1
        g = (1.0 / f_sup_upper) * f
        if apply_n(op, g, n).coeff_abs_sum() > wn.coeff_abs_sum() * slack:
            failures.append(("sup-contraction", i))
        if apply_n(op, AnalyticPoly.one(), n).coeff_abs_sum() != wn.coeff_abs_sum():
            failures.append(("sup-attainment", i))
    report("criterion 3 (norm domination inequalities)", failures)


def test_criterion_4_eigen_relation():
    failures = []
    r_exact = eigen_residual(0.5, 2, Hardy(2), 8)
    if r_exact > 1e-12:
        failures.append(("exact-case", r_exact))
    r_coarse = eigen_residual(0.25, -0.4, Hardy(2), 1024)
    r_fine = eigen_residual(0.25, -0.4, Hardy(2), 4096)
    if not r_fine < r_coarse:
        failures.append(("tail-decrease", r_coarse, r_fine))
    report("criterion 4 (eigen relation)", failures,
           detail=f"residuals {r_exact:.2e}, {r_coarse:.4f} -> {r_fine:.4f}")


def test_criterion_5_chaotic_preset():
    failures = []
    target_rate = np.log(0.9 * 0.25**-0.4)
    for space, need_mean in (("h2", True), ("h1", False), ("bergman:2:0", False)):
        config = ExperimentConfig(weight="0.9*z", phi_affine=0.25, space=space,
                                  degree=1024, horizon=500, epsilon=1e-10,
                                  growth_factor=1e3,
                                  candidates=[{"s": -0.4, "k": 0}])
        result = run_classify(config)
        if result.li_yorke.kind != "LI_YORKE_EVIDENCE":
            failures.append((space, "li", result.li_yorke.kind))
        if need_mean and result.mean_li_yorke.kind != "MEAN_LI_YORKE_EVIDENCE":
            failures.append((space, "mean", result.mean_li_yorke.kind))
        if space == "h2":
            rate = result.li_yorke.growth.rate
            if rate is None or abs(rate - target_rate) > 0.2 * target_rate:
                failures.append((space, "rate", rate))
    report("criterion 5 (chaotic preset)", failures,
           detail=f"target rate {target_rate:.4f}")


def test_criterion_6_controls():
    failures = []
    phi = rotation(np.pi / 3)
    assert validate_self_map(phi)
    op = WeightedCompOp(WeightSymbol.from_coeffs([1.0]), phi)
    ws = weight_norm_sequence(op, Hardy(2), 200)
    orbit = orbit_norm_sequence(op, binomial_series(-0.4, 256), Hardy(2), 200)
    li = certify_li_yorke(ws, [orbit])
    mean = certify_mean_li_yorke(ws, [orbit])
    if li.kind != "NO_EVIDENCE":
        failures.append(("rotation-li", li.kind))
    if mean.kind != "NO_EVIDENCE":
        failures.append(("rotation-mean", mean.kind))

    config = ExperimentConfig(weight="0.6*z", phi_affine=0.5, space="h2",
                              degree=1024, horizon=500, epsilon=1e-10,
                              growth_factor=1e3, candidates=[{"s": -0.4, "k": 0}])
    result = run_classify(config)
    if result.li_yorke.kind != "INCONCLUSIVE":
        failures.append(("subcritical-li", result.li_yorke.kind))
    if result.mean_li_yorke.kind != "INCONCLUSIVE":
        failures.append(("subcritical-mean", result.mean_li_yorke.kind))
    report("criterion 6 (controls)", failures)


def test_criterion_7_unweighted_counterexample():
    failures = []
    a, degree, horizon = 0.5, 2048, 200
    op = make_op([1.0], a)
    n = np.arange(1, horizon + 1)
    for k in (0, 1, 2):
        seq = eigen_orbit_norm_sequence(op, 0.25, degree, Hardy(2), horizon, power=k)
        bound = a ** (n / 4) * 2**0.25 * (a**n + 1) ** k * (1 + 1e-9)
        bad = np.nonzero(seq.values > bound)[0]
        if bad.size:
            failures.append(("decay-bound", k, int(bad[0]) + 1))
    growth = eigen_orbit_norm_sequence(op, -1.0 / 12.0, degree, Hardy(2), horizon)
    rate = growth_rate_fit(growth, fit_window(horizon))
    target = np.log(2.0 ** (1.0 / 12.0))
    if abs(rate - target) > 0.2 * target:
        failures.append(("growth-rate", rate))
    ws = weight_norm_sequence(op, Hardy(2), horizon)
    if not np.all(ws.values == 1.0):
        failures.append(("weight-not-constant",))
    report("criterion 7 (unweighted counterexample)", failures,
           detail=f"growth rate {rate:.5f} vs {target:.5f}, weight-norm sequence constant 1")


def test_criterion_8_sup_norm_sequence():
    failures = []
    op = make_op([0, 0.6], 0.5)
    w_sup_upper = op.w.sup_upper  # = 0.6 exactly for this weight
    for n, wn in enumerate(weight_iterates(op.w, op.phi, 50), start=1):
        lower, upper = sup_norm_bracket(wn)
        if abs(lower - 0.6**n) > 1e-9 * 0.6**n:
            failures.append(("lower", n, lower))
        if upper > (w_sup_upper**n) * (1 + 1e-9):
            failures.append(("upper", n, upper))
    report("criterion 8 (sup norm sequence)", failures)


def test_criterion_9_property_harness():
    rng = np.random.default_rng(109)
    failures = []
    cases = 0

    # binomial ratio recurrence (220 cases)
    for _ in range(220):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d = binomial_series(s, int(rng.integers(1, 150))).coeffs
        k = np.arange(len(d) - 1)
        lhs, rhs = (k + 1) * d[1:], (k - s) * d[:-1]
        if not np.all(np.abs(lhs - rhs) <= 1e-15 * (1 + np.abs(rhs))):
            failures.append(("binomial", s))
        cases += 1

    # norm homogeneity across spaces (220 cases)
    specs = [Hardy(2), Hardy(1), Hardy(3), Bergman(2, 0.5), Bergman(2, -0.5), SupSpace()]
    for _ in range(220):
        f = random_poly(rng, 10)
        spec = specs[int(rng.integers(0, len(specs)))]
        c = float(rng.uniform(1e-3, 1e3))
        lhs, rhs = space_norm(c * f, spec), c * space_norm(f, spec)
        if abs(lhs - rhs) > 1e-12 * (rhs + 1e-300):
            failures.append(("homogeneity", spec, c))
        cases += 1

    # Bergman coefficient norms never exceed Hardy-2 (220 cases)
    for _ in range(220):
        f = random_poly(rng, 24)
        beta = float(rng.uniform(-0.99, 4.0))
        if coeff_norm_bergman2(f, beta) > coeff_norm_h2(f) * (1 + 1e-12):
            failures.append(("domination", beta))
        cases += 1

    # threshold monotonicity of the certificate (180 cases)
    for _ in range(180):
        v = np.exp(rng.normal(scale=rng.uniform(0.5, 20), size=50))
        ws = NormSequence(values=v, space=Hardy(2))
        eps, g = float(rng.uniform(1e-12, 1e2)), float(rng.uniform(1.5, 1e4))
        before = certify_li_yorke(ws, [], epsilon=eps, growth_factor=g)
        after = certify_li_yorke(ws, [], epsilon=eps * 7, growth_factor=max(1.0001, g / 7))
        if before.kind == "LI_YORKE_EVIDENCE" and after.kind != "LI_YORKE_EVIDENCE":
            failures.append(("monotonicity", eps, g))
        cases += 1

    # witness reproducibility, plain and averaged (180 cases)
    for _ in range(180):
        v = np.exp(rng.normal(scale=rng.uniform(1, 18), size=60))
        ws = NormSequence(values=v, space=Hardy(2))
        li = certify_li_yorke(ws, [])
        if li.decay is not None and v[li.decay.index - 1] != li.decay.value:
            failures.append(("witness-decay",))
        if li.growth is not None and v[li.growth.index - 1] != li.growth.value:
            failures.append(("witness-growth",))
        mean = certify_mean_li_yorke(ws, [])
        if mean.growth is not None:
            cesaro = sequence_stats(v).cesaro
            if cesaro[mean.growth.index - 1] != mean.growth.value:
                failures.append(("witness-mean-growth",))
        cases += 1

    assert cases >= 1000
    report("criterion 9 (property harness)", failures, detail=f"{cases} cases")
