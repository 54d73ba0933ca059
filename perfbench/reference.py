"""Reference values computed apart from wcochaos.

Every workload uses the weight w = lam*z and the self-map phi = a*z + 1 - a
with 0 < a < 1/2, so the weight iterates are explicit products of linear
factors,

    w(n)(z) = lam^n * z * prod_{k=1}^{n-1} (a^k z + 1 - a^k),

and the n-th orbit element of the truncated candidate g = (1-z)^s (degree D)
is a^(n s) * w(n) * g.  Norms are evaluated from these products on fine
grids: the trapezoid rule on the circle for H^p, and composite
Gauss-Legendre in r (panels graded toward r = 1, where (1-r^2)^beta is not
smooth) times the trapezoid rule in the angle for A^p_beta.  Scales such as
lam^n and a^(n s) are carried as logarithms, so long horizons neither
overflow nor underflow.  Nothing here imports wcochaos.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import binom, roots_legendre

# Beyond this a^k the factor a^k z + 1 - a^k equals 1 to double precision.
FACTOR_CUTOFF = 1e-18
ANGULAR_OVERSAMPLING = 8
RADIAL_LEVELS = 30
RADIAL_NODES = 12
RADIAL_CHUNK = 16


def binomial_coeffs(s: float, degree: int) -> np.ndarray:
    """Maclaurin coefficients of (1 - z)^s up to ``degree``, via scipy binom."""
    k = np.arange(degree + 1)
    return binom(s, k) * np.where(k % 2 == 0, 1.0, -1.0)


def log_weight_factors(z: np.ndarray, lam: float | None, a: float, n: int) -> np.ndarray:
    """log |w(n)(z)| from the product of linear factors; lam=None is w = 1."""
    if lam is None:
        return np.zeros(np.shape(z))
    # Each factor has modulus in [1 - 2a^k, 1] on the closed disk, so their
    # product neither overflows nor underflows.
    prod = np.ones(np.shape(z), dtype=complex)
    for k in range(1, n):
        ak = a**k
        if ak < FACTOR_CUTOFF:
            break
        prod *= ak * z + (1.0 - ak)
    return n * math.log(lam) + np.log(np.abs(z)) + np.log(np.abs(prod))


def _log_mean_pow(logabs: np.ndarray, p: float, axis=None) -> np.ndarray:
    """log of the mean of |f|^p, from log |f|, without overflow."""
    top = np.max(logabs, axis=axis, keepdims=True)
    mean = np.mean(np.exp(p * (logabs - top)), axis=axis, keepdims=True)
    return np.squeeze(p * top + np.log(mean), axis=axis)


def _grid_size(degree: int, p: float) -> int:
    """Power-of-two angular grid.  For even integer p, |f|^p is a trigonometric
    polynomial of degree p*deg/2 and p*deg + 1 points integrate it exactly."""
    if p == round(p) and round(p) % 2 == 0:
        points = p * degree + 1
    else:
        points = ANGULAR_OVERSAMPLING * (degree + 1)
    return 1 << max(8, math.ceil(math.log2(points)))


def _log_element(z, r_pows, lam, a, n, s, coeffs, grid):
    """log |orbit element| at the points z = r * exp(-2 pi i j / grid)."""
    out = log_weight_factors(z, lam, a, n)
    if coeffs is not None:
        g = np.fft.fft(coeffs[None, :] * r_pows, n=grid, axis=-1)
        out = out + n * s * math.log(a) + np.log(np.abs(g))
    return out


def hardy_norm(p: float, lam: float, a: float, n: int, s: float | None = None,
               degree: int = 0) -> float:
    """H^p norm of w(n) (s=None) or of the n-th orbit element of (1-z)^s."""
    coeffs = None if s is None else binomial_coeffs(s, degree)
    grid = _grid_size(n + degree, p)
    z = np.exp(-2j * np.pi * np.arange(grid) / grid)
    logabs = _log_element(z[None, :], 1.0, lam, a, n, s, coeffs, grid)
    return math.exp(float(_log_mean_pow(logabs, p)) / p)


def radial_rule(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_0^1 2r(beta+1)(1-r^2)^beta F(r) dr.

    Gauss-Legendre panels [1-2^-j, 1-2^-(j+1)] carry the weight in the
    integrand; the last sliver [1-2^-L, 1] integrates the weight exactly,
    (1-r0^2)^(beta+1), against F at its midpoint.
    """
    x, w = roots_legendre(RADIAL_NODES)
    edges = 1.0 - 0.5 ** np.arange(RADIAL_LEVELS + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = ((lo + hi) / 2 + (hi - lo) / 2 * x[None, :]).ravel()
    weights = ((hi - lo) / 2 * w[None, :]).ravel()
    weights = weights * 2 * nodes * (beta + 1.0) * (1.0 - nodes * nodes) ** beta
    r0 = edges[-1]
    tail = (1.0 - r0 * r0) ** (beta + 1.0)
    return np.append(nodes, (r0 + 1.0) / 2), np.append(weights, tail)


def bergman_norm(p: float, beta: float, lam: float, a: float, n: int,
                 s: float | None = None, degree: int = 0) -> float:
    """A^p_beta norm, with dA_beta = (beta+1)(1-|z|^2)^beta dA/pi."""
    coeffs = None if s is None else binomial_coeffs(s, degree)
    grid = _grid_size(n + degree, p)
    theta = np.exp(-2j * np.pi * np.arange(grid) / grid)
    nodes, weights = radial_rule(beta)
    k = np.arange(0 if coeffs is None else len(coeffs))
    terms = []
    for i in range(0, len(nodes), RADIAL_CHUNK):
        r = nodes[i:i + RADIAL_CHUNK, None]
        r_pows = r ** k[None, :] if coeffs is not None else None
        logabs = _log_element(r * theta[None, :], r_pows, lam, a, n, s, coeffs, grid)
        log_phi = _log_mean_pow(logabs, p, axis=1)
        terms.append(np.log(weights[i:i + RADIAL_CHUNK]) + log_phi)
    t = np.concatenate(terms)
    top = t.max()
    return math.exp((top + math.log(np.sum(np.exp(t - top)))) / p)


def space_norm(space: tuple, lam: float | None, a: float, n: int,
               s: float | None = None, degree: int = 0) -> float:
    """Norm of w(n) (s=None) or of the n-th orbit element of (1-z)^s.

    ``space`` is ("h", p), ("bergman", p, beta) or ("hinf",).  In H^inf every
    coefficient is nonnegative (s < 0), so the sup is the value at z = 1.
    """
    if space[0] == "h":
        return hardy_norm(space[1], lam, a, n, s, degree)
    if space[0] == "bergman":
        return bergman_norm(space[1], space[2], lam, a, n, s, degree)
    log_v = 0.0 if lam is None else n * math.log(lam)
    if s is not None:
        log_v += n * s * math.log(a) + math.log(np.sum(binomial_coeffs(s, degree)))
    return math.exp(log_v)


def eigen_residual(p: float, a: float, s: float, degree: int) -> float:
    """||g o phi - a^s g||_{H^p} / ||g||_{H^p} for g = (1-z)^s truncated at degree."""
    coeffs = binomial_coeffs(s, degree)
    grid = _grid_size(degree, p)
    z = np.exp(-2j * np.pi * np.arange(grid) / grid)
    g = np.fft.fft(coeffs, n=grid)
    image = np.polynomial.polynomial.polyval(a * z + (1.0 - a), coeffs)
    diff = image - a**s * g
    return float((np.mean(np.abs(diff) ** p) / np.mean(np.abs(g) ** p)) ** (1.0 / p))


def orbit_rate(lam: float, a: float, s: float) -> float:
    """log of the orbit ratio v_{n+1}/v_n = lam * a^s as n grows."""
    return math.log(lam) + s * math.log(a)


def _log_weight_lower(space: tuple, lam: float, a: float, horizon: int) -> np.ndarray:
    """Lower bounds on log v_n(weights), n = 1..horizon.

    H^p: |c_1| <= ||f||_{H^1} <= ||f||_{H^p}, and c_1(w(n)) = lam^n prod (1-a^k).
    A^p_beta: |f(z)| (1-|z|^2)^((2+beta)/p) <= ||f||, taken at z = 1/2.
    H^inf: the sup is lam^n exactly.
    """
    n = np.arange(1, horizon + 1)
    k = np.arange(1, horizon)
    if space[0] == "h":
        prod = np.concatenate([[0.0], np.cumsum(np.log1p(-(a**k)))])
        return n * math.log(lam) + prod
    if space[0] == "bergman":
        p, beta = space[1], space[2]
        prod = np.concatenate([[0.0], np.cumsum(np.log1p(-(a**k) / 2))])
        return n * math.log(lam) + math.log(0.5) + prod + (2 + beta) / p * math.log(0.75)
    return n * math.log(lam)


def _log_cummean(log_v: np.ndarray) -> np.ndarray:
    return np.logaddexp.accumulate(log_v) - np.log(np.arange(1, len(log_v) + 1))


def _decide(lower: float, upper: float, threshold: float, margin: float):
    """True if the value is surely above threshold, False if surely below, else None."""
    if lower > threshold + margin:
        return True
    if upper < threshold - margin:
        return False
    return None


def _kind(decay: bool, growth: bool, evidence: str) -> str:
    if decay and growth:
        return evidence
    return "INCONCLUSIVE" if decay or growth else "NO_EVIDENCE"


def predict_kinds(space: tuple, lam: float, a: float, s: float, horizon: int,
                  epsilon: float, growth_factor: float, margin: float = math.log(2.0)):
    """(li_kind, mean_kind) of classify for w = lam z, phi = a z + 1 - a, (1-z)^s.

    Rests on bounds that hold in every space used here, for 0 < a < 1/2:
    the weight norms are non-increasing and lie between lam^n and the
    space's lower bound; the orbit ratio v_n/v_1 lies between
    C_n exp(r(n-1)) and exp(r(n-1)), with r = log(lam a^s) and
    C_n = prod_{k<n} (1 - 2a^k), the minimum modulus of the extra factors.
    Returns None if any bound pair straddles its threshold (by ``margin``
    in log terms): such inputs are not drawn.
    """
    n = np.arange(1, horizon + 1)
    log_eps, log_g = math.log(epsilon), math.log(growth_factor)
    w_up = n * math.log(lam)
    w_lo = _log_weight_lower(space, lam, a, horizon)
    r = orbit_rate(lam, a, s)
    k = np.arange(1, horizon)
    log_c = np.concatenate([[0.0], np.cumsum(np.log1p(-2 * a**k))])
    o_up = r * (n - 1)
    o_lo = o_up + log_c
    tail = slice(horizon // 2, horizon)
    tail_n = horizon - horizon // 2

    def tail_mean(log_v):
        return np.logaddexp.reduce(log_v[tail]) - math.log(tail_n)

    li_decay = _decide(-w_up[-1], -w_lo[-1], -log_eps, margin)
    li_growth = _decide(o_lo.max(), o_up.max(), log_g, margin)
    mean_decay = _decide(-tail_mean(w_up), -tail_mean(w_lo), -log_eps, margin)
    mean_growth = _decide(_log_cummean(o_lo).max(), _log_cummean(o_up).max(), log_g, margin)
    if None in (li_decay, li_growth, mean_decay, mean_growth):
        return None
    return (_kind(li_decay, li_growth, "LI_YORKE_EVIDENCE"),
            _kind(mean_decay, mean_growth, "MEAN_LI_YORKE_EVIDENCE"))
