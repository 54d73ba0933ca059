"""Norms on Hardy, weighted Bergman and sup spaces of the disk.

Hilbert-space norms (Hardy p=2, Bergman p=2) are evaluated exactly from
coefficients, rescaled by a power of two when the squares would leave the
double range; general p goes through quadrature, rescaled likewise when
|f|^p would leave the normal doubles.  Hardy norms are taken
directly at radius 1: every representable function is a polynomial, hence
continuous up to the boundary, so the radial supremum in the defining
integral is attained there and no radial sweep is needed.  The sup norm is
only bracketed: boundary-grid maximum from below, coefficient absolute sum
from above.

Quadrature cost is mostly inverse FFTs.  Automatic angular grids start at a
5-smooth length (2^a 3^b 5^c, looked up in a sorted table), where numpy's
FFT is fast, and doubling keeps them 5-smooth; a grid set through
``angular_grid`` is used as given.  Hardy doubling is nested: the doubled
grid is the old grid plus its half-step offset, so only the offset samples
are new.  The Gauss-Jacobi radial rule is cached per (order, beta), and
scipy.special, which supplies it, is imported on first use.  A Bergman row
at radius r sees the coefficients damped by r^k, so it keeps only the first
K terms whose dropped tail lies below 2^-53 of a lower bound on the row's
mean, on a grid sized for degree K; rows with similar K share one batched
FFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .series import AnalyticPoly, eval_on_circle

__all__ = [
    "Hardy",
    "Bergman",
    "SupSpace",
    "SpaceSpec",
    "parse_space",
    "coeff_norm_h2",
    "bergman2_coeff_weights",
    "coeff_norm_bergman2",
    "quad_norm_hp",
    "quad_norm_bergman_p",
    "sup_norm_bracket",
    "space_norm",
    "space_provenance",
    "require_in_space",
]

GRID_DOUBLING_TOL = 1e-9
BERGMAN_DOUBLING_TOL = 1e-8
MAX_ANGULAR_GRID = 1 << 22
DEFAULT_RADIAL_ORDER = 128
SUP_BRACKET_GRID = 256


@dataclass(frozen=True)
class Hardy:
    """Hardy space H^p, 1 <= p < inf; angular_grid overrides the default."""

    p: float
    angular_grid: int | None = None

    def __post_init__(self):
        if not (1.0 <= self.p < math.inf):
            raise ValueError("Hardy exponent must satisfy 1 <= p < inf")

    def __str__(self):
        return f"H{self.p:g}"


@dataclass(frozen=True)
class Bergman:
    """Weighted Bergman space A^p_beta, 1 < p < inf, beta > -1."""

    p: float
    beta: float
    angular_grid: int | None = None
    radial_order: int = DEFAULT_RADIAL_ORDER

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError("Bergman exponent must satisfy 1 < p < inf")
        if not self.beta > -1.0:
            raise ValueError("Bergman weight exponent must satisfy beta > -1")

    def __str__(self):
        return f"A{self.p:g}(beta={self.beta:g})"


@dataclass(frozen=True)
class SupSpace:
    """H^inf; norms are reported as two-sided brackets."""

    grid_size: int = SUP_BRACKET_GRID

    def __str__(self):
        return "Hinf"


SpaceSpec = Hardy | Bergman | SupSpace


def parse_space(token: str) -> SpaceSpec:
    """Parse a space token: 'h2', 'h1', 'h2.5', 'bergman:<p>:<beta>', 'hinf'."""
    t = token.strip().lower()
    if t == "hinf":
        return SupSpace()
    if t.startswith("bergman:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad Bergman token {token!r}; expected bergman:<p>:<beta>")
        return Bergman(p=float(parts[1]), beta=float(parts[2]))
    if t.startswith("h"):
        return Hardy(p=float(t[1:]))
    raise ValueError(f"unknown space token {token!r}")


def _rescaled_norm(norm, c: np.ndarray) -> float:
    """norm(c) for a square-root-of-sum-of-squares norm of coefficients c.

    Outside about [1e-140, 1e140] the squares go subnormal or overflow, so
    the sum is redone on c scaled exactly by a power of two that brings the
    largest modulus into [1/2, 1); in range the plain value is returned.
    """
    out = norm(c)
    if 1e-140 <= out <= 1e140:
        return out
    e = int(np.frexp(np.max(np.abs(c)))[1])
    return float(np.ldexp(norm(_times_two_to(c, -e)), e))


def _times_two_to(c: np.ndarray, e: int) -> np.ndarray:
    """c * 2^e, exact unless it leaves the double range."""
    return np.ldexp(c.view(np.float64), e).view(np.complex128)


def _quadrature_scale(c: np.ndarray, p: float) -> int:
    """Binary exponent e by which a quadrature of |f|^p rescales c, or 0.

    The grid mean of |f|^p lies between max|c_k|^p (an L^p mean is at least
    every Fourier coefficient) and (sum |c_k|)^p <= (len(c) max|c_k|)^p.
    While the first is at least 2^-968 and the grid sum of the second, over
    at most 2^23 points, stays below 2^1023, the samples that carry the mean
    are normal doubles and 0 is returned; otherwise e = the exponent of
    max|c_k|, and c * 2^-e has its largest modulus in [1/2, 1).
    """
    e = math.frexp(np.abs(c).max())[1]
    if p * (e - 1) >= -968 and p * (e + len(c).bit_length()) <= 1000:
        return 0
    return e


def coeff_norm_h2(f: AnalyticPoly) -> float:
    """H^2 norm: the l2 norm of the Maclaurin coefficients (exact)."""
    return _rescaled_norm(lambda c: float(np.linalg.norm(c)), f.coeffs)


def bergman2_coeff_weights(count: int, beta: float) -> np.ndarray:
    """First ``count`` A^2_beta coefficient weights.

    The weight of z^k is k! * G(2+beta) / G(k+2+beta) with G the Gamma
    function; it is generated Gamma-free by g[0] = 1 and g[k+1] = g[k] *
    (k+1) / (k+2+beta), avoiding overflow for large degrees.
    """
    if not beta > -1.0:
        raise ValueError("beta must exceed -1")
    out = np.empty(count)
    out[0] = 1.0
    if count > 1:
        k = np.arange(count - 1, dtype=np.float64)
        out[1:] = np.cumprod((k + 1.0) / (k + 2.0 + beta))
    return out


def coeff_norm_bergman2(f: AnalyticPoly, beta: float) -> float:
    """A^2_beta norm from coefficients (exact for polynomials)."""
    g = bergman2_coeff_weights(len(f.coeffs), beta)
    return _rescaled_norm(lambda c: float(np.sqrt(np.sum(g * np.abs(c) ** 2))), f.coeffs)


def _even_integer(p: float) -> bool:
    return p == round(p) and int(round(p)) % 2 == 0


def _smooth_table(limit: int) -> np.ndarray:
    """Sorted 5-smooth numbers 2^a 3^b 5^c up to limit."""
    t = [1]
    for q in (2, 3, 5):
        multiples = []
        for m in t:
            while m <= limit:
                multiples.append(m)
                m *= q
        t = multiples
    return np.array(sorted(t), dtype=np.int64)


_SMOOTH = _smooth_table(1 << 40)


def _fast_len(n):
    """Smallest 5-smooth length 2^a 3^b 5^c that is at least n; elementwise
    for an array of n."""
    m = _SMOOTH[np.searchsorted(_SMOOTH, n)]
    return int(m) if np.ndim(m) == 0 else m


def _auto_grid(d, p: float):
    """5-smooth length >= max(4d+1, 16), raised to >= p*d+1 for even p where
    the exact rule needs more points; elementwise for an array of degrees."""
    need = np.maximum(4 * d + 1, 16)
    if _even_integer(p):
        need = np.maximum(need, int(p) * d + 1)
    return _fast_len(need)


def _angular_grid(d: int, p: float, given: int | None) -> int:
    """Starting grid: _auto_grid, or the given one, raised for even p to the
    5-smooth length >= p*d+1 where the exact rule needs more points."""
    if given is None:
        return _auto_grid(d, p)
    if _even_integer(p) and given < int(p) * d + 1:
        return _fast_len(int(p) * d + 1)
    return given


def _sum_abs_pow(f: AnalyticPoly, p: float, grid: int) -> float:
    return float(np.sum(np.abs(eval_on_circle(f, grid)) ** p))


def quad_norm_hp(f: AnalyticPoly, p: float, angular_grid: int | None = None) -> float:
    """H^p norm of a polynomial by the uniform trapezoid rule at radius 1.

    For even integer p the integrand |f|^p is a trigonometric polynomial and
    the rule is exact once the grid exceeds p * deg f points; the grid is
    enlarged to that size automatically.  For other p the grid is doubled
    until the relative change is below 1e-9.  Doubling is nested: the
    samples of the M-point grid are kept in a running sum, and the new half
    of the 2M-point grid, the points shifted by pi/M, is the M-point inverse
    FFT of the twisted coefficients c_j exp(i pi j / M).  Where |f|^p would
    leave the normal doubles, f is scaled by a power of two first.
    """
    if not (1.0 <= p < math.inf):
        raise ValueError("Hardy exponent must satisfy 1 <= p < inf")
    e = _quadrature_scale(f.coeffs, p)
    if e:
        scaled = AnalyticPoly._adopt(_times_two_to(f.coeffs, -e))
        return math.ldexp(quad_norm_hp(scaled, p, angular_grid), e)
    d = f.trimmed().degree
    if angular_grid is not None and angular_grid < 4 * d + 1:
        raise ValueError("angular grid must have at least 4*deg(f) + 1 points")
    grid = _angular_grid(d, p, angular_grid)
    if _even_integer(p):
        return (_sum_abs_pow(f, p, grid) / grid) ** (1.0 / p)
    total = _sum_abs_pow(f, p, grid)
    prev = total / grid
    c, j = f.coeffs, np.arange(len(f.coeffs))
    while True:
        total += _sum_abs_pow(AnalyticPoly(c * np.exp(1j * math.pi * j / grid)), p, grid)
        grid *= 2
        cur = total / grid
        if abs(cur - prev) <= GRID_DOUBLING_TOL * max(cur, 1e-300):
            return cur ** (1.0 / p)
        if grid > MAX_ANGULAR_GRID:
            raise RuntimeError("Hardy quadrature failed to converge under grid doubling")
        prev = cur


def roots_jacobi(n: int, alpha: float, beta: float):
    """scipy.special.roots_jacobi, imported on first use: scipy.special is
    most of the package's import time and only the A^p_beta rule needs it."""
    from scipy.special import roots_jacobi as roots

    return roots(n, alpha, beta)


@functools.lru_cache(maxsize=32)
def _radial_rule(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi radii sqrt((x+1)/2) and weights, read-only."""
    nodes, wq = roots_jacobi(order, beta, 0.0)
    r = np.sqrt((nodes + 1.0) / 2.0)
    r.setflags(write=False)
    wq.setflags(write=False)
    return r, wq


# Coefficient counts K_j a truncated A^p_beta row may keep, each about 1.5
# times the last, so that one batched FFT per rung wastes at most a third of
# its columns.  Below 16 terms a separate FFT call costs more than the points
# it saves.
_RUNGS = np.ceil(16.0 * 1.5 ** np.arange(56)).astype(np.int64)


def _row_rungs(c: np.ndarray, r: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """For each radius r_i, the first j with

        max_{k>=K} |c_k| * r^K / (1-r)  <=  2^-53 * max_k |c_k| r^k,  K = keep[j].

    The left side bounds the dropped tail sum_{k>=K} c_k r^k e^{ikt} on the
    circle.  The right side is a lower bound on the row's L^p mean (p >= 1),
    which is at least its L^1 mean and so at least each Fourier coefficient
    |c_k| r^k; the test fails while the largest term is in the tail, so it is
    the same as taking the maximum over k < K only.  keep[-1] = len(c) always
    passes.
    """
    log_r = np.log(r)[:, None]
    with np.errstate(divide="ignore"):
        log_a = np.log(np.abs(c))
    # For r < 1 an earlier term at least as large always wins, so only the
    # running-maximum records of |c_k| can be the largest |c_k| r^k.
    rec = np.flatnonzero(log_a > np.maximum.accumulate(np.append(-np.inf, log_a[:-1])))
    top = np.max(log_a[rec] + rec * log_r, axis=1, initial=-np.inf)
    tail_max = np.append(np.maximum.accumulate(log_a[::-1])[::-1], -np.inf)
    tail = tail_max[keep] + keep * log_r - np.log1p(-r)[:, None]
    return np.argmax(tail <= top[:, None] - 53.0 * math.log(2.0), axis=1)


def _bergman_mean(c: np.ndarray, p: float, beta: float, order: int, grid: int,
                  scale: int) -> float:
    # Gauss-Jacobi on [-1, 1] with weight (1-x)^beta, mapped to u = (x+1)/2
    # in [0, 1]:  int_0^1 (1-u)^beta g(u) du = 2^(-beta-1) * sum w_i g(u_i).
    # Rung j keeps the first K_j terms of a row on _auto_grid(K_j) * scale
    # points, for the rungs shorter than the full grid; the last rung is the
    # whole row on the full grid.  Rows of one rung share one batched FFT.
    r, wq = _radial_rule(order, beta)
    short = _RUNGS[_RUNGS < len(c)]
    lengths = _auto_grid(short, p) * scale
    keep = np.append(short[lengths < grid], len(c))
    lengths = np.append(lengths[lengths < grid], grid)
    rung = _row_rungs(c, r, keep) if len(keep) > 1 else np.zeros(len(r), dtype=np.int64)
    angular = np.empty(len(r))
    for j in np.unique(rung):
        rows = np.flatnonzero(rung == j)
        k, m = keep[j], lengths[j]
        block = r[rows, None] ** np.arange(k) * c[:k]
        vals = np.fft.ifft(block, n=m, axis=1) * m
        angular[rows] = np.mean(np.abs(vals) ** p, axis=1)
    return float((beta + 1.0) * 2.0 ** (-(beta + 1.0)) * np.dot(wq, angular))


def quad_norm_bergman_p(f: AnalyticPoly, p: float, beta: float,
                        radial_order: int | None = None,
                        angular_grid: int | None = None) -> float:
    """A^p_beta norm by Gauss-Jacobi (radial) x trapezoid (angular) rules.

    In polar coordinates with u = r^2 the norm is (beta+1) *
    int_0^1 (1-u)^beta Phi(sqrt(u)) du with Phi the angular mean of |f|^p;
    the Jacobi rule absorbs the (1-u)^beta endpoint singularity for beta < 0.
    For p = 2 both rules are exact at the automatic orders; for other p the
    orders are doubled until the value settles to 1e-8 relative.

    Each radius r < 1 sees the coefficients damped by r^k, so its row keeps
    only the first K terms, where the dropped tail, at most
    max_{k>=K}|c_k| r^K / (1-r) on the circle, is below 2^-53 times
    max_{k<K}|c_k| r^k, a lower bound on the row's L^p mean.  The row's
    angular grid is then sized for degree K (at least 4K+1 points, or p*K+1
    for even p) rather than for deg f, and doubles with the full grid.
    Where |f|^p would leave the normal doubles, f is scaled by a power of
    two first.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("Bergman exponent must satisfy 1 < p < inf")
    if not beta > -1.0:
        raise ValueError("Bergman weight exponent must satisfy beta > -1")
    e = _quadrature_scale(f.coeffs, p)
    if e:
        scaled = AnalyticPoly._adopt(_times_two_to(f.coeffs, -e))
        return math.ldexp(quad_norm_bergman_p(scaled, p, beta, radial_order, angular_grid), e)
    c = f.trimmed().coeffs
    d = len(c) - 1
    grid = _angular_grid(d, p, angular_grid)
    order = radial_order if radial_order is not None else DEFAULT_RADIAL_ORDER
    if _even_integer(p):
        # |f|^p is a trig polynomial in theta and a polynomial of degree
        # p*d/2 in u; both rules below are exact, up to the truncated rows'
        # tails, which lie below rounding.
        order = max(order, int(p) * d // 4 + 2)
        return _bergman_mean(c, p, beta, order, grid, 1) ** (1.0 / p)
    prev = _bergman_mean(c, p, beta, order, grid, 1)
    scale = 1
    while True:
        grid *= 2
        order *= 2
        scale *= 2
        cur = _bergman_mean(c, p, beta, order, grid, scale)
        if abs(cur - prev) <= BERGMAN_DOUBLING_TOL * max(cur, 1e-300):
            return cur ** (1.0 / p)
        if grid > MAX_ANGULAR_GRID:
            raise RuntimeError("Bergman quadrature failed to converge under doubling")
        prev = cur


def sup_norm_bracket(f: AnalyticPoly, grid_size: int = SUP_BRACKET_GRID) -> tuple[float, float]:
    """Two-sided bracket for the sup norm on the disk.

    Lower bound: maximum of |f| over the uniform boundary grid (valid by the
    maximum modulus principle).  Upper bound: coefficient absolute sum.
    """
    if grid_size < 64:
        raise ValueError("sup bracket grid must have at least 64 points")
    lower = float(np.max(np.abs(eval_on_circle(f, grid_size))))
    return lower, f.coeff_abs_sum()


def space_norm(f: AnalyticPoly, spec: SpaceSpec, sup_side: str = "lower") -> float:
    """Norm of f in the given space; SupSpace returns the requested bracket side."""
    if isinstance(spec, Hardy):
        if spec.p == 2.0:
            return coeff_norm_h2(f)
        return quad_norm_hp(f, spec.p, angular_grid=spec.angular_grid)
    if isinstance(spec, Bergman):
        if spec.p == 2.0:
            return coeff_norm_bergman2(f, spec.beta)
        return quad_norm_bergman_p(f, spec.p, spec.beta,
                                   radial_order=spec.radial_order,
                                   angular_grid=spec.angular_grid)
    if isinstance(spec, SupSpace):
        lower, upper = sup_norm_bracket(f, spec.grid_size)
        if sup_side == "lower":
            return lower
        if sup_side == "upper":
            return upper
        raise ValueError("sup_side must be 'lower' or 'upper'")
    raise TypeError(f"unknown space spec {spec!r}")


def space_provenance(spec: SpaceSpec, sup_side: str = "lower", capped: bool = False) -> str:
    """Provenance tag for norm values: how trustworthy each direction is.

    Coefficient norms of capped sequences are exact partial sums, hence
    lower bounds; a boundary-grid sup maximum likewise only bounds from
    below.  Certificates use these tags to refuse unsound decay claims.
    """
    if isinstance(spec, SupSpace):
        return "bracket-lower" if sup_side == "lower" else "bracket-upper"
    exact = (isinstance(spec, Hardy) and spec.p == 2.0) or (
        isinstance(spec, Bergman) and spec.p == 2.0
    )
    if exact:
        return "bracket-lower" if capped else "exact-coefficient"
    return "quadrature"


def require_in_space(spec: SpaceSpec, s) -> None:
    """Raise ValueError unless a candidate (1-z)^s z^k lies in the space.

    (1-z)^s lies in H^p iff Re s > -1/p, in A^p_beta iff Re s > -(2+beta)/p
    and in H^inf iff Re s >= 0; the factor z^k does not change membership.
    """
    re = complex(s).real
    if isinstance(spec, SupSpace):
        ok, need = re >= 0.0, "Re(s) >= 0"
    else:
        num = 1.0 if isinstance(spec, Hardy) else 2.0 + spec.beta
        ok, need = re > -num / spec.p, f"Re(s) > -{num:g}/{spec.p:g}"
    if not ok:
        raise ValueError(f"(1-z)^s lies in {spec} only for {need}")
