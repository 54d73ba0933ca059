"""Truncated Maclaurin series: exact complex polynomial arithmetic.

Every analytic function handled by this package is represented by a finite
coefficient sequence (c0, ..., cd), i.e. the polynomial c0 + c1 z + ... +
cd z^d.  Arithmetic between polynomials is exact (no implicit truncation);
a degree cap is applied only where an operation takes one explicitly, and
the capped coefficients are then exact partial sums of the uncapped result.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "SHORT_FACTOR_TAPS",
    "AnalyticPoly",
    "binomial_series",
    "compose",
    "compose_affine",
    "eval_on_circle",
]

# A product whose shorter factor has at most this many coefficients is built
# as a sum of scaled, shifted copies of the longer factor in one buffer; for
# complex input np.convolve makes one BLAS dot call per output coefficient.
# Measured with numpy 2.4 on one core, convolve against the tap loop: 33 us
# against 9 us for 2 taps at length 1025, 95 us against 14 us at 3000, and
# 36 us against 17 us for 4 taps at 1025.  Below about 256 coefficients the
# loop loses by 1-9 us, but the factors of 3-4 taps the code builds (w o
# phi^n for a weight of degree 2-3, (phi^n)^k for a candidate z^k) meet long
# polynomials.
SHORT_FACTOR_TAPS = 4


class AnalyticPoly:
    """Polynomial with complex coefficients in ascending degree order.

    The coefficient sequence is never empty (the zero function is the single
    coefficient 0).  Instances are immutable; two polynomials compare equal
    when they agree up to trailing zero coefficients.
    """

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient sequence must be 1-d and non-empty")
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "AnalyticPoly":
        """Wrap a fresh 1-d complex128 array that no one else holds, uncopied."""
        poly = cls.__new__(cls)
        arr.setflags(write=False)
        poly.coeffs = arr
        return poly

    @classmethod
    def zero(cls) -> "AnalyticPoly":
        return cls([0.0])

    @classmethod
    def one(cls) -> "AnalyticPoly":
        return cls([1.0])

    @classmethod
    def monomial(cls, power: int, coefficient=1.0) -> "AnalyticPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = np.zeros(power + 1, dtype=np.complex128)
        c[power] = coefficient
        return cls(c)

    @property
    def degree(self) -> int:
        """Degree of the stored representation (trailing zeros included)."""
        return len(self.coeffs) - 1

    def trimmed(self) -> "AnalyticPoly":
        """Drop trailing coefficients that are exactly zero."""
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return AnalyticPoly.zero()
        return AnalyticPoly(self.coeffs[: nz[-1] + 1])

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-padded (or identical) to the requested length."""
        if length < len(self.coeffs):
            raise ValueError("cannot pad below the stored length")
        out = np.zeros(length, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def truncated(self, max_degree: int) -> "AnalyticPoly":
        """Keep coefficients up to max_degree; exact partial sums."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        return AnalyticPoly(self.coeffs[: max_degree + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnalyticPoly):
            return NotImplemented
        a, b = self.trimmed().coeffs, other.trimmed().coeffs
        return len(a) == len(b) and bool(np.all(a == b))

    __hash__ = None

    def __add__(self, other: "AnalyticPoly") -> "AnalyticPoly":
        if not isinstance(other, AnalyticPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return AnalyticPoly(self.padded(n) + other.padded(n))

    def __neg__(self) -> "AnalyticPoly":
        return AnalyticPoly(-self.coeffs)

    def __sub__(self, other: "AnalyticPoly") -> "AnalyticPoly":
        if not isinstance(other, AnalyticPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AnalyticPoly):
            return AnalyticPoly._adopt(_product(self.coeffs, other.coeffs))
        if isinstance(other, numbers.Number):
            return AnalyticPoly._adopt(self.coeffs * complex(other))
        return NotImplemented

    __rmul__ = __mul__  # reached only for a scalar on the left

    def __call__(self, z):
        """Evaluate at a point or array of points."""
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def coeff_abs_sum(self) -> float:
        """Sum of coefficient moduli; an upper bound for the disk sup."""
        return float(np.sum(np.abs(self.coeffs)))

    def __repr__(self) -> str:
        c = self.trimmed().coeffs
        if len(c) > 6:
            return f"AnalyticPoly(degree={len(c) - 1})"
        return f"AnalyticPoly({list(c)})"


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of two polynomials, full length, untruncated."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) > SHORT_FACTOR_TAPS:
        return np.convolve(a, b)
    n = len(a)
    out = np.empty(n + len(b) - 1, dtype=np.complex128)
    np.multiply(a, b[0], out=out[:n])
    out[n:] = 0.0
    for j in range(1, len(b)):
        out[j : j + n] += a * b[j]
    return out


def compose_affine(f: AnalyticPoly, alpha, gamma) -> AnalyticPoly:
    """Exact composition f(alpha*z + gamma) by the Horner recurrence.

    The accumulator is multiplied by (alpha*z + gamma) and shifted by the
    next coefficient, from the highest coefficient down.  The result has
    degree <= deg f at O(d^2) scalar cost.
    """
    c = f.coeffs
    d = len(c) - 1
    out = np.zeros(d + 1, dtype=np.complex128)
    out[0] = c[d]
    deg = 0
    for k in range(d - 1, -1, -1):
        # out <- out*(alpha z + gamma) + c[k]; the slice RHS is evaluated
        # before assignment, so the in-place update is alias-safe.
        out[1 : deg + 2] = gamma * out[1 : deg + 2] + alpha * out[: deg + 1]
        out[0] = gamma * out[0] + c[k]
        deg += 1
    return AnalyticPoly._adopt(out)


def compose(f: AnalyticPoly, g: AnalyticPoly, max_degree: int | None = None) -> AnalyticPoly:
    """Polynomial composition f(g(z)), optionally capped at max_degree.

    Without a cap the result is the exact composition (degree deg f * deg g,
    which grows quickly); with a cap every intermediate product is truncated,
    so the retained coefficients are exact partial sums.
    """
    acc = AnalyticPoly([f.coeffs[-1]])
    for k in range(len(f.coeffs) - 2, -1, -1):
        acc = acc * g + AnalyticPoly([f.coeffs[k]])
        if max_degree is not None:
            acc = acc.truncated(max_degree)
    return acc


def binomial_series(s, degree: int) -> AnalyticPoly:
    """Maclaurin coefficients of (1 - z)**s up to the given degree.

    Uses the ratio recurrence d[0] = 1, d[k+1] = d[k] * (k - s) / (k + 1),
    which stays exact (one rounding per step) for arbitrary complex s.  For
    nonnegative integer s the recurrence terminates with exact zeros, so the
    result is the exact binomial expansion.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    ks = np.arange(degree, dtype=np.complex128)
    ratios = (ks - s) / (ks + 1.0)
    coeffs = np.empty(degree + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    if degree:
        coeffs[1:] = np.cumprod(ratios)
    return AnalyticPoly(coeffs)


def eval_on_circle(f: AnalyticPoly, grid_size: int) -> np.ndarray:
    """Values of f at the grid_size-point uniform grid on the unit circle.

    Returns f(exp(2j*pi*k/M)) for k = 0..M-1.  Computed as an inverse FFT of
    the coefficient sequence; coefficients beyond the grid size are folded
    onto their aliases first (ifft with n=M would silently drop them).
    """
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    c = f.coeffs
    if len(c) > grid_size:
        folded = np.zeros(-(-len(c) // grid_size) * grid_size, dtype=np.complex128)
        folded[: len(c)] = c
        c = folded.reshape(-1, grid_size).sum(axis=0)
    return np.fft.ifft(c, n=grid_size) * grid_size
