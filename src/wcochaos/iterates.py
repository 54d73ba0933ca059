"""Weight iterates w(1), w(2), ... for a weight/self-map pair.

The n-th weight iterate is the product (w o phi^(n-1)) ... (w o phi) * w; it
governs the n-th operator power through the identity T^n f = w(n) * (f o
phi^n).  ``weight_iterates`` generates the sequence by the incremental
recurrence w(n+1) = w(n) * (w o phi^n), one product per step instead of the
literal n-fold product, and holds only the current iterate.  Every f o phi^n
in the package, the factors w o phi^n included, comes from one stream,
``compositions``: for an affine symbol ``affine_compositions``, batched
Horner passes over the closed-form coefficients of phi^n, a bounded chunk of
n at a time; for a polynomial symbol the capped phi^n, one alive at a time.
Each product drops its trailing coefficients that are exactly
zero: in the usual case 1 - phi(z) = alpha (1 - z) with |alpha| < 1 the
high coefficients of w(n) underflow to 0.0, so a step costs O(nonzero
width), not O(n).  In doubles alpha^n is exactly 0.0 from a step
N0 ~ 745.13 / ln(1/|alpha|) on, and phi^n is then one constant map: the
factor stream repeats a single row [c, 0, ..., 0], and each later step
takes w(n) * c instead of a product wherever the bits agree.  Whether the
cap drops a term is not a per-step flag: ``first_capped`` decides it once
for a whole sequence.  ``weight_iterate_sequence`` stores the iterates in a
list, for callers that index them or read them twice.
"""

from __future__ import annotations

from itertools import islice, repeat

import numpy as np

from .series import (SHORT_FACTOR_TAPS, AnalyticPoly, coeff_product, compose_affine_rows,
                     trim_trailing_zeros)
from .spaces import BLOCK_BYTES
from .symbols import SelfMapSymbol, WeightSymbol

__all__ = ["affine_compositions", "compositions", "first_capped", "weight_iterate_sequence",
           "weight_iterates"]


def _require_iterable(phi: SelfMapSymbol, horizon: int) -> None:
    if not phi.validated:
        raise ValueError("self-map must pass validate_self_map before iteration")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def first_capped(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                 max_degree: int | None, f_degree: int = 0) -> int:
    """First n in 1..horizon where the cap drops a nonzero coefficient of
    w(n) * (f o phi^n) for an f of degree ``f_degree``; horizon + 1 if none.

    Leading coefficients multiply and never cancel, so the exact degree is
    deg f * d^n + deg w * (1 + d + ... + d^(n-1)) with d = deg phi, and a
    capped coefficient is nonzero exactly when that degree passes the cap.
    """
    if max_degree is None:
        return horizon + 1
    d, e = phi.degree, w.poly.trimmed().degree
    reach, w_degree = 1, 0  # d^n, saturated above the cap; deg w(n)
    for n in range(1, horizon + 1):
        w_degree += e * reach
        reach = min(reach * d, max_degree + 1)
        if f_degree * reach + w_degree > max_degree:
            return n
    return horizon + 1


def affine_compositions(f: AnalyticPoly, phi: SelfMapSymbol, horizon: int):
    """Stream the coefficients of f o phi^n for n = 1..horizon, affine phi.

    The coefficients of phi^n are those of ``SelfMapSymbol.iterate``; each
    chunk of n, at most about BLOCK_BYTES of output, is composed in one
    ``compose_affine_rows`` pass, and its rows are yielded read-only.  From
    the first n >= 2 with alpha_n exactly 0.0, phi^n is one constant map,
    whose row is composed once and yielded, as the same array, for every
    later n.
    """
    step = max(1, BLOCK_BYTES // (16 * len(f.coeffs)))
    for start in range(1, horizon + 1, step):
        alphas, gammas = phi.affine_coefficients(range(start, min(start + step, horizon + 1)))
        zero = np.flatnonzero((alphas == 0) & (np.arange(start, start + len(alphas)) >= 2))
        stop = zero[0] + 1 if len(zero) else len(alphas)
        chunk = compose_affine_rows(f, alphas[:stop], gammas[:stop])
        chunk.setflags(write=False)
        if len(zero):
            yield from chunk[:-1]
            yield from repeat(chunk[-1], horizon - start - stop + 2)
            return
        yield from chunk


def compositions(f: AnalyticPoly, phi: SelfMapSymbol, horizon: int,
                 max_degree: int | None = None):
    """Stream the coefficients of f o phi^n for n = 1..horizon.

    An affine phi takes ``affine_compositions``.  A polynomial phi needs
    ``max_degree``, checked when the stream is made: each capped phi^n of
    ``SelfMapSymbol.iterates`` is composed into f under the cap and
    dropped, so one phi^n is alive at a time.
    """
    if phi.kind == "affine":
        return affine_compositions(f, phi, horizon)
    return (it.compose_into(f, max_degree=max_degree).coeffs
            for it in islice(phi.iterates(horizon, max_degree), 1, None))


def _scalar(factor, current):
    """c if the product of ``current`` and the constant row [c, 0, ..., 0]
    may be taken as current * c, else None.

    The full product only adds exact zeros to those values, so they agree
    up to the sign of zero, except where ``np.convolve`` takes it with its
    own complex arithmetic, or where an inf meets a zero and makes NaN;
    |Re c| + |Im c| <= 1 keeps a finite ``current`` finite.
    """
    c = factor[0]
    ok = (not factor[1:].any() and abs(c.real) + abs(c.imag) <= 1
          and (c.imag == 0 or len(factor) <= SHORT_FACTOR_TAPS) and np.isfinite(current).all())
    return c if ok else None


def _steps(w: AnalyticPoly, factors, max_degree: int | None):
    """w(n) by w(n+1) = w(n) * (w o phi^n), each without its trailing exact
    zeros; a factor that the stream repeats multiplies as a scalar where
    ``_scalar`` allows."""
    yield w
    current, last, repeats, c = w.coeffs, None, False, None
    for factor in factors:
        if factor is not last:
            last, repeats, c = factor, False, None
        elif not repeats:
            repeats, c = True, _scalar(factor, current)
        current = coeff_product(current, factor) if c is None else current * c
        if max_degree is not None:
            current = current[: max_degree + 1]
        current = trim_trailing_zeros(current)
        yield AnalyticPoly._adopt(current)


def weight_iterates(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                    max_degree: int | None = None):
    """Stream w(n) for n = 1..horizon, one iterate alive at a time, capped
    at ``max_degree``; ``first_capped`` tells from which n the cap drops a
    nonzero coefficient.  The symbol is checked when the stream is made,
    not when it is first read.
    """
    _require_iterable(phi, horizon)
    wp = w.poly.trimmed()
    return _steps(wp, compositions(wp, phi, horizon - 1, max_degree), max_degree)


def weight_iterate_sequence(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                            max_degree: int | None = None) -> list[AnalyticPoly]:
    """The iterates of ``weight_iterates``, stored: w(n) is entry n - 1."""
    return list(weight_iterates(w, phi, horizon, max_degree))
