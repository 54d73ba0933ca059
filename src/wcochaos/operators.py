"""The weighted composition operator and its orbit norm sequences.

T f = w * (f o phi).  Powers are never applied step by step: the iterate
identity T^n f = w(n) * (f o phi^n) gives every orbit element from one
composition and one multiplication.  Nothing stores the iterates: every
routine reads each w(n) once, in order, from ``iterates.weight_iterates``,
and each f o phi^n from ``iterates.compositions``, the one stream of
compositions, which holds a single phi^n at a time.  Whether the degree cap
drops a term is decided once per sequence, by ``iterates.first_capped``.

Two orbit routines are provided.  ``orbit_norm_sequence`` follows a fixed
polynomial through the iterate identity.  ``eigen_orbit_norm_sequence``
tracks candidates of the form (1-z)^s * z^k for an affine symbol fixing
z = 1, where 1 - phi(z) = alpha (1 - z) turns the composition into the
exact factorization T^n (g_s z^k) = alpha^(ns) * w(n) * g_s * (phi^n)^k.
Truncating g_s once in that product keeps the relative representation error
uniform in n, whereas composing a truncated g_s directly loses the
eigen-behaviour as soon as |alpha|^n * deg falls below 1 (the iterated map
then no longer resolves the truncation scale).  The running product drops
its trailing zeros each step, and its factors come batched from
``iterates.compositions``.  From the step N0 where alpha^n
underflows to 0.0, both factors are constant rows, a step is a fixed map
of the product, and the product soon cycles: once it repeats one of the
last two bitwise, the stored terms and peaks are replayed and no product
is formed.

All three routines hand their polynomials to ``spaces.space_norms``,
which takes H^2, A^2_beta and H^inf norms one block of rows at a time and
returns both sides of the H^inf bracket.
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from dataclasses import dataclass

import numpy as np

from .iterates import compositions, first_capped, weight_iterates
from .series import AnalyticPoly, coeff_product, binomial_series, trim_trailing_zeros
from .spaces import SpaceSpec, require_in_space, space_norms, space_provenance
from .symbols import SelfMapSymbol, WeightSymbol

__all__ = [
    "WeightedCompOp",
    "NormSequence",
    "orbit_norm_sequence",
    "weight_norm_sequence",
    "eigen_orbit_norm_sequence",
]


@dataclass(frozen=True)
class WeightedCompOp:
    """Weighted composition operator f -> w * (f o phi) on disk polynomials."""

    w: WeightSymbol
    phi: SelfMapSymbol

    def __post_init__(self):
        if not self.phi.validated:
            raise ValueError("self-map must pass validate_self_map first")


@dataclass(frozen=True)
class NormSequence:
    """Finite norm sequence v_1..v_T with provenance bookkeeping.

    ``truncated`` marks values computed from capped arithmetic, which
    certificates keep out of their tests; ``provenance``, one of
    exact-coefficient, quadrature, bracket-lower, follows from it and the
    space.  ``upper`` is the upper side of the H^inf bracket, whose lower
    side is ``values``; elsewhere it is ``values`` itself, the same array.
    ``log_values``, when a producer tracks its scale in log space, holds
    log v_n even where v_n itself leaves the double range.
    """

    values: np.ndarray
    space: SpaceSpec
    label: str = ""
    truncated: bool = False
    log_values: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a norm sequence must hold at least one value")
        upper = arr if self.upper is None else np.asarray(self.upper, dtype=np.float64)
        if upper.shape != arr.shape:
            raise ValueError("upper must match values in length")
        for side in (arr,) if upper is arr else (arr, upper):
            if np.any(side < 0):
                raise ValueError("norms cannot be negative")
            nan = np.flatnonzero(np.isnan(side))
            if len(nan):
                raise ValueError(f"norm sequence {self.label!r} has its first NaN at "
                                 f"n={nan[0] + 1}: an iterate overflowed a double")
            side.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "upper", upper)
        if self.log_values is not None:
            logs = np.asarray(self.log_values, dtype=np.float64)
            if logs.shape != arr.shape:
                raise ValueError("log_values must match values in length")
            logs.setflags(write=False)
            object.__setattr__(self, "log_values", logs)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def provenance(self) -> str:
        return space_provenance(self.space, self.truncated)

    @property
    def horizon(self) -> int:
        return len(self.values)

    def value(self, n: int) -> float:
        """v_n with 1-based indexing."""
        if not 1 <= n <= len(self.values):
            raise ValueError(f"index {n} outside 1..{len(self.values)}")
        return float(self.values[n - 1])

    def log_norms(self) -> np.ndarray:
        """log v_n; -inf where v_n = 0."""
        if self.log_values is not None:
            return self.log_values
        with np.errstate(divide="ignore"):
            return np.log(self.values)


def weight_norm_sequence(op: WeightedCompOp, spec: SpaceSpec, horizon: int,
                         max_degree: int | None = None) -> NormSequence:
    """Norms of the weight iterates w(1..horizon); equals the orbit of the
    constant 1.

    Each w(n) is read once from ``iterates.weight_iterates``, into the blocks
    of ``spaces.space_norms``.
    """
    lower, upper = space_norms((wn.coeffs for wn in
                                weight_iterates(op.w, op.phi, horizon, max_degree)), spec)
    truncated = first_capped(op.w, op.phi, horizon, max_degree) <= horizon
    return NormSequence(values=lower, upper=upper, space=spec, label="weight-norm",
                        truncated=truncated)


def orbit_norm_sequence(op: WeightedCompOp, f: AnalyticPoly, spec: SpaceSpec,
                        horizon: int, max_degree: int | None = None) -> NormSequence:
    """Norms of T^n f = w(n) * (f o phi^n) for n = 1..horizon, each capped
    at ``max_degree``.

    w(n) and the coefficients of f o phi^n come from two streams, and both
    are dropped after their step.
    """
    steps = zip(weight_iterates(op.w, op.phi, horizon, max_degree),
                compositions(f, op.phi, horizon, max_degree))
    cap = None if max_degree is None else max_degree + 1
    lower, upper = space_norms((coeff_product(wn.coeffs, fn)[:cap] for wn, fn in steps), spec)
    degree = f.trimmed().degree
    truncated = first_capped(op.w, op.phi, horizon, max_degree, degree) <= horizon
    return NormSequence(values=lower, upper=upper, space=spec, label=f"orbit deg={degree}",
                        truncated=truncated)


def eigen_orbit_norm_sequence(op: WeightedCompOp, s, degree: int, spec: SpaceSpec,
                              horizon: int, power: int = 0) -> NormSequence:
    """Orbit norms of the candidate (1-z)^s * z^k through the closed form.

    Requires an affine symbol with fixed point 1, where f o phi^n has the
    exact form alpha^(ns) * (1-z)^s * (phi^n)^k, so the full orbit element is
    alpha^(ns) * w(n) * (1-z)^s * (phi^n)^k.  The binomial factor is
    truncated at ``degree`` once, outside the n-dependence; every reported
    value is the exact norm of that explicitly constructed polynomial.

    The candidate must lie in the space (see ``require_in_space``).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if power < 0:
        raise ValueError("monomial power must be nonnegative")
    phi = op.phi
    if not phi.fixes_one():
        raise ValueError("closed-form orbits need an affine symbol fixing z = 1")
    require_in_space(spec, s)

    mu = np.exp(complex(s) * np.log(phi.alpha))  # alpha^s, principal log
    log_mu = math.log(abs(mu))
    w = op.w.poly.trimmed()
    # Real data stay real: complex products of numbers with zero imaginary
    # parts give the same values at several times the cost.
    real = (complex(s).imag == 0 and not w.coeffs.imag.any()
            and phi.alpha.imag == 0 and phi.gamma.imag == 0)
    part = np.real if real else np.asarray
    g = part(binomial_series(s, degree).coeffs)
    w_factors = compositions(w, phi, horizon - 1)
    z_powers = compositions(AnalyticPoly.monomial(power), phi, horizon)

    def steps():
        """(orbit term n, log of the peak divided out of product n + 1), n = 1..horizon.

        The running polynomial is renormalized each step and the scale kept
        in log space: |mu|^n alone can overflow a double long before the
        orbit value itself does.  Once both factor streams repeat one
        constant row, a step is a fixed map of the product, so a product
        bitwise equal to one of the last two starts a cycle of the stored
        terms and peaks.
        """
        product = trim_trailing_zeros(coeff_product(g, part(w.coeffs)))  # w(1) * g
        last = []  # (product, term, log peak, w factor, z factor) of the latest two steps
        for n in range(1, horizon + 1):
            z = next(z_powers) if power else None
            term = coeff_product(product, part(z)) if power else product
            if n == horizon:
                yield term, 0.0
                return
            factor = next(w_factors)
            # A fresh array that only this loop holds, so it is scaled in place.
            c = coeff_product(product, part(factor))
            peak = float(np.abs(c).max())
            if peak > 0:
                c *= 1.0 / peak
            last = [*last[-1:], (product, term, math.log(peak) if peak > 0 else 0.0, factor, z)]
            yield last[-1][1:3]
            product = trim_trailing_zeros(c)
            if len(last) == 2 and last[0][3] is factor and last[0][4] is z:
                for period in (1, 2):
                    if np.array_equal(product.view(np.int64), last[-period][0].view(np.int64)):
                        yield from islice(cycle(st[1:3] for st in last[-period:]), horizon - n)
                        return

    log_scales = np.empty(horizon)

    def terms():
        log_scale = 0.0
        for n, (term, log_peak) in enumerate(steps(), start=1):
            log_scale += log_mu
            log_scales[n - 1] = log_scale
            yield term
            log_scale += log_peak

    def unscaled(nrm):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(nrm > 0, log_scales + np.log(nrm), -np.inf)
        # A value past the double range reads inf here; log_values keeps it,
        # and every output step refuses the inf.
        with np.errstate(over="ignore"):
            return logs, np.exp(logs)

    lower, upper = space_norms(terms(), spec)
    logs, vals = unscaled(lower)
    label = f"eigen-orbit s={s} k={power} D={degree}"
    return NormSequence(values=vals, upper=vals if upper is lower else unscaled(upper)[1],
                        space=spec, label=label,
                        truncated=False, log_values=logs)
