"""The weighted composition operator and its orbit norm sequences.

T f = w * (f o phi).  Powers are never applied step by step: the closed
iterate identity T^n f = w(n) * (f o phi^n) gives every orbit element from
one composition and one multiplication against a shared weight-iterate
cache.  Weight norms need no cache: they read each w(n) once, in order,
from the streamed iterates.

Two orbit routines are provided.  ``orbit_norm_sequence`` follows a fixed
polynomial through the iterate identity.  ``eigen_orbit_norm_sequence``
tracks candidates of the form (1-z)^s * z^k for an affine symbol fixing
z = 1, where 1 - phi(z) = alpha (1 - z) turns the composition into the
exact factorization T^n (g_s z^k) = alpha^(ns) * w(n) * g_s * (phi^n)^k.
Truncating g_s once in that product keeps the relative representation error
uniform in n, whereas composing a truncated g_s directly loses the
eigen-behaviour as soon as |alpha|^n * deg falls below 1 (the iterated map
then no longer resolves the truncation scale).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .iterates import WeightIterateCache, first_capped, weight_iterate_sequence
from .series import AnalyticPoly, binomial_series, compose_affine
from .spaces import SpaceSpec, require_in_space, space_norm, space_provenance
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

    def build_cache(self, horizon: int, max_degree: int | None = None) -> WeightIterateCache:
        return weight_iterate_sequence(self.w, self.phi, horizon, max_degree=max_degree)

    def apply(self, f: AnalyticPoly, max_degree: int | None = None) -> AnalyticPoly:
        """Single application w * (f o phi)."""
        return self.w.poly * self.phi.compose_into(f, max_degree=max_degree)

    def apply_n(self, f: AnalyticPoly, n: int, cache: WeightIterateCache) -> AnalyticPoly:
        """n-th power via the iterate identity T^n f = w(n) * (f o phi^n)."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        if n == 0:
            return f
        if n > cache.horizon:
            raise ValueError(f"power {n} beyond cache horizon {cache.horizon}")
        comp = cache.symbol_iterate(n).compose_into(f, max_degree=cache.max_degree)
        out = cache.weight_iterate(n) * comp
        if cache.max_degree is not None:
            out = out.truncated(cache.max_degree)
        return out


@dataclass(frozen=True)
class NormSequence:
    """Finite norm sequence v_1..v_T with provenance bookkeeping.

    ``provenance`` is one of exact-coefficient, quadrature, bracket-lower,
    bracket-upper; ``truncated`` marks values computed from capped
    arithmetic.  Certificates consult both before trusting a decay claim.
    ``log_values``, when a producer tracks its scale in log space, holds
    log v_n even where v_n itself leaves the double range.
    """

    values: np.ndarray
    space: SpaceSpec
    provenance: str
    label: str = ""
    truncated: bool = False
    log_values: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a norm sequence must hold at least one value")
        if np.any(arr < 0):
            raise ValueError("norms cannot be negative")
        nan = np.flatnonzero(np.isnan(arr))
        if len(nan):
            raise ValueError(f"norm sequence {self.label!r} has its first NaN at n={nan[0] + 1}: "
                             "an iterate overflowed a double")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.log_values is not None:
            logs = np.asarray(self.log_values, dtype=np.float64)
            if logs.shape != arr.shape:
                raise ValueError("log_values must match values in length")
            logs.setflags(write=False)
            object.__setattr__(self, "log_values", logs)

    def __len__(self) -> int:
        return len(self.values)

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


def weight_norm_sequence(iterates: Iterable[tuple[AnalyticPoly, bool]], spec: SpaceSpec,
                         sup_side: str = "lower") -> NormSequence:
    """Norms of the weight iterates; equals the orbit of the constant 1.

    ``iterates`` yields (w(n), truncated) pairs in order: a stream from
    ``iterates.weight_iterates`` or a ``WeightIterateCache``.  Each
    w(n) is read once, and the last flag holds for the whole sequence.
    """
    vals, truncated = [], False
    for wn, truncated in iterates:
        vals.append(space_norm(wn, spec, sup_side=sup_side))
    return NormSequence(values=np.array(vals), space=spec,
                        provenance=space_provenance(spec, sup_side, truncated),
                        label="weight-norm", truncated=truncated)


def orbit_norm_sequence(op: WeightedCompOp, f: AnalyticPoly, spec: SpaceSpec,
                        horizon: int, cache: WeightIterateCache | None = None,
                        sup_side: str = "lower") -> NormSequence:
    """Norms of T^n f for n = 1..horizon via the iterate identity."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if cache is None:
        cache = op.build_cache(horizon)
    if cache.horizon < horizon:
        raise ValueError("cache horizon too small for requested orbit")
    vals = np.array([space_norm(op.apply_n(f, n, cache), spec, sup_side=sup_side)
                     for n in range(1, horizon + 1)])
    degree = f.trimmed().degree
    truncated = first_capped(op.w, op.phi, horizon, cache.max_degree, degree) <= horizon
    return NormSequence(values=vals, space=spec,
                        provenance=space_provenance(spec, sup_side, truncated),
                        label=f"orbit deg={degree}", truncated=truncated)


def eigen_orbit_norm_sequence(op: WeightedCompOp, s, degree: int, spec: SpaceSpec,
                              horizon: int, power: int = 0,
                              sup_side: str = "lower") -> NormSequence:
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

    alpha = phi.alpha
    mu = np.exp(complex(s) * np.log(alpha))  # alpha^s, principal log
    g = binomial_series(s, degree)
    z_power = AnalyticPoly.monomial(power)

    # The running polynomial is renormalized each step and the scale kept in
    # log space: |mu|^n alone can overflow a double long before the orbit
    # value itself does.
    logs = np.empty(horizon)
    log_scale = 0.0
    product = g * op.w.poly  # w(1) * g
    for n in range(1, horizon + 1):
        log_scale += math.log(abs(mu))
        it = phi.iterate(n)
        term = product
        if power:
            term = term * compose_affine(z_power, it.alpha, it.gamma)
        nrm = space_norm(term, spec, sup_side=sup_side)
        logs[n - 1] = log_scale + np.log(nrm) if nrm > 0 else -np.inf
        if n < horizon:
            product = product * compose_affine(op.w.poly, it.alpha, it.gamma)
            peak = float(np.max(np.abs(product.coeffs)))
            if peak > 0:
                product = (1.0 / peak) * product
                log_scale += math.log(peak)
    # A value past the double range reads inf here; log_values keeps it, and
    # every output step refuses the inf.
    with np.errstate(over="ignore"):
        vals = np.exp(logs)
    label = f"eigen-orbit s={s} k={power} D={degree}"
    return NormSequence(values=vals, space=spec,
                        provenance=space_provenance(spec, sup_side, False),
                        label=label, truncated=False, log_values=logs)
