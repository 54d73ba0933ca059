"""Weight iterates w(1), w(2), ... for a weight/self-map pair.

The n-th weight iterate is the product (w o phi^(n-1)) ... (w o phi) * w; it
governs the n-th operator power through the identity T^n f = w(n) * (f o
phi^n).  ``weight_iterates`` generates the sequence by the incremental
recurrence w(n+1) = w(n) * (w o phi^n), one composition per step instead of
the literal n-fold product, and holds only the current iterate.  That is the
default: weight norms read each w(n) once, in order.  Storing every w(n)
costs O(H^2) coefficients at horizon H, so ``weight_iterate_sequence``
materialises the stream into a ``WeightIterateCache`` only for the random
access of ``WeightedCompOp.apply_n``.
"""

from __future__ import annotations

from .series import AnalyticPoly
from .symbols import SelfMapSymbol, WeightSymbol

__all__ = ["WeightIterateCache", "first_capped", "weight_iterate_sequence", "weight_iterates"]


class WeightIterateCache:
    """Immutable store of weight iterates and symbol iterates up to a horizon.

    Built only where ``WeightedCompOp.apply_n`` needs w(n) and phi^n by
    index; sequential consumers stream ``weight_iterates`` instead.  For
    affine symbols everything is exact and deg w(n) = n * deg w; with a
    degree cap (mandatory for polynomial symbols) the stored coefficients are
    exact partial sums and ``truncated`` records that the cap dropped a
    nonzero coefficient, so that the sequence only bounds the true iterates
    from below in coefficient norms.  Iterating the
    cache yields (w(n), truncated) pairs, like ``weight_iterates``.
    """

    def __init__(self, w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                 weights: list[AnalyticPoly], symbol_iterates: list[SelfMapSymbol],
                 max_degree: int | None, truncated: bool):
        self.w = w
        self.phi = phi
        self.horizon = horizon
        self.max_degree = max_degree
        self.truncated = truncated
        self._weights = weights
        self._symbols = symbol_iterates

    def weight_iterate(self, n: int) -> AnalyticPoly:
        """w(n) for 1 <= n <= horizon."""
        if not 1 <= n <= self.horizon:
            raise ValueError(f"weight iterate index {n} outside 1..{self.horizon}")
        return self._weights[n - 1]

    def symbol_iterate(self, n: int) -> SelfMapSymbol:
        """phi^n for 0 <= n <= horizon."""
        if not 0 <= n <= self.horizon:
            raise ValueError(f"symbol iterate index {n} outside 0..{self.horizon}")
        return self._symbols[n]

    def __iter__(self):
        for wn in self._weights:
            yield wn, self.truncated

    def __len__(self) -> int:
        return self.horizon


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


def _steps(w: WeightSymbol, symbols: list[SelfMapSymbol], max_degree: int | None,
           capped_from: int):
    """(w(n), n >= capped_from) for n = 1..len(symbols)-1 by w(n+1) = w(n) * (w o phi^n)."""
    current = w.poly
    yield current, capped_from <= 1
    for n, it in enumerate(symbols[1:-1], start=2):
        current = current * it.compose_into(w.poly, max_degree=max_degree)
        if max_degree is not None and current.degree > max_degree:
            current = current.truncated(max_degree)
        yield current, n >= capped_from


def weight_iterates(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                    max_degree: int | None = None):
    """Stream (w(n), truncated) for n = 1..horizon, one iterate alive at a time.

    ``truncated`` turns true with the first iterate from which the cap drops
    a nonzero coefficient, of the product or of a symbol iterate it uses,
    and stays true.  The symbol is checked when the stream is made, not when
    it is first read.
    """
    _require_iterable(phi, horizon)
    return _steps(w, phi.iterates(horizon, max_degree), max_degree,
                  first_capped(w, phi, horizon, max_degree))


def weight_iterate_sequence(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                            max_degree: int | None = None) -> WeightIterateCache:
    """Store w(1)..w(horizon) and phi^0..phi^horizon for a validated self-map.

    Affine symbols run uncapped by default (the degree grows linearly);
    polynomial symbols require max_degree because their composition degree
    grows geometrically, and the result is marked truncated once the cap
    drops a nonzero coefficient of some w(n).
    """
    _require_iterable(phi, horizon)
    symbols = phi.iterates(horizon, max_degree)
    steps = list(_steps(w, symbols, max_degree, first_capped(w, phi, horizon, max_degree)))
    return WeightIterateCache(w=w, phi=phi, horizon=horizon,
                              weights=[wn for wn, _ in steps],
                              symbol_iterates=symbols, max_degree=max_degree,
                              truncated=steps[-1][1])
