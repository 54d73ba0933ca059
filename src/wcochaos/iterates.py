"""Weight iterate sequences w(1), w(2), ... for a weight/self-map pair.

The n-th weight iterate is the product (w o phi^(n-1)) ... (w o phi) * w; it
governs the n-th operator power through the identity T^n f = w(n) * (f o
phi^n).  The cache builds the sequence by the incremental recurrence
w(n+1) = w(n) * (w o phi^n), one composition per step instead of the literal
n-fold product.
"""

from __future__ import annotations

from .series import AnalyticPoly
from .symbols import SelfMapSymbol, WeightSymbol

__all__ = ["WeightIterateCache", "weight_iterate_sequence"]


class WeightIterateCache:
    """Immutable store of weight iterates and symbol iterates up to a horizon.

    For affine symbols everything is exact and deg w(n) = n * deg w; with a
    degree cap (mandatory for polynomial symbols) the stored coefficients are
    exact partial sums and ``truncated`` records that the sequence only
    bounds the true iterates from below in coefficient norms.
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

    def __len__(self) -> int:
        return self.horizon


def weight_iterate_sequence(w: WeightSymbol, phi: SelfMapSymbol, horizon: int,
                            max_degree: int | None = None) -> WeightIterateCache:
    """Build w(1)..w(horizon) incrementally for a validated self-map.

    Affine symbols run uncapped by default (the degree grows linearly);
    polynomial symbols require max_degree because their composition degree
    grows geometrically, and the result is marked truncated.
    """
    if not phi.validated:
        raise ValueError("self-map must pass validate_self_map before iteration")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    symbols = phi.iterates(horizon, max_degree)
    truncated = phi.kind != "affine"
    weights = [w.poly]
    current = w.poly
    for n in range(1, horizon):
        shifted = symbols[n].compose_into(w.poly, max_degree=max_degree)
        current = current * shifted
        if max_degree is not None and current.degree > max_degree:
            current = current.truncated(max_degree)
            truncated = True
        weights.append(current)
    return WeightIterateCache(w=w, phi=phi, horizon=horizon, weights=weights,
                              symbol_iterates=symbols, max_degree=max_degree,
                              truncated=truncated)
