"""Self-maps of the unit disk and bounded analytic weights.

A symbol is either an affine map alpha*z + gamma (stored exactly as the
scalar pair) or a general polynomial.  Self-maps must pass
``validate_self_map``, a proof of the standing self-map hypothesis up to a
small slack, before operator constructors accept them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import AnalyticPoly, compose, compose_affine, eval_on_circle
from .spaces import MAX_ANGULAR_GRID, sup_norm_bracket

__all__ = [
    "SelfMapSymbol",
    "WeightSymbol",
    "affine_fixing_one",
    "validate_self_map",
]

DEFAULT_GRID = 256
SELF_MAP_SLACK = 1e-12


@dataclass
class SelfMapSymbol:
    """Analytic self-map candidate of the unit disk.

    kind is "affine" (exact scalar pair alpha, gamma) or "polynomial".
    ``validated`` is set by validate_self_map.
    """

    kind: str
    alpha: complex = 0.0
    gamma: complex = 0.0
    poly: AnalyticPoly | None = None
    validated: bool = field(default=False, compare=False)

    @classmethod
    def affine(cls, alpha, gamma) -> "SelfMapSymbol":
        return cls(kind="affine", alpha=complex(alpha), gamma=complex(gamma))

    @classmethod
    def polynomial(cls, poly: AnalyticPoly) -> "SelfMapSymbol":
        return cls(kind="polynomial", poly=poly)

    @classmethod
    def identity(cls) -> "SelfMapSymbol":
        return cls.affine(1.0, 0.0)

    def as_poly(self) -> AnalyticPoly:
        if self.kind == "affine":
            return AnalyticPoly([self.gamma, self.alpha])
        return self.poly

    def __call__(self, z):
        if self.kind == "affine":
            return self.alpha * z + self.gamma
        return self.poly(z)

    @property
    def degree(self) -> int:
        """Degree of phi as a function: 0 for a constant map, deg phi otherwise."""
        if self.kind == "affine":
            return 0 if self.alpha == 0 else 1
        return self.poly.trimmed().degree

    def fixes_one(self) -> bool:
        """True for affine maps with alpha + gamma = 1 (fixed point z = 1)."""
        if self.kind != "affine":
            return False
        return abs(self.alpha + self.gamma - 1.0) <= 1e-12 * (1.0 + abs(self.alpha) + abs(self.gamma))

    def iterate(self, n: int, max_degree: int | None = None) -> "SelfMapSymbol":
        """The n-fold iterate phi^n; a polynomial symbol takes the last of ``iterates``.

        Affine maps iterate in closed form: alpha**n together with
        gamma * (1 - alpha**n) / (1 - alpha) for alpha != 1 (and n*gamma when
        alpha == 1); a map fixing z = 1 keeps the form alpha**n, 1 - alpha**n.
        """
        if n < 0:
            raise ValueError("iterate count must be nonnegative")
        if self.kind != "affine":
            for it in self.iterates(n, max_degree):
                pass  # the stream ends at phi^n
            return it
        it = SelfMapSymbol.affine(*self._closed_form(n, self.fixes_one()))
        it.validated = self.validated
        return it

    def _closed_form(self, n: int, fixes_one: bool) -> tuple[complex, complex]:
        if n == 0:
            return 1.0, 0.0
        if n == 1:
            return self.alpha, self.gamma
        an = self.alpha**n
        if fixes_one:
            return an, 1.0 - an
        if self.alpha == 1.0:
            return an, n * self.gamma
        return an, self.gamma * (1.0 - an) / (1.0 - self.alpha)

    def affine_coefficients(self, ns: range) -> tuple[np.ndarray, np.ndarray]:
        """alpha_n and gamma_n of phi^n for every n in ``ns``, as ``iterate``
        computes them, without building a symbol per n.

        Once alpha**n underflows to exactly 0.0 for some n >= 2, the closed
        form no longer depends on n, and that pair fills the rest of an
        ascending ``ns``.
        """
        if self.kind != "affine":
            raise ValueError("only affine symbols iterate in closed form")
        fixes_one, pairs = self.fixes_one(), []
        for n in ns:
            pairs.append(self._closed_form(n, fixes_one))
            if n >= 2 and ns.step > 0 and pairs[-1][0] == 0:
                pairs += pairs[-1:] * (len(ns) - len(pairs))
                break
        pairs = np.array(pairs, dtype=np.complex128).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    def iterates(self, horizon: int, max_degree: int | None = None):
        """Stream phi^0, phi^1, ..., phi^horizon of a polynomial symbol, one
        alive at a time.

        Affine maps iterate in closed form (``iterate``, ``affine_coefficients``)
        and are refused here.  ``max_degree`` is required, checked when the
        stream is made, and the stream follows phi^(n+1) = phi o phi^n under
        the cap: with phi applied outermost, the terms a cap drops from phi^n
        only reach degrees above the cap, so every coefficient kept is an
        exact partial sum of the true iterate.
        """
        if horizon < 0:
            raise ValueError("iterate count must be nonnegative")
        if self.kind == "affine":
            raise ValueError("affine symbols iterate in closed form, not by recurrence")
        if max_degree is None:
            raise ValueError("polynomial symbols need an explicit degree cap to iterate "
                             "(--max-degree, or max_degree in a config)")
        return self._capped_iterates(horizon, max_degree)

    def _capped_iterates(self, horizon: int, max_degree: int):
        acc = self.poly
        for n in range(horizon + 1):
            if n > 1:
                acc = compose(self.poly, acc, max_degree=max_degree)
            it = (SelfMapSymbol.identity() if n == 0 else
                  SelfMapSymbol.polynomial(acc.truncated(max_degree)))
            it.validated = self.validated
            yield it

    def compose_into(self, f: AnalyticPoly, max_degree: int | None = None) -> AnalyticPoly:
        """f composed with this symbol, exact for affine symbols."""
        if self.kind == "affine":
            return compose_affine(f, self.alpha, self.gamma)
        return compose(f, self.poly, max_degree=max_degree)


def affine_fixing_one(a) -> SelfMapSymbol:
    """The affine self-map a*z + (1 - a), which fixes the boundary point 1."""
    return SelfMapSymbol.affine(a, 1.0 - complex(a))


def validate_self_map(phi: SelfMapSymbol) -> bool:
    """Check that phi maps the disk into itself; on success set ``validated``.

    Passes iff |phi(0)| < 1 and sup |phi| on the circle is proven at most
    1 + SELF_MAP_SLACK, a slack for maps like a*z + 1 - a whose coefficients
    sum to 1 only up to rounding.  The coefficient absolute sum proves it,
    exactly for affine maps; else Bernstein's inequality |p'| <= d ||p||_inf
    gives ||p||_inf <= max_grid / (1 - pi d/N) on an N-point boundary grid,
    N doubling from DEFAULT_GRID.  The nested grids' maxima never fall, so a
    maximum that leaves no N up to MAX_ANGULAR_GRID for the bound to pass
    refuses the map.
    """
    poly, bound = phi.as_poly(), 1.0 + SELF_MAP_SLACK
    ok, grid = poly.coeff_abs_sum() <= bound, DEFAULT_GRID
    slope = np.pi * phi.degree * bound  # N points prove the bound iff max_grid <= bound - slope/N
    while not ok:
        grid_max = float(np.max(np.abs(eval_on_circle(poly, grid))))
        if grid_max > bound - slope / MAX_ANGULAR_GRID:
            break
        ok, grid = grid_max <= bound - slope / grid, 2 * grid
    ok = ok and abs(phi(0.0)) < 1.0
    if ok:
        phi.validated = True
    return ok


@dataclass(frozen=True)
class WeightSymbol:
    """Bounded analytic weight with a two-sided sup-norm bracket.

    ``sup_lower`` is the maximum of |w| over a boundary grid (a valid lower
    bound by the maximum modulus principle), ``sup_upper`` the coefficient
    absolute sum.  Decay certificates need the upper bound, growth
    certificates the lower one.
    """

    poly: AnalyticPoly
    sup_lower: float
    sup_upper: float

    @classmethod
    def build(cls, poly: AnalyticPoly) -> "WeightSymbol":
        lower, upper = sup_norm_bracket(poly)
        return cls(poly=poly, sup_lower=lower, sup_upper=upper)

    @classmethod
    def from_coeffs(cls, coeffs) -> "WeightSymbol":
        return cls.build(AnalyticPoly(coeffs))
