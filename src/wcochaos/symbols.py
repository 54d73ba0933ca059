"""Self-maps of the unit disk and bounded analytic weights.

A symbol is either an affine map alpha*z + gamma (stored exactly as the
scalar pair) or a general polynomial.  Self-maps must be validated on a
boundary grid before they are accepted by operator constructors; validation
is a finite-grid test of the standing self-map hypothesis, not a proof, and
boundary-touching maps are admitted through a small slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import AnalyticPoly, compose, compose_affine, eval_on_circle

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
    ``validated`` is set by validate_self_map; ``approximate`` marks symbols
    produced by capped polynomial iteration.
    """

    kind: str
    alpha: complex = 0.0
    gamma: complex = 0.0
    poly: AnalyticPoly | None = None
    validated: bool = field(default=False, compare=False)
    approximate: bool = False

    @classmethod
    def affine(cls, alpha, gamma) -> "SelfMapSymbol":
        return cls(kind="affine", alpha=complex(alpha), gamma=complex(gamma))

    @classmethod
    def polynomial(cls, poly: AnalyticPoly, approximate: bool = False) -> "SelfMapSymbol":
        return cls(kind="polynomial", poly=poly, approximate=approximate)

    @classmethod
    def identity(cls) -> "SelfMapSymbol":
        return cls.affine(1.0, 0.0)

    @classmethod
    def rotation(cls, theta: float) -> "SelfMapSymbol":
        return cls.affine(np.exp(1j * theta), 0.0)

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

    def fixes_one(self, tol: float = 1e-12) -> bool:
        """True for affine maps with alpha + gamma = 1 (fixed point z = 1)."""
        if self.kind != "affine":
            return False
        return abs(self.alpha + self.gamma - 1.0) <= tol * (1.0 + abs(self.alpha) + abs(self.gamma))

    def iterate(self, n: int, max_degree: int | None = None) -> "SelfMapSymbol":
        """The n-fold iterate phi^n; polynomial symbols take it from ``iterates``.

        Affine maps iterate in closed form: alpha**n together with
        gamma * (1 - alpha**n) / (1 - alpha) for alpha != 1 (and n*gamma when
        alpha == 1); a map fixing z = 1 keeps the form alpha**n, 1 - alpha**n.
        """
        if n < 0:
            raise ValueError("iterate count must be nonnegative")
        if self.kind != "affine":
            return self.iterates(n, max_degree)[n]
        if n == 0:
            it = SelfMapSymbol.identity()
        elif n == 1:
            it = SelfMapSymbol.affine(self.alpha, self.gamma)
        else:
            an = self.alpha**n
            if self.fixes_one():
                gn = 1.0 - an
            elif self.alpha == 1.0:
                gn = n * self.gamma
            else:
                gn = self.gamma * (1.0 - an) / (1.0 - self.alpha)
            it = SelfMapSymbol.affine(an, gn)
        it.validated = self.validated
        return it

    def iterates(self, horizon: int, max_degree: int | None = None) -> list["SelfMapSymbol"]:
        """phi^0, phi^1, ..., phi^horizon.

        Affine maps use the closed form of ``iterate``.  Polynomial symbols
        need ``max_degree`` and follow phi^(n+1) = phi o phi^n under the cap:
        with phi applied outermost, the terms a cap drops from phi^n only
        reach degrees above the cap, so every stored coefficient is an exact
        partial sum of the true iterate.  They are flagged approximate.
        """
        if horizon < 0:
            raise ValueError("iterate count must be nonnegative")
        if self.kind == "affine":
            return [self.iterate(n) for n in range(horizon + 1)]
        if horizon and max_degree is None:
            raise ValueError("polynomial symbols need an explicit degree cap to iterate")
        out = [SelfMapSymbol.identity()]
        acc = self.poly
        for n in range(1, horizon + 1):
            if n > 1:
                acc = compose(self.poly, acc, max_degree=max_degree)
            out.append(SelfMapSymbol.polynomial(acc.truncated(max_degree), approximate=True))
        for it in out:
            it.validated = self.validated
        return out

    def compose_into(self, f: AnalyticPoly, max_degree: int | None = None) -> AnalyticPoly:
        """f composed with this symbol, exact for affine symbols."""
        if self.kind == "affine":
            return compose_affine(f, self.alpha, self.gamma)
        return compose(f, self.poly, max_degree=max_degree)


def affine_fixing_one(a) -> SelfMapSymbol:
    """The affine self-map a*z + (1 - a), which fixes the boundary point 1."""
    return SelfMapSymbol.affine(a, 1.0 - complex(a))


def validate_self_map(phi: SelfMapSymbol, grid_size: int = DEFAULT_GRID) -> bool:
    """Finite-grid check that phi maps the disk into itself.

    Passes iff the maximum of |phi| over the uniform boundary grid is at most
    1 + 1e-12 and |phi(0)| < 1.  The slack admits boundary-touching maps such
    as a*z + 1 - a.  On success the symbol's ``validated`` flag is set.
    """
    if grid_size < 64:
        raise ValueError("validation grid must have at least 64 points")
    boundary_max = float(np.max(np.abs(eval_on_circle(phi.as_poly(), grid_size))))
    ok = boundary_max <= 1.0 + SELF_MAP_SLACK and abs(phi(0.0)) < 1.0
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
    def build(cls, poly: AnalyticPoly, grid_size: int = DEFAULT_GRID) -> "WeightSymbol":
        lower = float(np.max(np.abs(eval_on_circle(poly, grid_size))))
        upper = poly.coeff_abs_sum()
        return cls(poly=poly, sup_lower=lower, sup_upper=upper)

    @classmethod
    def from_coeffs(cls, coeffs, grid_size: int = DEFAULT_GRID) -> "WeightSymbol":
        return cls.build(AnalyticPoly(coeffs), grid_size=grid_size)

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.sup_lower, self.sup_upper)
