"""Reference operator arithmetic for the tests, apart from the streamed paths.

``apply`` takes one step T f = w * (f o phi); ``apply_n`` forms T^n f from
the iterate identity w(n) * (f o phi^n), with phi^n from
``SelfMapSymbol.iterate``, so the streams of ``iterates.compositions`` can be
checked against it.
"""

import numpy as np

from wcochaos.iterates import weight_iterates
from wcochaos.series import AnalyticPoly
from wcochaos.symbols import SelfMapSymbol


def apply(op, f: AnalyticPoly, max_degree: int | None = None) -> AnalyticPoly:
    """Single application w * (f o phi)."""
    return op.w.poly * op.phi.compose_into(f, max_degree=max_degree)


def apply_n(op, f: AnalyticPoly, n: int, max_degree: int | None = None) -> AnalyticPoly:
    """n-th power w(n) * (f o phi^n), with w(n) and phi^n built for this n;
    a polynomial phi needs ``max_degree``, which also caps the result."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return f
    for wn in weight_iterates(op.w, op.phi, n, max_degree):
        pass  # the stream ends at w(n)
    out = wn * op.phi.iterate(n, max_degree).compose_into(f, max_degree=max_degree)
    return out if max_degree is None else out.truncated(max_degree)


def rotation(theta: float) -> SelfMapSymbol:
    """The rotation z -> e^(i theta) z, an isometry of every space here."""
    return SelfMapSymbol.affine(np.exp(1j * theta), 0.0)
