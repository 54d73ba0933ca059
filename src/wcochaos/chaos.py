"""Finite-horizon statistics and chaos certificates.

A certificate never claims a limit: it reports threshold crossings inside
the computed horizon (decay below epsilon, growth beyond a factor G of the
first value) together with the witness indices, and the verdict kind is
either ..._EVIDENCE, NO_EVIDENCE or INCONCLUSIVE.

Soundness bookkeeping: a decay claim needs values that do not underestimate
the true norms, so the certificates refuse weight sequences computed from
capped arithmetic or tagged bracket-lower.  A growth claim compares max v_n
with the bar G*v_1 taken from the same sequence, so it needs a lower bound
above and an upper bound below; it is sound only for exact-coefficient or
quadrature values, and an orbit computed under a degree cap takes no part
in it.  In H^inf one bracket side still serves every channel,
so a growth claim there is not sound until each side is routed to the test
it bounds correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import binomial_series, compose_affine
from .spaces import SpaceSpec, SupSpace, require_in_space, space_norm
from .operators import NormSequence

__all__ = [
    "SequenceStats",
    "sequence_stats",
    "IrregularWitness",
    "irregular_witness",
    "DecayWitness",
    "GrowthWitness",
    "ChaosVerdict",
    "certify_li_yorke",
    "certify_mean_li_yorke",
    "growth_rate_fit",
    "eigen_residual",
    "fit_window",
    "decay_window",
]

DEFAULT_EPSILON = 1e-10
DEFAULT_GROWTH_FACTOR = 1e3
DEFAULT_HORIZON = 500

KIND_LI_YORKE = "LI_YORKE_EVIDENCE"
KIND_MEAN_LI_YORKE = "MEAN_LI_YORKE_EVIDENCE"
KIND_NONE = "NO_EVIDENCE"
KIND_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SequenceStats:
    """Exact prefix statistics of a norm sequence."""

    min_value: float
    argmin: int
    max_value: float
    argmax: int
    cesaro: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cesaro, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "cesaro", arr)


def _values(seq) -> np.ndarray:
    if isinstance(seq, NormSequence):
        return seq.values
    return np.asarray(seq, dtype=np.float64)


def sequence_stats(seq) -> SequenceStats:
    """Running min/max with indices plus the prefix Cesaro means A_N."""
    v = _values(seq)
    if v.size == 0:
        raise ValueError("empty sequence")
    cesaro = np.cumsum(v) / np.arange(1, len(v) + 1)
    return SequenceStats(
        min_value=float(v.min()),
        argmin=int(v.argmin()) + 1,
        max_value=float(v.max()),
        argmax=int(v.argmax()) + 1,
        cesaro=cesaro,
    )


@dataclass(frozen=True)
class IrregularWitness:
    """Finite-horizon irregularity check: min below epsilon, max above G*v1."""

    fired: bool
    argmin: int
    min_value: float
    argmax: int
    max_value: float


def irregular_witness(seq, epsilon: float, growth_factor: float) -> IrregularWitness:
    _check_thresholds(epsilon, growth_factor)
    v = _values(seq)
    stats = sequence_stats(v)
    fired = stats.min_value < epsilon and stats.max_value > growth_factor * v[0]
    return IrregularWitness(fired=fired, argmin=stats.argmin, min_value=stats.min_value,
                            argmax=stats.argmax, max_value=stats.max_value)


@dataclass(frozen=True)
class DecayWitness:
    index: int
    value: float


@dataclass(frozen=True)
class GrowthWitness:
    channel: str  # "weight-norm" or "orbit"
    orbit: int | None
    index: int
    value: float
    rate: float | None


@dataclass(frozen=True)
class ChaosVerdict:
    kind: str
    citation: str
    decay: DecayWitness | None
    growth: GrowthWitness | None
    epsilon: float
    growth_factor: float
    horizon: int


def _check_thresholds(epsilon: float, growth_factor: float) -> None:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not growth_factor > 1:
        raise ValueError("growth factor must exceed 1")


def fit_window(horizon: int) -> tuple[int, int]:
    """Tail window used for growth-rate fits: the last 40% of the horizon."""
    return max(1, math.ceil(0.6 * horizon)), horizon


def decay_window(horizon: int) -> tuple[int, int]:
    """Second-half window used by the averaged decay statistic."""
    return horizon // 2 + 1, horizon


def growth_rate_fit(seq, window: tuple[int, int]) -> float:
    """Least-squares slope of log v_n against n over a 1-based index window."""
    v = _values(seq)
    lo, hi = window
    if not (1 <= lo <= hi <= len(v)):
        raise ValueError("window must lie inside the sequence")
    if hi - lo + 1 < 8:
        raise ValueError("fit window must contain at least 8 values")
    vals = v[lo - 1 : hi]
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("growth rate fit needs strictly positive finite values")
    return float(np.polyfit(np.arange(lo, hi + 1), np.log(vals), 1)[0])


def _try_rate(values: np.ndarray) -> float | None:
    window = fit_window(len(values))
    try:
        return growth_rate_fit(values, window)
    except ValueError:
        return None


def _growth_scan(channels: list, growth_factor: float) -> GrowthWitness | None:
    """First channel whose maximum exceeds growth_factor times its first value.

    channels[0] is the weight-norm channel and channels[i] is orbit i - 1;
    a channel that is None is skipped.
    """
    for i, vals in enumerate(channels):
        if vals is None:
            continue
        st = sequence_stats(vals)
        if st.max_value > growth_factor * vals[0]:
            return GrowthWitness(channel="orbit" if i else "weight-norm",
                                 orbit=i - 1 if i else None, index=st.argmax,
                                 value=st.max_value, rate=_try_rate(vals))
    return None


# Per certificate: the citation for each outcome.
_CITATIONS = {
    KIND_LI_YORKE: {
        "weight-norm": "weight norms vanish along a subsequence and are unbounded",
        "orbit": "weight norms vanish along a subsequence; a candidate orbit shows the powers are unbounded",
        "decay": "decay witness only; no growth channel fired",
        "growth": "growth witness only; weight norms never fell below epsilon",
        "none": "all channels bounded by the growth factor and weight norms stay above epsilon",
    },
    KIND_MEAN_LI_YORKE: {
        "weight-norm": "averaged weight norms vanish over the tail and are unbounded",
        "orbit": "averaged weight norms vanish over the tail; a candidate orbit has unbounded Cesaro means",
        "decay": "averaged decay witness only; no growth channel fired",
        "growth": "averaged growth witness only; tail average never fell below epsilon",
        "none": "all averaged channels bounded and the tail average stays above epsilon",
    },
}


def _certify(evidence: str, weight_seq: NormSequence, orbit_seqs, epsilon: float,
             growth_factor: float) -> ChaosVerdict:
    """Both certificates; ``evidence`` names the one to run.

    The capped test comes first: capped H^2 sequences are also tagged
    bracket-lower, and the cap is the real cause.
    """
    _check_thresholds(epsilon, growth_factor)
    if weight_seq.truncated:
        raise ValueError("decay test refuses capped sequences "
                         "(partial-sum norms underestimate the true norms)")
    if weight_seq.provenance == "bracket-lower":
        raise ValueError("decay test refuses a bracket-lower weight sequence "
                         "(grid maxima underestimate the sup norm)")
    wv = weight_seq.values
    # A capped orbit's v_1 is a partial sum below the true norm, so the bar
    # G * v_1 proves nothing: such an orbit takes no part in the growth scan.
    channels = [wv] + [None if isinstance(o, NormSequence) and o.truncated else _values(o)
                       for o in orbit_seqs]
    if evidence == KIND_MEAN_LI_YORKE:
        lo, hi = decay_window(len(wv))
        decay_index, decay_value = lo, float(np.mean(wv[lo - 1 : hi]))
        channels = [None if v is None else sequence_stats(v).cesaro for v in channels]
    else:
        stats = sequence_stats(wv)
        decay_index, decay_value = stats.argmin, stats.min_value

    decay = DecayWitness(index=decay_index, value=decay_value) if decay_value < epsilon else None
    growth = _growth_scan(channels, growth_factor)
    citations = _CITATIONS[evidence]
    if decay and growth:
        kind, citation = evidence, citations[growth.channel]
    else:
        kind = KIND_INCONCLUSIVE if decay or growth else KIND_NONE
        citation = citations["decay" if decay else "growth" if growth else "none"]
    return ChaosVerdict(kind=kind, citation=citation, decay=decay, growth=growth,
                        epsilon=epsilon, growth_factor=growth_factor, horizon=len(wv))


def certify_li_yorke(weight_seq: NormSequence, orbit_seqs=(),
                     epsilon: float = DEFAULT_EPSILON,
                     growth_factor: float = DEFAULT_GROWTH_FACTOR) -> ChaosVerdict:
    """Certificate for irregular-orbit (Li-Yorke type) evidence.

    Decay channel: some weight norm falls below epsilon.  Growth channel:
    the weight norms, or some candidate orbit, exceed growth_factor times
    their first value; an orbit crossing certifies that the operator is not
    power bounded because ||T^n|| >= ||T^n f|| / ||f|| for every vector f.
    Both channels firing yields evidence; neither yields NO_EVIDENCE;
    exactly one is INCONCLUSIVE.
    """
    return _certify(KIND_LI_YORKE, weight_seq, orbit_seqs, epsilon, growth_factor)


def certify_mean_li_yorke(weight_seq: NormSequence, orbit_seqs=(),
                          epsilon: float = DEFAULT_EPSILON,
                          growth_factor: float = DEFAULT_GROWTH_FACTOR) -> ChaosVerdict:
    """Certificate for averaged (mean Li-Yorke type) evidence.

    Growth channel: the prefix Cesaro means A_N of the weight norms, or of a
    candidate orbit, exceed growth_factor times A_1.  Decay channel: the
    average of the weight norms over the second half of the horizon falls
    below epsilon.  The half-window average is used instead of min_N A_N
    because a positive prefix mean can never drop below v_1/N, which at
    practical horizons is far above any decay threshold; vanishing tail
    averages are equivalent to A_N -> 0 for nonnegative sequences.
    """
    return _certify(KIND_MEAN_LI_YORKE, weight_seq, orbit_seqs, epsilon, growth_factor)


def eigen_residual(a: float, s, spec: SpaceSpec, degree: int) -> float:
    """Relative residual of the eigen-relation for g_s = (1-z)^s.

    Computes ||g_s o phi_a - a^s g_s|| / ||g_s|| at truncation ``degree``,
    where phi_a(z) = a z + 1 - a; a^s uses the real logarithm of a.  The
    relation is exact for nonnegative integer s once degree >= s; otherwise
    the residual is a pure truncation tail and shrinks as degree grows.
    In the sup space the Wiener (coefficient absolute sum) upper bracket is
    used for both numerator and denominator.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("parameter a must lie in (0, 1)")
    require_in_space(spec, s)
    g = binomial_series(s, degree)
    image = compose_affine(g, a, 1.0 - a)
    mu = np.exp(complex(s) * math.log(a))
    diff = image - mu * g
    side = "upper" if isinstance(spec, SupSpace) else "lower"
    return space_norm(diff, spec, sup_side=side) / space_norm(g, spec, sup_side=side)
