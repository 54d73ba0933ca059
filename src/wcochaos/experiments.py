"""Experiment configuration and orchestration for the command-line surface.

A single ExperimentConfig describes symbols, space, truncation degree,
horizon, thresholds and candidate vectors; it round-trips losslessly
through JSON (schema_version 1).  ``build_sequences`` builds the operator,
the weight norms and the candidate orbits; ``run_classify`` adds both
certificates, for the CLI subcommands and presets.

A ``lambda-a`` sweep varies w = lam z and phi = a z + 1 - a.  Every weight
iterate is then w(n) = lam^n w(n)|_{lam=1}, and every orbit element is
T_lam^n g = lam^n T_1^n g, so each norm, in every space and on both sides
of the H^inf bracket, is |lam|^n times its lam = 1 value:

    log v_n(lam) = n log|lam| + log v_n(1).

``sweep_task`` builds the lam = 1 sequences once per a and scales them in
log space for every lam of the column; only the certificates run per cell.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .series import AnalyticPoly, binomial_series
from .iterates import weight_iterates
from .symbols import SelfMapSymbol, WeightSymbol, affine_fixing_one, validate_self_map
from .spaces import SpaceSpec, parse_space, require_in_space
from .operators import (WeightedCompOp, NormSequence, orbit_norm_sequence,
                        weight_norm_sequence, eigen_orbit_norm_sequence)
from .chaos import (ChaosVerdict, certify_li_yorke, certify_mean_li_yorke,
                    DEFAULT_EPSILON, DEFAULT_GROWTH_FACTOR, DEFAULT_HORIZON)

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "parse_weight",
    "parse_candidate",
    "build_operator",
    "candidate_orbit",
    "build_sequences",
    "run_classify",
    "sweep_task",
    "ClassifyResult",
]

SCHEMA_VERSION = 1
DEFAULT_DEGREE = 1024


def _scalar(text: str):
    """Parse a real or complex scalar from CLI text."""
    t = text.strip().replace(" ", "")
    try:
        return float(t)
    except ValueError:
        return complex(t)


def parse_weight(text: str) -> AnalyticPoly:
    """Weight from CLI text: 'lam*z' literal, a comma list 'c0,c1,...' or a constant."""
    t = text.strip()
    m = re.fullmatch(r"(.+?)\*\s*z", t)
    if m:
        return AnalyticPoly([0.0, _scalar(m.group(1))])
    if "," in t:
        return AnalyticPoly([_scalar(p) for p in t.split(",")])
    return AnalyticPoly([_scalar(t)])


def parse_candidate(text: str) -> dict:
    """Candidate from CLI text 's=<scalar>[,k=<int>]'."""
    out = {"s": None, "k": 0}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key == "s":
            out["s"] = _scalar(val)
        elif key == "k":
            out["k"] = int(val)
        else:
            raise ValueError(f"unknown candidate field {key!r} in {text!r}")
    if out["s"] is None:
        raise ValueError(f"candidate {text!r} must set s=<exponent>")
    return out


def _num_to_json(x):
    if isinstance(x, complex):
        if x.imag == 0.0:
            return x.real
        return [x.real, x.imag]
    return x


def _num_from_json(x):
    if isinstance(x, list):
        return complex(x[0], x[1])
    return x


@dataclass
class ExperimentConfig:
    """Everything a run needs; serializes losslessly to JSON."""

    weight: str = "0.9*z"
    phi_affine: float | None = 0.25
    phi_poly: list | None = None
    space: str = "h2"
    degree: int = DEFAULT_DEGREE
    horizon: int = DEFAULT_HORIZON
    epsilon: float = DEFAULT_EPSILON
    growth_factor: float = DEFAULT_GROWTH_FACTOR
    candidates: list = field(default_factory=lambda: [{"s": -0.4, "k": 0}])
    max_degree: int | None = None
    sup_side: str = "lower"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["candidates"] = [{"s": _num_to_json(c["s"]), "k": c["k"]} for c in self.candidates]
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}")
        if "candidates" in d:
            d["candidates"] = [{"s": _num_from_json(c["s"]), "k": int(c.get("k", 0))}
                               for c in d["candidates"]]
        return cls(**d)

    def space_spec(self) -> SpaceSpec:
        return parse_space(self.space)


def build_operator(config: ExperimentConfig) -> WeightedCompOp:
    """Operator from a config; raises ValueError if the self-map fails validation."""
    w = WeightSymbol.build(parse_weight(config.weight))
    if config.phi_poly is not None:
        phi = SelfMapSymbol.polynomial(AnalyticPoly([_num_from_json(c) for c in config.phi_poly]))
    elif config.phi_affine is not None:
        phi = affine_fixing_one(config.phi_affine)
    else:
        raise ValueError("config must set phi_affine or phi_poly")
    if not validate_self_map(phi):
        raise ValueError("self-map validation failed: the symbol does not map "
                         "the disk into itself (boundary-grid check)")
    return WeightedCompOp(w, phi)


def candidate_orbit(op: WeightedCompOp, candidate: dict, spec: SpaceSpec,
                    degree: int, horizon: int, cache=None,
                    sup_side: str = "lower") -> NormSequence:
    """Orbit norm sequence for one (s, k) candidate.

    Symbols fixing z = 1 use the closed-form route, which keeps the
    truncation error of the candidate uniform in n; any other symbol falls
    back to the direct iterate identity on the truncated polynomial.
    """
    s, k = candidate["s"], candidate.get("k", 0)
    if op.phi.fixes_one():
        return eigen_orbit_norm_sequence(op, s, degree, spec, horizon,
                                         power=k, sup_side=sup_side)
    require_in_space(spec, s)
    f = binomial_series(s, degree) * AnalyticPoly.monomial(k)
    return orbit_norm_sequence(op, f, spec, horizon, cache=cache, sup_side=sup_side)


@dataclass
class ClassifyResult:
    config: ExperimentConfig
    weight_seq: NormSequence
    orbit_seqs: list
    li_yorke: ChaosVerdict
    mean_li_yorke: ChaosVerdict


def build_sequences(config: ExperimentConfig) -> tuple[NormSequence, list[NormSequence]]:
    """Weight norm sequence and candidate orbits for a config.

    Every candidate is checked for membership before any sequence is built.
    """
    op = build_operator(config)
    spec = config.space_spec()
    for c in config.candidates:
        require_in_space(spec, c["s"])
    # Maps fixing 1 take the closed-form orbit route, which needs no stored
    # iterates, so their weight norms stream; other maps share one cache.
    if op.phi.fixes_one():
        cache = None
        iterates = weight_iterates(op.w, op.phi, config.horizon, max_degree=config.max_degree)
    else:
        iterates = cache = op.build_cache(config.horizon, max_degree=config.max_degree)
    weight_seq = weight_norm_sequence(iterates, spec, sup_side=config.sup_side)
    orbits = [candidate_orbit(op, c, spec, config.degree, config.horizon, cache=cache)
              for c in config.candidates]
    return weight_seq, orbits


def _verdicts(config: ExperimentConfig, weight_seq: NormSequence,
              orbits: list) -> tuple[ChaosVerdict, ChaosVerdict]:
    """The Li-Yorke and mean Li-Yorke certificates of one set of sequences."""
    kw = {"epsilon": config.epsilon, "growth_factor": config.growth_factor}
    return (certify_li_yorke(weight_seq, orbits, **kw),
            certify_mean_li_yorke(weight_seq, orbits, **kw))


def run_classify(config: ExperimentConfig) -> ClassifyResult:
    """Weight sequence, candidate orbits and both certificates for a config."""
    weight_seq, orbits = build_sequences(config)
    li, mean = _verdicts(config, weight_seq, orbits)
    return ClassifyResult(config=config, weight_seq=weight_seq, orbit_seqs=orbits,
                          li_yorke=li, mean_li_yorke=mean)


def _scaled(seq: NormSequence, logs: np.ndarray, lam: float, a: float) -> NormSequence:
    """The lam = 1 sequence ``seq`` with log norms ``logs``, scaled to w = lam z."""
    if lam == 0:
        values = np.zeros(len(logs))
    else:
        n = np.arange(1, len(logs) + 1)
        with np.errstate(over="ignore"):
            values = np.exp(n * math.log(abs(lam)) + logs)
        inf = np.flatnonzero(np.isinf(values))
        if len(inf):
            raise ValueError(f"sweep cell lam={lam!r}, a={a!r}: {seq.label} overflows a "
                             f"double at n={inf[0] + 1}")
    return replace(seq, values=values, log_values=None)


def sweep_task(args: tuple) -> list[dict]:
    """Rows of one sweep task; module-level so worker pools can pickle it.

    ``args`` is (kind, xs, y, base_config_dict), and the rows hold the x,
    y and both verdicts of each cell (x, y) in the order of ``xs``.
    'lambda-a' takes a whole column: xs are the weight scales lam and y is
    the symbol parameter a; the lam = 1 sequences are built once and every
    lam scales them (see the module docstring).  'p-beta' takes one cell:
    xs is [p] and y is beta of the Bergman space.
    """
    kind, xs, y, base = args
    config = ExperimentConfig.from_dict(base)
    rows = []
    if kind == "lambda-a":
        if config.phi_poly is not None:
            raise ValueError("a lambda-a sweep varies the affine self-map a*z + 1 - a and "
                             "cannot use a polynomial self-map (--phi-poly or phi_poly)")
        if not xs:
            return rows
        config.weight, config.phi_affine = "1.0*z", y
        weight_seq, orbits = build_sequences(config)
        seqs = [weight_seq, *orbits]
        logs = [seq.log_norms() for seq in seqs]
        for lam in xs:
            scaled = [_scaled(seq, log, lam, y) for seq, log in zip(seqs, logs)]
            li, mean = _verdicts(config, scaled[0], scaled[1:])
            rows.append({"x": lam, "y": y, "li": li, "mean": mean})
    elif kind == "p-beta":
        for p in xs:
            config.space = f"bergman:{p!r}:{y!r}"
            result = run_classify(config)
            rows.append({"x": p, "y": y, "li": result.li_yorke, "mean": result.mean_li_yorke})
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    return rows
