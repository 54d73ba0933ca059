"""Experiment configuration and orchestration for the command-line surface.

A single ExperimentConfig describes symbols, space, truncation degree,
horizon, thresholds and candidate vectors; it round-trips losslessly
through JSON (schema_version 1).  The run_* helpers build the operator,
norm sequences and certificates used by the CLI subcommands and presets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, asdict

from .series import AnalyticPoly, binomial_series
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
    "run_classify",
    "run_sweep_cell",
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


def run_classify(config: ExperimentConfig) -> ClassifyResult:
    """Weight sequence, candidate orbits and both certificates for a config.

    Every candidate is checked for membership before any sequence is built.
    """
    op = build_operator(config)
    spec = config.space_spec()
    for c in config.candidates:
        require_in_space(spec, c["s"])
    cache = op.build_cache(config.horizon, max_degree=config.max_degree)
    weight_seq = weight_norm_sequence(cache, spec, sup_side=config.sup_side)
    orbits = [candidate_orbit(op, c, spec, config.degree, config.horizon, cache=cache)
              for c in config.candidates]
    li = certify_li_yorke(weight_seq, orbits, epsilon=config.epsilon,
                          growth_factor=config.growth_factor)
    mean = certify_mean_li_yorke(weight_seq, orbits, epsilon=config.epsilon,
                                 growth_factor=config.growth_factor)
    return ClassifyResult(config=config, weight_seq=weight_seq, orbit_seqs=orbits,
                          li_yorke=li, mean_li_yorke=mean)


def run_sweep_cell(args: tuple) -> dict:
    """One sweep cell; module-level so worker pools can pickle it.

    ``args`` is (kind, x, y, base_config_dict) where kind selects the grid
    axes: 'lambda-a' varies the weight scale and the symbol parameter,
    'p-beta' varies the Bergman space.
    """
    kind, x, y, base = args
    config = ExperimentConfig.from_dict(base)
    if kind == "lambda-a":
        config.weight = f"{x!r}*z"
        config.phi_affine = y
    elif kind == "p-beta":
        config.space = f"bergman:{x!r}:{y!r}"
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    result = run_classify(config)
    row = {"x": x, "y": y, "kind": kind,
           "li_kind": result.li_yorke.kind, "mean_kind": result.mean_li_yorke.kind,
           "li": result.li_yorke, "mean": result.mean_li_yorke}
    return row
