"""A run's settings: the predictor battery, the feature, model and sampler
config types, and the one rule that checks a setting's type, which the
CLI's config check reads too. Imports only the standard library and ``errors``."""

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ValidationError

# Canonical predictor battery and its column order.
PREDICTORS = (
    "bart",
    "ted1",
    "ted2",
    "subset",
    "subtree",
    "overlap",
    "frazier",
    "yngve",
    "dep_length",
    "tnodes",
    "dale",
    "ease",
    "fk_grade",
    "grammar",
    "meaning",
    "fluency",
    "split",
    "samsa",
)


def _is_integer(value) -> bool:
    """An integer: any ``numbers.Integral`` (numpy's too), never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return real and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# What a setting must be, by the type of its default: (description, check).
# numpy's integers and floats pass, and a bool is neither.
TYPE_RULES = {int: ("an integer", _is_integer), float: ("a finite number", _is_number)}


def field_rules(config_type: type) -> dict[str, tuple]:
    """The type rule of each int- or float-default field, by field name."""
    kinds = {f.name: type(f.default) for f in fields(config_type)}
    return {name: TYPE_RULES[t] for name, t in kinds.items() if t in TYPE_RULES}


def check_unique_predictors(names: Sequence[str]) -> None:
    """Reject a predictor list that names a predictor twice."""
    repeated = sorted({p for p in names if names.count(p) > 1})
    if repeated:
        raise ValidationError(f"duplicate predictor names: {repeated}")


def _check_numbers(config) -> None:
    """Reject a setting of the wrong type, by ``field_rules``."""
    for name, (description, valid) in field_rules(type(config)).items():
        if not valid(getattr(config, name)):
            raise ValidationError(f"{name} must be {description}")


@dataclass(frozen=True)
class FeatureConfig:
    predictors: tuple[str, ...] = PREDICTORS
    kernel_sigma: float = 1.0
    word_list: str | None = None

    def __post_init__(self) -> None:
        _check_numbers(self)
        check_unique_predictors(self.predictors)
        unknown = [p for p in self.predictors if p not in PREDICTORS]
        if unknown:
            raise ValidationError(f"unknown predictors: {unknown}")
        if not self.kernel_sigma > 0:
            raise ValidationError("kernel_sigma must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Named predictors plus the one Normal(0, prior_sd) prior scale that
    every coefficient, intercept included, shares."""

    predictors: tuple[str, ...]
    prior_sd: float = 2.5

    def __post_init__(self) -> None:
        check_unique_predictors(self.predictors)
        if not (_is_number(self.prior_sd) and self.prior_sd > 0):
            raise ValidationError("prior_sd must be one positive finite number")
        # The log density divides by the square, which must be a normal float.
        sd = float(self.prior_sd)
        if not sys.float_info.min <= sd * sd <= sys.float_info.max:
            raise ValidationError(
                "prior_sd must lie between about 1.5e-154 and 1.3e154, "
                "where its square is a normal float"
            )

    def coefficient_names(self) -> tuple[str, ...]:
        return ("intercept", *self.predictors)


@dataclass(frozen=True)
class SamplerConfig:
    """The sampler settings. The CLI's ``sampler`` block takes these keys
    (and ``prior_sd``), checked by the types of their defaults, and its
    ``desk`` profile is their defaults."""

    chains: int = 4
    warmup: int = 1000
    draws: int = 1000
    seed: int = 20240501
    target_accept: float = 0.8
    num_steps: int = 32  # leapfrog path length, jittered +-20% per iteration

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.chains < 2:
            raise ValidationError("at least 2 chains are required for R-hat")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.warmup < 1 or self.draws < 2:
            raise ValidationError("need warmup >= 1 and draws >= 2")
        if not 0.0 < self.target_accept < 1.0:
            raise ValidationError("target_accept must lie in (0, 1)")
        if self.num_steps < 1:
            raise ValidationError("num_steps must be >= 1")
