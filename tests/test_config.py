"""The run's settings: one type rule, read by the CLI's config check and by
the library's config types alike."""

import ast
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from splitread import cli, config
from splitread.config import FeatureConfig, SamplerConfig
from splitread.errors import ValidationError

# Each int- or float-default field of a config type, with the CLI table
# that checks its JSON value.
_SETTINGS = [
    (config_type, f.name, table)
    for config_type, table in ((FeatureConfig, cli._CONFIG_KEYS),
                               (SamplerConfig, cli._SAMPLER_KEYS))
    for f in fields(config_type)
    if type(f.default) in (int, float)
]
_VALUES = [True, 3, 2.5, "3", None, math.nan, math.inf, -math.inf, 10**400,
           np.int64(3), np.float32(0.5), np.float64(8)]


@pytest.mark.parametrize(
    "config_type, name, table", _SETTINGS, ids=[name for _, name, _ in _SETTINGS]
)
def test_cli_check_and_library_type_share_one_rule(config_type, name, table):
    # The CLI rejects a value if and only if building the library type
    # raises exactly "<field> must be <description>". A value of the right
    # type may still fail a range check, with another message. NaN is not
    # a finite number, as it is not a positive kernel_sigma.
    description, valid = table[name]
    for value in _VALUES:
        try:
            config_type(**{name: value})
            message = None
        except ValidationError as exc:
            message = str(exc)
        assert (message == f"{name} must be {description}") == (not valid(value)), value


def test_config_imports_only_the_standard_library_and_errors():
    tree = ast.parse(Path(config.__file__).read_text("utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    relative = {name for name in imported if name.startswith(".")}
    absolute = {name.split(".")[0] for name in imported - relative}
    assert relative == {".errors"}
    assert absolute <= sys.stdlib_module_names  # numpy and splitread are not
