from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from splitread.trees import parse_ptb

# Every run draws the same examples (each test keeps its max_examples), and
# no example database is read or written, so a failure is repeated by a rerun.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

FIG_TREE_TEXT = "(S (NP Vanya) (VP (V walks) (NP home)))"


@pytest.fixture
def fig_tree():
    """The three-word worked example tree."""
    return parse_ptb(FIG_TREE_TEXT)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)
