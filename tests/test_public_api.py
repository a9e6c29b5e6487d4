from __future__ import annotations

import splitread


def test_every_exported_name_resolves():
    missing = [name for name in splitread.__all__ if not hasattr(splitread, name)]
    assert missing == []
    assert len(set(splitread.__all__)) == len(splitread.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from splitread import *", namespace)
    assert set(splitread.__all__) <= set(namespace)
