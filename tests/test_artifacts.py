"""The artifact writer: one CSV cell rule (``csv_line``) and one
header-then-lines file (``write_artifact``), checked byte for byte against
the formatting code it replaced."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from helpers import (
    reference_ablation_csv,
    reference_draws_text,
    reference_features_text,
    reference_histograms_text,
    reference_summary_text,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from splitread import cli, inference, selection
from splitread.dataset import csv_line, write_artifact
from splitread.inference import (
    CoefficientSummary,
    PosteriorDraws,
    PosteriorSummary,
    draws_to_csv,
)
from splitread.selection import ComparisonRow, ComparisonTable
from splitread.synth import make_demo_dataset

# Floats whose shortest repr is easy to get wrong: non-finite, signed
# zero, the smallest subnormal, and the exponent switches of repr.
SPECIAL = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e16,
    0.1, 1 / 3, -2.5, 1.7976931348623157e308, 1e-4, 1e15,
]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestCsvLine:
    def test_cell_rule(self):
        cells = ["t0", 3, np.int64(4), 0.5, np.float64(-0.0), np.float64(1e16), True]
        assert csv_line(cells) == "t0,3,4,0.5,-0.0,1e+16,True"

    @pytest.mark.parametrize("x", SPECIAL)
    def test_special_floats(self, x):
        expected = repr(x)
        assert csv_line([x]) == csv_line([np.float64(x)]) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False),
            st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64)),
        ),
        st.booleans(),
    )
    def test_floats_read_back_with_same_bits(self, x, as_numpy):
        if math.isnan(x):  # NaN payloads do not survive any text form
            assert csv_line([x]) == "nan"
            return
        value = np.float64(x) if as_numpy else float(x)
        assert _bits(float(csv_line([value]))) == _bits(float(x))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.integers(),
            st.integers(-(2**63), 2**63 - 1).map(np.int64),
            st.text(),
        )
    )
    def test_ints_and_strings_unchanged(self, value):
        assert csv_line([value]) == str(value)
        assert csv_line(["a", value]) == "a," + str(value)


class TestWriteArtifact:
    def test_header_then_lines_newline_ended(self, tmp_path):
        path = tmp_path / "out" / "a.csv"
        write_artifact(path, "# config", iter(["x,y", "1,2"]))
        assert path.read_bytes() == b"# config\nx,y\n1,2\n"
        write_artifact(path, "# config", [])
        assert path.read_bytes() == b"# config\n"
        assert [p.name for p in path.parent.iterdir()] == ["a.csv"]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return make_demo_dataset(
        tmp_path_factory.mktemp("artifacts"), n_triples=4, n_workers=2, seed=12
    )


def _run(command, tmp_path, data, *extra):
    """Run ``command`` and return (exit code, the run's config header)."""
    triples, judgments = data
    argv = [
        command,
        "--triples", str(triples),
        "--judgments", str(judgments),
        "--out", str(tmp_path / "out"),
        *extra,
    ]
    header = cli.load_config(cli.build_parser().parse_args(argv)).header()
    return cli.main(argv), header


def _read(tmp_path, name) -> str:
    return (tmp_path / "out" / name).read_bytes().decode("utf-8")


def _specials(shape) -> np.ndarray:
    return np.resize(np.array(SPECIAL), shape)


def test_features_csv_matches_reference(tmp_path, monkeypatch, data):
    header = ("triple_id", "side", "ted1", "ease")
    rows = [["t0", "a", x, np.float64(x)] for x in SPECIAL]
    monkeypatch.setattr(cli.ds, "extract_features", lambda *args: (header, rows))
    code, config_header = _run("extract", tmp_path, data)
    assert code == cli.EXIT_OK
    expected = reference_features_text(config_header, header, rows)
    assert _read(tmp_path, "features.csv") == expected


def test_fit_artifacts_match_reference(tmp_path, monkeypatch, data):
    names = ("intercept", "ted1", "split")
    draws = PosteriorDraws(
        names=names,
        draws=_specials((2, 5, len(names))),
        logp=_specials((2, 5))[:, ::-1],
        accept_rate=np.array([0.91, 0.8]),
        divergences=0,
        step_size=np.array([0.0125, 0.25]),
        grad_evals=np.array([640, 704]),
    )
    values = [float(x) for x in _specials(5 * len(names))]
    summary = PosteriorSummary(
        rows=tuple(
            CoefficientSummary(name, *values[5 * j: 5 * j + 5])
            for j, name in enumerate(names)
        ),
        histograms={
            name: (_specials(4 + j), np.arange(3 + j, dtype=np.int64) * 7)
            for j, name in enumerate(names)
        },
    )
    monkeypatch.setattr(inference, "sample_posterior", lambda *args: draws)
    monkeypatch.setattr(inference, "summarize", lambda d: summary)
    code, config_header = _run("fit", tmp_path, data)
    assert code in (cli.EXIT_OK, cli.EXIT_CONVERGENCE)
    assert _read(tmp_path, "summary.csv") == reference_summary_text(
        config_header, draws, summary
    )
    assert _read(tmp_path, "histograms.csv") == reference_histograms_text(
        config_header, summary
    )
    assert _read(tmp_path, "draws.csv") == reference_draws_text(draws, config_header)


def test_draws_to_csv_matches_reference(tmp_path):
    draws = PosteriorDraws(
        names=("intercept", "x1"),
        draws=_specials((3, 7, 2)),
        logp=-_specials((3, 7)),
        accept_rate=np.array([0.9, 0.9, 0.9]),
        divergences=0,
    )
    path = tmp_path / "draws.csv"
    draws_to_csv(draws, path, "# header")
    assert path.read_bytes().decode() == reference_draws_text(draws, "# header")


# ablation.txt for the table below: names left-aligned and numbers
# right-aligned to the widest cell, the flagged row marked and explained.
_ABLATION_TXT = [
    "predictor  rank  waic  p_waic  d_waic      se    dse",
    "full          1   nan     inf    -inf  -0.000  0.000",
    "fluency *     2   inf    -inf  -0.000   0.000  0.000",
    "split         3  -inf  -0.000   0.000   0.000  0.000",
    "* convergence flagged (some R-hat above 1.05)",
]


def test_ablation_artifacts_match_reference(tmp_path, monkeypatch, data):
    table = ComparisonTable(
        rows=tuple(
            ComparisonRow(name, rank, *SPECIAL[k: k + 5], converged=rank != 2)
            for k, (rank, name) in enumerate(
                [(1, "full"), (2, "fluency"), (3, "split")]
            )
        )
    )
    monkeypatch.setattr(selection, "ablate", lambda *args: table)
    code, config_header = _run("ablate", tmp_path, data, "--predictors", "fluency,split")
    assert code == cli.EXIT_OK
    csv_text = reference_ablation_csv(config_header, table)
    assert _read(tmp_path, "ablation.csv") == csv_text
    assert _read(tmp_path, "ablation.txt") == "\n".join([config_header, *_ABLATION_TXT, ""])
