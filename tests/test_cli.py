from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from helpers import fresh_interpreter_env, nan_density_in_children, pin_lanes

from splitread import cli, inference, selection
from splitread.config import PREDICTORS, ModelSpec, SamplerConfig
from splitread.dataset import MAX_TREE_DEPTH
from splitread.inference import PosteriorDraws
from splitread.synth import make_demo_dataset


def _write_config(tmp_path, triples, judgments, out, **overrides):
    sampler = {
        "chains": 2,
        "warmup": 300,
        "draws": 300,
        "seed": 11,
        "num_steps": 32,
    }
    sampler.update(overrides.pop("sampler", {}))
    cfg = {
        "triples": str(triples),
        "judgments": str(judgments),
        "out": str(out),
        "sampler": sampler,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cliws")
    triples, judgments = make_demo_dataset(tmp / "data", n_triples=16, n_workers=5, seed=31)
    return tmp, triples, judgments


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


_MINIMAL_CONFIG = {"triples": "data/triples.jsonl", "judgments": "data/judgments.jsonl"}

# Every default the README's run.json example spells out.
_README_CONFIG = {
    **_MINIMAL_CONFIG,
    "out": "out",
    "word_list": None,
    "predictors": [
        "bart", "ted1", "ted2", "subset", "subtree", "overlap", "frazier",
        "yngve", "dep_length", "tnodes", "dale", "ease", "fk_grade",
        "grammar", "meaning", "fluency", "split", "samsa",
    ],
    "kernel_sigma": 1.0,
    "keep_punctuation": True,
    "layout": "long",
    "sampler": {
        "chains": 4, "warmup": 1000, "draws": 1000, "seed": 20240501,
        "target_accept": 0.8, "num_steps": 32, "prior_sd": 2.5,
    },
}


# What each top-level config key's error message says it expected.
_CONFIG_VALUE_EXPECTED = {
    "keep_punctuation": "true or false",
    "triples": "a string",
    "out": "a string",
    "word_list": "a string or null",
    "predictors": "a list of strings",
    "kernel_sigma": "a finite number",
    "layout": '"long"',
}

_TRIPLE = {
    "id": "t0",
    "source": {"text": "x y", "ptb": ["(S (NN x) (NN y))"]},
    "a": {"text": "x . y .", "ptb": ["(S (NN x)) (S (NN y))"], "origin": "human"},
    "b": {"text": "x . y . z .", "ptb": ["(S (NN x)) (S (NN y)) (S (NN z))"]},
}
_JUDGMENT = {
    "triple_id": "t0",
    "worker_id": "w0",
    "question": "A_vs_B",
    "choice": "first",
    "scores": {
        "a": {"grammar": 4, "meaning": 4, "fluency": 4},
        "b": {"grammar": 3, "meaning": 3, "fluency": 3},
    },
}


def _lines(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


_INPUTS = {"t.jsonl": _lines(_TRIPLE), "j.jsonl": _lines(_JUDGMENT)}
_BOTH = ["--triples", "t.jsonl", "--judgments", "j.jsonl"]


def _with_config(**values):
    """``_INPUTS`` and a config file ``c.json`` holding ``values``."""
    return {**_INPUTS, "c.json": json.dumps(values)}


def _no_input(*args, **kwargs):
    raise AssertionError("inputs read despite a failed check")


@pytest.fixture
def reject(tmp_path, capsys, monkeypatch):
    """The runner of every CLI rejection test.

    ``reject(argv, files, message)`` writes ``files`` (name: text or
    bytes) into the test's directory, runs ``cli.main(argv)`` there and
    checks:
    - the exit code ``code``, returned, or raised by argparse;
    - stderr: ``error: <message>`` (``i/o error:`` at exit 3) and a
      newline, after argparse's usage lines where it wrote them, compared
      whole, or with ``prefix`` only as far as ``message`` goes;
    - that no warning was issued and no file added under the directory;
    - unless ``reads``, that no triples were read (``ingest`` reads them
      through ``load_triples`` too).
    """
    monkeypatch.chdir(tmp_path)

    def run(argv, files, message, *, code=cli.EXIT_VALIDATION, reads=True, prefix=False):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data.encode() if type(data) is str else data)
        if not reads:
            monkeypatch.setattr(cli.ds, "load_triples", _no_input)
        before = sorted(tmp_path.rglob("*"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                exit_code = cli.main(argv)
            except SystemExit as exc:
                exit_code = exc.code
        assert exit_code == code
        err = capsys.readouterr().err
        if err.startswith("usage: splitread "):  # then "<prog>: error: <message>"
            err = "error: " + err.rpartition(": error: ")[2]
        expected = ("i/o error: " if code == cli.EXIT_IO else "error: ") + message
        if prefix:  # the rest is not splitread's wording
            err = err[: len(expected)]
        else:
            expected += "\n"
        assert err == expected
        assert [str(w.message) for w in caught] == []
        assert sorted(tmp_path.rglob("*")) == before

    return run


class TestConfigHeader:
    # Pinned values: the config hash must not drift when the config code
    # is reorganized, or reruns stop matching older artifacts.
    @pytest.mark.parametrize("data", [_MINIMAL_CONFIG, _README_CONFIG])
    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], "# splitread config=624d09a23b06 seed=20240501"),
            (["--seed", "7"], "# splitread config=686965c4c174 seed=7"),
            (["--profile", "paper"], "# splitread config=ef732a06287b seed=20240501"),
        ],
    )
    def test_golden_header(self, tmp_path, data, flags, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        args = cli.build_parser().parse_args(["fit", "--config", str(path), *flags])
        assert cli.load_config(args).header() == expected

    @pytest.mark.parametrize(
        "sampler, flags",
        [({}, []), ({"chains": 3, "warmup": 5, "draws": 7}, ["--profile", "desk"])],
        ids=["no-flag", "desk"],
    )
    def test_default_sampler_is_the_library_default(self, tmp_path, sampler, flags):
        # The CLI's sampler defaults, the seed among them, and the desk
        # profile are SamplerConfig's defaults.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sampler": sampler}), encoding="utf-8")
        args = cli.build_parser().parse_args(["fit", "--config", str(path), *flags])
        assert cli.load_config(args).sampler == SamplerConfig()


class TestExtract:
    def test_two_rows_per_triple(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "extract_out"
        config = _write_config(tmp, triples, judgments, out)
        assert cli.main(["extract", "--config", str(config)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0].startswith("# splitread config=")
        header = lines[1].split(",")
        assert header[:2] == ["triple_id", "side"]
        assert len(lines) == 2 + 2 * 16

    def test_rerun_byte_identical(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "extract_redo"
        config = _write_config(tmp, triples, judgments, out)
        assert cli.main(["extract", "--config", str(config)]) == 0
        first = _digest(out / "features.csv")
        assert cli.main(["extract", "--config", str(config)]) == 0
        assert _digest(out / "features.csv") == first

    def test_golden_features(self, tmp_path, monkeypatch):
        # Pinned before the cohesion predictors got per-tree caches, the
        # tightened Zhang-Shasha loop and the subtree kernel by counting:
        # no predictor value may move by a bit.
        monkeypatch.chdir(tmp_path)
        make_demo_dataset("data", n_triples=24, n_workers=7, seed=3)
        code = cli.main(["extract", "--triples", "data/triples.jsonl", "--out", "out"])
        assert code == 0
        assert _digest(tmp_path / "out" / "features.csv") == (
            "6a72c6a42b00c474e5e6f285672b19f604926590649471bfd1f9078d3c78a527"
        )

    def test_inputs_never_mutated(self, workspace):
        tmp, triples, judgments = workspace
        before = (_digest(triples), _digest(judgments))
        out = tmp / "extract_mut"
        config = _write_config(tmp, triples, judgments, out)
        cli.main(["extract", "--config", str(config)])
        cli.main(["report", "--config", str(config)])
        assert (_digest(triples), _digest(judgments)) == before


class TestFit:
    def test_artifacts_and_exit_code(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "fit_out"
        config = _write_config(tmp, triples, judgments, out)
        assert cli.main(["fit", "--config", str(config)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("# divergences=")
        assert summary[2] == "coefficient,mean,sd,hdi_low,hdi_high,rhat"
        assert len(summary) == 3 + 19  # intercept + 18 predictors
        assert (out / "draws.csv").exists()
        hist = (out / "histograms.csv").read_text().splitlines()
        assert hist[1] == "coefficient,bin_left,bin_right,count"
        name, left, right, count = hist[2].split(",")
        assert float(left) < float(right)
        assert int(count) >= 0
        assert "np.float" not in (out / "histograms.csv").read_text()

    def test_seed_flag_changes_hash_and_results(self, workspace):
        tmp, triples, judgments = workspace
        out_a = tmp / "fit_a"
        out_b = tmp / "fit_b"
        config_a = _write_config(tmp, triples, judgments, out_a)
        cli.main(["fit", "--config", str(config_a)])
        config_b = _write_config(tmp, triples, judgments, out_b)
        cli.main(["fit", "--config", str(config_b), "--seed", "99"])
        head_a = (out_a / "summary.csv").read_text().splitlines()[0]
        head_b = (out_b / "summary.csv").read_text().splitlines()[0]
        assert head_a != head_b
        assert "seed=11" in head_a and "seed=99" in head_b

    def test_convergence_gate_exit_code(self, workspace, monkeypatch):
        tmp, triples, judgments = workspace
        out = tmp / "fit_gate"
        config = _write_config(tmp, triples, judgments, out)
        monkeypatch.setattr(inference, "rhat", lambda chains: 2.0)
        assert cli.main(["fit", "--config", str(config)]) == cli.EXIT_CONVERGENCE

    @pytest.mark.parametrize("divergences, warned", [(0, False), (2, False), (3, True)])
    def test_divergence_warning_above_one_percent(
        self, workspace, monkeypatch, capsys, divergences, warned
    ):
        # 2 chains x 100 kept draws: 2 divergences are 1%, not above it.
        tmp, triples, judgments = workspace
        draws = PosteriorDraws(
            names=("intercept", "x1"),
            draws=np.random.default_rng(0).standard_normal((2, 100, 2)),
            logp=np.zeros((2, 100)),
            accept_rate=np.ones(2),
            divergences=divergences,
            step_size=np.ones(2),
            grad_evals=np.ones(2, dtype=int),
        )
        monkeypatch.setattr(cli, "_fit_matrix", lambda cfg: None)
        monkeypatch.setattr(inference, "sample_posterior", lambda *args: draws)
        config = _write_config(tmp, triples, judgments, tmp / "fit_divergences")
        assert cli.main(["fit", "--config", str(config)]) == cli.EXIT_OK
        warning = f"warning: {divergences} divergent transitions after warmup\n"
        assert capsys.readouterr().err == (warning if warned else "")

    def test_nan_rhat_is_the_max(self, workspace, monkeypatch, capsys):
        # A constant second coefficient has R-hat NaN, which max() would
        # skip after the intercept's number.
        tmp, triples, judgments = workspace
        values = np.random.default_rng(0).standard_normal((2, 100, 3))
        values[:, :, 1] = 0.5
        draws = PosteriorDraws(
            names=("intercept", "x1", "x2"),
            draws=values,
            logp=np.zeros((2, 100)),
            accept_rate=np.ones(2),
            divergences=0,
            step_size=np.ones(2),
            grad_evals=np.ones(2, dtype=int),
        )
        monkeypatch.setattr(cli, "_fit_matrix", lambda cfg: None)
        monkeypatch.setattr(inference, "sample_posterior", lambda *args: draws)
        out = tmp / "fit_nan_rhat"
        config = _write_config(tmp, triples, judgments, out)
        assert cli.main(["fit", "--config", str(config)]) == cli.EXIT_CONVERGENCE
        assert capsys.readouterr().out == f"wrote {out / 'summary.csv'} (max R-hat nan)\n"

    def test_zero_variance_column_named(self, tmp_path, reject):
        # bart never varies when every triple is human-origin.
        make_demo_dataset(tmp_path, n_triples=4, n_workers=2, seed=8, bart_fraction=0.0)
        argv = ["fit", "--triples", "triples.jsonl", "--judgments", "judgments.jsonl"]
        reject(argv, {}, "predictor 'bart' has zero variance")


class TestFitLanes:
    """Chains run in forked worker processes, one per usable CPU; nothing
    `fit` writes or prints may depend on how many there are."""

    def test_artifacts_independent_of_lanes(self, workspace, monkeypatch):
        tmp, triples, judgments = workspace
        artifacts = []
        out = tmp / "fit_lanes"  # one path: it is part of the config hash
        for lanes in (1, 2, 3):
            pin_lanes(monkeypatch, lanes)
            config = _write_config(
                tmp, triples, judgments, out,
                predictors=["fluency", "split", "ted1"],
                sampler={"chains": 3, "warmup": 150, "draws": 150},
            )
            assert cli.main(["fit", "--config", str(config)]) == 0
            artifacts.append(
                {
                    name: (out / name).read_bytes()
                    for name in ("summary.csv", "draws.csv", "histograms.csv")
                }
            )
        assert artifacts[1] == artifacts[0]
        assert artifacts[2] == artifacts[0]
        stats = artifacts[0]["summary.csv"].decode().splitlines()[1].split()
        assert [field.split("=")[0] for field in stats[1:]] == [
            "divergences", "accept_rate", "step_size", "grad_evals",
        ]
        per_chain = {k: v.split(",") for k, v in (f.split("=") for f in stats[2:])}
        assert all(len(values) == 3 for values in per_chain.values())
        assert all(float(e) > 0 for e in per_chain["step_size"])
        assert all(int(n) > 300 for n in per_chain["grad_evals"])

    def test_chain_error_in_worker_exits_validation(self, workspace, monkeypatch, capsys):
        tmp, triples, judgments = workspace
        nan_in_worker = nan_density_in_children(inference._logpost_arrays)
        monkeypatch.setattr(inference, "_logpost_arrays", nan_in_worker)
        pin_lanes(monkeypatch, 2)
        # Four chains: pair 1, chains 2 and 3, runs in the forked lane.
        config = _write_config(
            tmp, triples, judgments, tmp / "fit_worker_error", sampler={"chains": 4}
        )
        assert cli.main(["fit", "--config", str(config)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: log posterior is not finite at initialization\n"

    def test_ablation_independent_of_lanes(self, workspace, monkeypatch):
        tmp, triples, judgments = workspace
        out = tmp / "ablate_lanes"  # one path: it is part of the config hash
        config = _write_config(
            tmp, triples, judgments, out, sampler={"warmup": 50, "draws": 50}
        )
        argv = ["ablate", "--config", str(config), "--predictors", "fluency,split"]
        names = ("ablation.csv", "ablation.txt")
        written = []
        for lanes in (1, 2):
            pin_lanes(monkeypatch, lanes)
            assert cli.main(argv) == 0
            written.append([(out / name).read_bytes() for name in names])
        assert written[1] == written[0]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
class TestFitAffinity:
    def test_artifacts_independent_of_cpu_affinity(self, workspace):
        # As `taskset -c 0 splitread fit ...` runs it: pool.lanes reads the
        # affinity of a real process, here restricted to one CPU or not.
        tmp, triples, judgments = workspace
        out = tmp / "fit_affinity"  # one path: it is part of the config hash
        config = _write_config(
            tmp, triples, judgments, out,
            predictors=["fluency", "split", "ted1"],
            sampler={"chains": 4, "warmup": 100, "draws": 100},
        )
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from splitread import cli, pool\n"
            "print(pool.lanes(2))\n"  # the lanes of four chains' two pairs
            "sys.exit(cli.main(['fit', '--config', sys.argv[2]]))"
        )
        lanes, artifacts = [], []
        for affinity in ("pinned", "unrestricted"):
            result = subprocess.run(
                [sys.executable, "-c", code, affinity, str(config)],
                env=fresh_interpreter_env(), cwd=tmp, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            lanes.append(int(result.stdout.splitlines()[0]))
            artifacts.append(
                {
                    name: (out / name).read_bytes()
                    for name in ("summary.csv", "draws.csv", "histograms.csv")
                }
            )
        assert lanes[0] == 1
        assert lanes[1] == min(2, len(os.sched_getaffinity(0)))
        assert artifacts[1] == artifacts[0]


class TestExtractLanes:
    def test_features_independent_of_lanes(self, workspace, monkeypatch):
        tmp, triples, _ = workspace
        out = tmp / "extract_lanes"  # one path: it is part of the config hash
        written = []
        for lanes in (1, 2, 3):
            pin_lanes(monkeypatch, lanes)
            args = ["extract", "--triples", str(triples), "--out", str(out)]
            assert cli.main(args) == 0
            written.append((out / "features.csv").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]


    def test_warnings_shown_once_for_any_lane_count(self, tmp_path):
        # Two triples whose side a ends in a punctuation-only sentence warn
        # at the same line; each forked lane once kept its own registry.
        make_demo_dataset(tmp_path / "data", n_triples=4, n_workers=2, seed=1)
        triples = tmp_path / "data" / "triples.jsonl"
        records = [json.loads(line) for line in triples.read_text("utf-8").splitlines()]
        for record in records[:2]:
            record["a"]["ptb"][1] = "(S (. .))"
            first = record["conllu"]["a"].split("\n\n")[0]
            record["conllu"]["a"] = first + "\n\n1\t.\t_\t_\t_\t_\t0\troot\t_\t_\n"
        triples.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        code = (
            "import sys\n"
            "from splitread import cli, pool\n"
            "pool.lanes = lambda jobs: int(sys.argv[1])\n"
            "sys.exit(cli.main(['extract', '--triples', sys.argv[2], '--out', 'out']))"
        )
        stderr = []
        for lanes in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", code, lanes, str(triples)],
                env=fresh_interpreter_env(), cwd=tmp_path, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            stderr.append(result.stderr)
        assert stderr[0].count("DegenerateInputWarning: overlap on an empty") == 1
        assert stderr[1] == stderr[0]


class TestAblate:
    def test_predictor_subset(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "ablate_out"
        config = _write_config(
            tmp, triples, judgments, out, sampler={"warmup": 150, "draws": 150}
        )
        code = cli.main(
            ["ablate", "--config", str(config), "--predictors", "fluency,split"]
        )
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 2 + 3  # header comment + csv header + base + 2 ablations
        assert (out / "ablation.txt").exists()

    def test_unreliable_waic_warned_on_stderr_only(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        tmp, triples, judgments = workspace
        out = tmp_path / "out"
        config = _write_config(
            tmp_path, triples, judgments, out, sampler={"warmup": 30, "draws": 30}
        )
        argv = ["ablate", "--config", str(config), "--predictors", "fluency,split"]
        names = ("ablation.csv", "ablation.txt")
        assert cli.main(argv) == 0
        assert "warning" not in capsys.readouterr().err
        written = [(out / name).read_bytes() for name in names]
        # Every row with any posterior variance now counts as unreliable.
        monkeypatch.setattr(selection, "P_WAIC_LIMIT", 0.0)
        assert cli.main(argv) == 0
        warned = capsys.readouterr().err.splitlines()
        assert sorted(line.split(":")[1] for line in warned) == [
            " base", " fluency", " split"
        ]
        assert all(
            line.startswith("warning: ")
            and line.endswith(" rows; its WAIC may be unreliable")
            for line in warned
        )
        assert [(out / name).read_bytes() for name in names] == written

    def test_reduced_battery(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "ablate_reduced"
        config = _write_config(
            tmp, triples, judgments, out, sampler={"warmup": 150, "draws": 150}
        )
        code = cli.main(["ablate", "--config", str(config), "--reduced"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 2 + 7  # base + 6 ablations


class TestAblateArguments:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--predictors", ""], "argument --predictors: no predictor named in ''"),
            (["--predictors", ","], "argument --predictors: no predictor named in ','"),
            (
                ["--reduced", "--predictors", "fluency,split"],
                "argument --predictors: not allowed with argument --reduced",
            ),
            (
                ["--predictors", "fluency,split,fluency"],
                "argument --predictors: duplicate predictor names: ['fluency']",
            ),
        ],
        ids=["empty", "comma", "reduced", "duplicate"],
    )
    def test_rejected_before_input_read(self, reject, flags, message):
        reject(["ablate", *_BOTH, *flags], _INPUTS, message, reads=False)

    @pytest.mark.parametrize(
        "flags, config, missing",
        [
            (["--predictors", "nope,split"], {}, "['nope']"),
            (
                ["--reduced"],
                {"predictors": ["grammar", "meaning", "fluency", "split"]},
                "['ease', 'fk_grade']",
            ),
        ],
        ids=["unknown", "reduced"],
    )
    def test_unconfigured_predictor_rejected_before_input_read(
        self, reject, flags, config, missing
    ):
        argv = ["ablate", "--config", "c.json", *_BOTH, *flags]
        message = f"predictors not in the design matrix: {missing}"
        reject(argv, _with_config(**config), message, reads=False)

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--predictors", "fluency"], {}),
            ([], {"predictors": ["fluency"]}),
            ([], {"predictors": []}),
        ],
        ids=["flag", "config-one", "config-none"],
    )
    def test_too_few_predictors_rejected_before_input_read(self, reject, flags, config):
        argv = ["ablate", "--config", "c.json", *_BOTH, *flags]
        message = "ablation needs at least 2 predictors"
        reject(argv, _with_config(**config), message, reads=False)


class TestConfiguredPrior:
    # sampler.prior_sd in the config is the prior of every model fitted.
    @pytest.mark.parametrize(
        "argv, fitter, predictors",
        [
            (["fit"], "inference.sample_posterior", PREDICTORS),
            (
                ["ablate", "--predictors", "fluency,split"],
                "selection.ablate",
                ("fluency", "split"),
            ),
            (["ablate", "--reduced"], "selection.ablate", cli.REDUCED_PREDICTORS),
        ],
        ids=["fit", "ablate-predictors", "ablate-reduced"],
    )
    def test_reaches_the_model_spec(
        self, workspace, tmp_path, monkeypatch, argv, fitter, predictors
    ):
        tmp, triples, judgments = workspace
        config = _write_config(
            tmp_path, triples, judgments, tmp_path / "out", sampler={"prior_sd": 0.5}
        )
        specs = []

        class Captured(Exception):
            pass

        def capture(matrix, spec, sampler):
            specs.append(spec)
            raise Captured

        monkeypatch.setattr(f"splitread.{fitter}", capture)
        with pytest.raises(Captured):
            cli.main([argv[0], "--config", str(config), *argv[1:]])
        assert specs == [ModelSpec(predictors, prior_sd=0.5)]


class TestReport:
    def test_report_blocks(self, workspace):
        tmp, triples, judgments = workspace
        out = tmp / "report_out"
        config = _write_config(tmp, triples, judgments, out)
        assert cli.main(["report", "--config", str(config)]) == 0
        text = (out / "report.txt").read_text()
        assert "<S, BART-A>" in text
        assert "<BART-A, HUM-B>" in text
        assert "<HUM-A, HUM-B>" in text
        assert "category | HUM-A | HUM-B" in text
        assert "category | BART-A | HUM-B" in text

    def test_report_row_format(self, workspace, tmp_path):
        # Engineered counts: the layout prints count (share) cells.
        tmp, triples, judgments = workspace
        out = tmp_path / "report_fmt"
        config = _write_config(tmp, triples, judgments, out)
        cli.main(["report", "--config", str(config)])
        text = (out / "report.txt").read_text()
        import re

        rows = re.findall(r"\| \d+ \(\d\.\d{2}\) ", text)
        assert rows

    def test_report_reproduces_engineered_tallies(self, tmp_path):
        # Full-scale rehearsal of the published tally layout: 113 + 108
        # triples, 7 workers, choice counts fixed per question and origin.
        tree_a = "(S (NN x)) (S (NN y))"
        tree_b = "(S (NN x)) (S (NN y)) (S (NN z))"
        counts = {
            ("bart", "S_vs_A"): (254, 527, 10),
            ("bart", "S_vs_B"): (290, 490, 11),
            ("bart", "A_vs_B"): (460, 316, 15),
            ("human", "S_vs_A"): (253, 494, 9),
            ("human", "S_vs_B"): (288, 463, 5),
            ("human", "A_vs_B"): (439, 301, 16),
        }
        choice_lists = {
            key: ["first"] * f + ["second"] * s + ["not_sure"] * n
            for key, (f, s, n) in counts.items()
        }
        triple_lines, judgment_lines = [], []
        cursor = {key: 0 for key in counts}
        for i in range(221):
            tid = f"t{i:04d}"
            origin = "bart" if i < 113 else "human"
            triple_lines.append(
                json.dumps(
                    {
                        "id": tid,
                        "source": {"text": "x y", "ptb": ["(S (NN x) (NN y))"]},
                        "a": {"text": "x . y .", "ptb": [tree_a], "origin": origin},
                        "b": {"text": "x . y . z .", "ptb": [tree_b]},
                    }
                )
            )
            for w in range(7):
                grammar = 4 + (w % 2)
                meaning = 3 + (w % 3 == 0)
                scores = {
                    "a": {"grammar": grammar, "meaning": meaning, "fluency": 4 + (w % 2)},
                    "b": {"grammar": grammar, "meaning": meaning, "fluency": 3 + (w % 2)},
                }
                for question in ("S_vs_A", "S_vs_B", "A_vs_B"):
                    key = (origin, question)
                    choice = choice_lists[key][cursor[key]]
                    cursor[key] += 1
                    judgment_lines.append(
                        json.dumps(
                            {
                                "triple_id": tid,
                                "worker_id": f"w{w}",
                                "question": question,
                                "choice": choice,
                                "scores": scores,
                            }
                        )
                    )
        triples = tmp_path / "triples.jsonl"
        judgments = tmp_path / "judgments.jsonl"
        triples.write_text("\n".join(triple_lines) + "\n", encoding="utf-8")
        judgments.write_text("\n".join(judgment_lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        config = _write_config(tmp_path, triples, judgments, out)
        assert cli.main(["report", "--config", str(config)]) == 0
        text = (out / "report.txt").read_text()
        assert "254 (0.32) | 527 (0.67) | 10 (0.01) | 791" in text
        assert "290 (0.37) | 490 (0.62) | 11 (0.01) | 791" in text
        assert "460 (0.58) | 316 (0.40) | 15 (0.02) | 791" in text
        assert "253 (0.33) | 494 (0.65) | 9 (0.01) | 756" in text
        assert "288 (0.38) | 463 (0.61) | 5 (0.01) | 756" in text
        assert "439 (0.58) | 301 (0.40) | 16 (0.02) | 756" in text
        assert "**fluency" in text

    def test_empty_origin_subset_omitted(self, workspace, tmp_path):
        t2, j2 = make_demo_dataset(
            tmp_path / "allbart", n_triples=4, n_workers=2, seed=8, bart_fraction=1.0
        )
        out = tmp_path / "report_empty"
        config = _write_config(tmp_path, t2, j2, out)
        assert cli.main(["report", "--config", str(config)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        # The manual-origin tallies and score table have no judgments.
        for label in ("<S, HUM-A>", "<S, HUM-B>", "<HUM-A, HUM-B>"):
            assert f"(no responses for {label}; table omitted)" in lines
        # The model-output <S, HUM-B> tally has responses; only the manual
        # one is omitted.
        assert lines.count("(no responses for <S, HUM-B>; table omitted)") == 1
        assert lines.count("(no responses; table omitted)") == 1

    def test_constant_score_group_prints_no_warning(self, tmp_path, monkeypatch):
        # HUM-A fluency is 3.00 (0.00) here; scipy warns about precision
        # loss in its moments, yet Welch's t is defined since HUM-B varies.
        monkeypatch.chdir(tmp_path)
        make_demo_dataset("data", n_triples=4, n_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["report", "--triples", "data/triples.jsonl",
                 "--judgments", "data/judgments.jsonl", "--out", "out"]
            )
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "**fluency | 3.00 (0.00) | 4.75 (0.50)" in text
        # Measured before the warning was filtered: the same bytes.
        assert _digest(tmp_path / "out" / "report.txt") == (
            "3c58f46f9128c3d0ea43bada775b43ad76ce371b95950138d29ab1f28ee59bb2"
        )

    def test_one_observation_origin_omits_its_table(self, tmp_path, monkeypatch):
        # One bart and one human triple, one worker: each origin has a single
        # score observation, too few for Welch's test.
        monkeypatch.chdir(tmp_path)
        make_demo_dataset("data", n_triples=2, n_workers=1, seed=4)
        code = cli.main(
            ["report", "--triples", "data/triples.jsonl",
             "--judgments", "data/judgments.jsonl", "--out", "out"]
        )
        assert code == 0
        text = (tmp_path / "out" / "report.txt").read_text()
        omitted = (
            "(grammar: need at least 2 observations per group for a t-test; "
            "table omitted)"
        )
        assert text.count(omitted) == 2
        assert "category |" not in text
        assert "<S, BART-A> | 0 (0.00) | 1 (1.00) | 0 (0.00) | 1" in text


class TestErrors:
    @pytest.mark.parametrize(
        "argv, message, prefix",
        [
            (["fit", "--seed", "abc"], "argument --seed: invalid int value: 'abc'", False),
            (["fit", "--bogus"], "unrecognized arguments: --bogus", False),
            # The list of choices that follows is argparse's wording.
            (["fit", "--profile", "huge"], "argument --profile: invalid choice: 'huge'", True),
            (["bogus"], "argument command: invalid choice: 'bogus'", True),
        ],
        ids=["seed", "unknown-flag", "profile", "subcommand"],
    )
    def test_usage_error_exits_validation(self, reject, argv, message, prefix):
        # Exit 2 is reserved for the convergence gate.
        reject(argv, {}, message, prefix=prefix)

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--help"])
        assert exc.value.code == cli.EXIT_OK
        assert "--profile" in capsys.readouterr().out

    # Python's json module words the rest of these messages.
    def test_bad_config_json(self, reject):
        argv = ["extract", "--config", "c.json"]
        reject(argv, {"c.json": "{"}, "config file is not valid JSON: ", prefix=True)

    def test_config_integer_past_digit_limit(self, reject):
        files = {"c.json": '{"kernel_sigma": ' + "1" * 5000 + "}"}
        argv = ["extract", "--config", "c.json"]
        reject(argv, files, "config file is not valid JSON: ", prefix=True)

    def test_config_nested_past_recursion_limit(self, reject):
        files = {"c.json": '{"sampler": ' + "[" * 100000 + "]" * 100000 + "}"}
        argv = ["extract", "--config", "c.json"]
        reject(argv, files, "config file is not valid JSON: ", prefix=True)

    @pytest.mark.parametrize("name", ["triples", "judgments"])
    def test_input_nested_past_recursion_limit(self, reject, name):
        path = {"triples": "t.jsonl", "judgments": "j.jsonl"}[name]
        files = {**_INPUTS, path: '{"id": "x", "n": ' + "[" * 100000 + "]" * 100000 + "}\n"}
        reject(["report", *_BOTH], files, f"{path}:1: bad JSON: ", prefix=True)

    def test_kernel_overflow_named(self, reject):
        # sigma + 1 is finite, but the product of two self-kernels is not.
        files = _with_config(kernel_sigma=1e200)
        message = (
            "triple 't0', side a: tree kernel overflows the float range "
            "at kernel_sigma 1e+200"
        )
        reject(["extract", "--config", "c.json", *_BOTH], files, message)

    def test_unknown_sampler_key_rejected(self, reject):
        files = {"c.json": json.dumps({**_MINIMAL_CONFIG, "sampler": {"warmpu": 50}})}
        allowed = ", ".join(_README_CONFIG["sampler"])
        message = f"unknown sampler keys ['warmpu']; allowed: {allowed}"
        reject(["fit", "--config", "c.json"], files, message)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "config file must hold a JSON object"),
            (
                {**_MINIMAL_CONFIG, "sampler": None},
                "config value sampler=null: expected an object",
            ),
        ],
        ids=["data0-must hold a JSON object", "data1-sampler=null: expected an object"],
    )
    def test_config_not_an_object(self, reject, data, message):
        reject(["fit", "--config", "c.json"], {"c.json": json.dumps(data)}, message)

    def test_unknown_config_key_rejected(self, reject):
        # The message names every key the README's example spells out.
        allowed = ", ".join(_README_CONFIG)
        message = f"unknown config keys ['kernal_sigma']; allowed: {allowed}"
        files = {"c.json": json.dumps({"kernal_sigma": 3})}
        reject(["fit", "--config", "c.json"], files, message)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("keep_punctuation", "false"),
            ("keep_punctuation", 0),
            ("triples", 5),
            ("out", None),
            ("word_list", 5),
            ("predictors", "split"),
            ("predictors", ["split", 3]),
            ("kernel_sigma", "2"),
            ("layout", ["long"]),
            ("layout", "diff"),
        ],
    )
    def test_config_value_of_wrong_type_rejected(self, reject, key, value):
        files = {"c.json": json.dumps({**_MINIMAL_CONFIG, key: value})}
        expected = _CONFIG_VALUE_EXPECTED[key]
        message = f"config value {key}={json.dumps(value)}: expected {expected}"
        reject(["fit", "--config", "c.json"], files, message)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("warmup", 1000.7),
            ("draws", "500"),
            ("seed", 5.9),
            ("chains", 2.9),
            ("num_steps", True),
            ("target_accept", "0.9"),
            ("prior_sd", {"x": 1}),
            ("prior_sd", True),
            ("prior_sd", float("inf")),
            ("prior_sd", 10**400),
        ],
    )
    def test_sampler_value_of_wrong_type_rejected(self, reject, key, value):
        # Values are checked, not cast: 1000.7 must not run as 1000 warmup
        # iterations, nor "500" as 500 draws.
        files = {"c.json": json.dumps({**_MINIMAL_CONFIG, "sampler": {key: value}})}
        integers = ("chains", "warmup", "draws", "seed", "num_steps")
        expected = "an integer" if key in integers else "a finite number"
        message = f"sampler value {key}={json.dumps(value)}: expected {expected}"
        reject(["fit", "--config", "c.json"], files, message)

    @pytest.mark.parametrize(
        "sampler, flags",
        [({"seed": -3}, []), ({}, ["--seed", "-3"])],
        ids=["config", "flag"],
    )
    def test_negative_seed_rejected_before_input_read(self, reject, sampler, flags):
        argv = ["fit", "--config", "c.json", *_BOTH, *flags]
        files = _with_config(sampler=sampler)
        reject(argv, files, "seed must be >= 0, got -3", reads=False)

    @pytest.mark.parametrize("command", ["extract", "fit", "ablate", "report"])
    @pytest.mark.parametrize("out", ["blocker", "blocker/sub", "blocker/a/b"])
    def test_out_under_a_file_rejected_before_input_read(self, reject, command, out):
        files = {**_INPUTS, "blocker": "not a directory"}
        message = f"[Errno 20] Not a directory: '{out}'"
        argv = [command, *_BOTH, "--out", out]
        reject(argv, files, message, code=cli.EXIT_IO, reads=False)

    @pytest.mark.parametrize("command", ["extract", "fit", "ablate"])
    def test_repeated_config_predictor_rejected_before_input_read(self, reject, command):
        files = _with_config(predictors=["split", "fluency", "split"])
        argv = [command, "--config", "c.json", *_BOTH]
        reject(argv, files, "duplicate predictor names: ['split']", reads=False)

    def test_profile_presets(self, workspace):
        tmp, triples, judgments = workspace
        args = cli.build_parser().parse_args(
            ["fit", "--triples", str(triples), "--judgments", str(judgments),
             "--profile", "paper"]
        )
        cfg = cli.load_config(args)
        assert cfg.sampler.warmup == 50000
        assert cfg.sampler.draws == 4000


_TWO_SENTENCES = (
    "1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "\n"
    "1\ty\t_\t_\t_\t_\t0\troot\t_\t_\n"
)
_BAD_ID = (
    ":1.id: expected a string without ',', '\"', '\\n' or '\\r' that does not "
    "start with '#', got "
)
# (field path, value, expected error) for one record field of the wrong shape.
_MALFORMED = [
    ("source", ["(S (NN x))"], ":1.source: expected a JSON object"),
    ("a", "text ptb origin", ":1.a: expected a JSON object"),
    ("b", None, ":1.b: expected a JSON object"),
    ("conllu", ["x"], ":1.conllu: expected a JSON object"),
    ("conllu", [], ":1.conllu: expected a JSON object"),
    ("conllu.a", 5, ":1.conllu.a: expected a string"),
    ("precomputed", [1], ":1.precomputed: expected a JSON object"),
    (
        "precomputed.samsa_a",
        True,
        ":1.precomputed.samsa_a: expected a finite number or null, got true",
    ),
    (
        "precomputed.samsa_b",
        "high",
        ':1.precomputed.samsa_b: expected a finite number or null, got "high"',
    ),
    (
        "precomputed.samsa_a",
        float("nan"),
        ":1.precomputed.samsa_a: expected a finite number or null, got NaN",
    ),
    ("source.ptb", 5, ":1.source: 'ptb' must be a list of strings"),
    ("conllu.source", _TWO_SENTENCES, ":1.source: 2 dependency graphs for 1 trees"),
    ("scores", "abc", ":1.scores: expected a JSON object"),
    ("scores.a", [4, 4, 4], ":1.scores.a: expected a JSON object"),
    # Errors from the parsers and the record types are located too.
    (
        "a.ptb",
        ["(S (NN x)) (S (NN y)"],
        ":1.a.ptb: unbalanced brackets (byte offset 20)",
    ),
    (
        "conllu.a",
        "1\tx\n",
        ":1.conllu.a: line 1: expected the 10-column CoNLL-U layout "
        "(HEAD/DEPREL missing): '1\\tx'",
    ),
    (
        # A tab line is split on tabs alone: a space in its FORM does not
        # make up for the missing column.
        "conllu.source",
        "1\tNew York\t_\t_\t_\t0\troot\n",
        ":1.conllu.source: line 1: expected the 10-column CoNLL-U layout "
        "(HEAD/DEPREL missing): '1\\tNew York\\t_\\t_\\t_\\t0\\troot'",
    ),
    (
        "conllu.source",
        "1\tx\t_\t_\t_\t_\t1\tdep\t_\t_\n",
        ":1.conllu.source: expected exactly one root, found 0",
    ),
    (
        "conllu.a",
        "1\tx\t_\t_\t_\t_\t1_0\troot\t_\t_\n",
        ":1.conllu.a: line 1: bad HEAD value '1_0'",
    ),
    (
        "conllu.a",
        "1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n2-\ty\t_\t_\t_\t_\t1\tdep\t_\t_\n",
        ":1.conllu.a: line 2: bad token id '2-'",
    ),
    ("choice", "firts", ":1: unknown choice 'firts'"),
    ("question", "S_vs_C", ":1: unknown question 'S_vs_C'"),
    (
        "scores.a.grammar",
        7,
        ":1.scores.a: grammar score must be an integer in 1..5, got 7",
    ),
    # A triple id is written unquoted into features.csv.
    ("id", "t,0", _BAD_ID + '"t,0"'),
    ("id", "t\n0", _BAD_ID + '"t\\n0"'),
    ("id", "t\r0", _BAD_ID + '"t\\r0"'),
    # csv.reader would read a quote as the start of a quoted field, and
    # a row starting with '#' reads as a header comment.
    ("id", '"q', _BAD_ID + '"\\"q"'),
    ("id", "#t0", _BAD_ID + '"#t0"'),
    ("id", 5, _BAD_ID + "5"),
    ("id", ["a", "b"], _BAD_ID + '["a", "b"]'),
    # A judgment's ids are JSON strings, and its triple must be loaded.
    ("triple_id", "t9", ":1.triple_id: unknown triple 't9'"),
    ("triple_id", 5, ":1.triple_id: expected a string, got 5"),
    ("worker_id", 7, ":1.worker_id: expected a string, got 7"),
    ("source.text", 5, ":1.source.text: expected a string, got 5"),
    ("a.text", None, ":1.a.text: expected a string, got null"),
    ("b.text", ["x"], ':1.b.text: expected a string, got ["x"]'),
    # Side a's origin is a JSON string naming one of the known origins.
    ("a.origin", None, ":1.a.origin: expected a string, got null"),
    ("a.origin", 5, ":1.a.origin: expected a string, got 5"),
    ("a.origin", "robot", ":1.a: unknown origin 'robot'"),
]


# CLI input checks as (argv, files written, error message, whether the
# triples are read).
_INPUT_CHECKS = {
    "config-missing": (
        ["extract", "--config", "none.json"], {},
        "config file not found: none.json", False,
    ),
    "no-triples": (["extract"], {}, "no triples path configured", False),
    "triples-missing": (
        ["extract", "--triples", "none.jsonl"], {},
        "triples file not found: none.jsonl", False,
    ),
    # An empty output path would write the artifacts into the working directory.
    "no-out": (
        ["extract", "--config", "c.json", *_BOTH], _with_config(out=""),
        "no output directory configured", False,
    ),
    "no-judgments": (
        ["report", "--triples", "t.jsonl"], _INPUTS,
        "no judgments path configured", False,
    ),
    "judgments-missing": (
        ["report", "--triples", "t.jsonl", "--judgments", "none.jsonl"],
        _INPUTS, "judgments file not found: none.jsonl", False,
    ),
    # report checks the word list, though it does not read it.
    "word-list-missing": (
        ["report", "--config", "c.json", *_BOTH],
        _with_config(word_list="none.txt"),
        "word list file not found: none.txt", False,
    ),
    "triple-not-an-object": (
        ["extract", "--triples", "t.jsonl"], {"t.jsonl": "[1]\n"},
        "t.jsonl:1: expected a JSON object", True,
    ),
    "duplicate-triple-id": (
        ["extract", "--triples", "t.jsonl"],
        {"t.jsonl": _lines(*[{**_TRIPLE, "id": "t0000"}] * 2)},
        "t.jsonl:2: duplicate triple id 't0000'", True,
    ),
    "no-source-trees": (
        ["extract", "--triples", "t.jsonl"],
        {"t.jsonl": _lines({**_TRIPLE, "source": {"text": "x y", "ptb": []}})},
        "t.jsonl:1: source has no parse trees", True,
    ),
    "unknown-predictor": (
        ["extract", "--config", "c.json", *_BOTH],
        _with_config(predictors=["split2"]),
        "unknown predictors: ['split2']", False,
    ),
    "no-warmup": (
        ["fit", "--config", "c.json", *_BOTH],
        _with_config(sampler={"warmup": 0}),
        "need warmup >= 1 and draws >= 2", False,
    ),
    "no-steps": (
        ["fit", "--config", "c.json", *_BOTH],
        _with_config(sampler={"num_steps": 0}),
        "num_steps must be >= 1", False,
    ),
}


class TestInputChecks:
    @pytest.mark.parametrize(
        "argv, files, message, reads_triples",
        _INPUT_CHECKS.values(),
        ids=_INPUT_CHECKS.keys(),
    )
    def test_message_and_exit(self, reject, argv, files, message, reads_triples):
        reject(argv, files, message, reads=reads_triples)


class TestMalformedRecords:
    # Each record field set to a value of the wrong shape must give a
    # located validation error, never an exception from deeper down.
    @pytest.mark.parametrize(
        "field, value, message",
        _MALFORMED,
        ids=[f"{field}={json.dumps(value)}" for field, value, _ in _MALFORMED],
    )
    def test_rejected_with_location(self, reject, field, value, message):
        triple, judgment = copy.deepcopy(_TRIPLE), copy.deepcopy(_JUDGMENT)
        in_judgment = field.split(".")[0] in _JUDGMENT
        record = judgment if in_judgment else triple
        *parents, key = field.split(".")
        for name in parents:
            record = record.setdefault(name, {})
        record[key] = value
        files = {"t.jsonl": _lines(triple), "j.jsonl": _lines(judgment)}
        command, path = ("report", "j.jsonl") if in_judgment else ("extract", "t.jsonl")
        reject([command, *_BOTH], files, path + message)


class TestConlluIds:
    # Token IDs run 1, 2, ... in each sentence; the rule is checked where
    # the reader keeps each token's head.
    def test_out_of_order_id_rejected_with_location(self, reject):
        conllu = "1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n3\ty\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        files = {"t.jsonl": _lines({**_TRIPLE, "conllu": {"a": conllu}})}
        message = (
            "t.jsonl:1.conllu.a: token indices must be consecutive "
            "from 1; got 3 at position 2"
        )
        reject(["extract", "--triples", "t.jsonl"], files, message)


class TestNotUtf8:
    # A byte that is not UTF-8 is a located format error; its line is one
    # plus the newlines before it.
    @pytest.mark.parametrize(
        "command, name, line",
        [
            ("extract", "triples", 1),
            ("report", "judgments", 2),
            ("extract", "words", 3),
            ("extract", "config", 1),
        ],
    )
    def test_rejected_with_line(self, reject, command, name, line):
        files = {
            "triples": (json.dumps(_TRIPLE) + "\n").encode(),
            "judgments": (json.dumps(_JUDGMENT) + "\n" + json.dumps(_JUDGMENT)).encode(),
            "words": b"the\nman\n",
            "config": json.dumps({"word_list": "words"}).encode(),
        }
        bad = files[name]
        cut = sum(len(s) + 1 for s in bad.split(b"\n")[: line - 1])
        files[name] = bad[:cut] + b"\xff" + bad[cut:]
        argv = [command, "--config", "config", "--triples", "triples",
                "--judgments", "judgments"]
        reject(argv, files, f"{name}:{line}: not UTF-8 text")

    def test_word_list_checked_with_no_triples(self, reject):
        # The word list is read before featurization starts, so extract
        # checks it even when the triples file holds no record.
        files = {
            "t.jsonl": b"",
            "w.txt": b"the\n\xffman\n",
            "c.json": json.dumps({"word_list": "w.txt"}),
        }
        argv = ["extract", "--config", "c.json", "--triples", "t.jsonl"]
        reject(argv, files, "w.txt:2: not UTF-8 text")


class TestByteOrderMark:
    # One leading U+FEFF is dropped (RFC 8259 section 8.1 lets a JSON
    # parser ignore it), so a file saved with it reads as the file without:
    # the word list keeps its first word, and no JSON reader rejects it.
    @pytest.mark.parametrize(
        "command, name",
        [("extract", "triples"), ("report", "judgments"), ("extract", "words"),
         ("extract", "config")],
    )
    def test_read_as_without(self, tmp_path, capsys, command, name):
        names = ("triples", "judgments", "words", "config")
        paths = {key: tmp_path / f"{key}.txt" for key in names}
        paths["triples"].write_text(json.dumps(_TRIPLE) + "\n", "utf-8")
        paths["judgments"].write_text(json.dumps(_JUDGMENT) + "\n", "utf-8")
        paths["words"].write_text("x\ny\n", "utf-8")
        config = {"word_list": str(paths["words"]), "predictors": ["split", "dale"]}
        paths["config"].write_text(json.dumps(config), "utf-8")
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            code = cli.main([
                command, "--config", str(paths["config"]), "--triples", str(paths["triples"]),
                "--judgments", str(paths["judgments"]), "--out", str(out),
            ])
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((code, capsys.readouterr(), artifacts))
            paths[name].write_bytes(b"\xef\xbb\xbf" + paths[name].read_bytes())
        assert runs[0][0] == cli.EXIT_OK
        assert runs[1] == runs[0]


class TestDeepTrees:
    def test_extract_names_depth_limit_and_report_runs(self, tmp_path, reject):
        deep = {**_TRIPLE["source"], "ptb": ["(A " * 4999 + "x" + ")" * 4999]}
        files = {**_INPUTS, "t.jsonl": _lines({**_TRIPLE, "source": deep})}
        message = (
            "triple 't0', side a: source tree 1 is 5000 levels deep, "
            f"over the limit of {MAX_TREE_DEPTH}"
        )
        reject(["extract", "--triples", "t.jsonl"], files, message)
        assert cli.main(["report", *_BOTH]) == cli.EXIT_OK
        assert (tmp_path / "out" / "report.txt").exists()


def _samsa_study(values):
    """A 4-triple demo study in the working directory whose SAMSA values,
    in triple order, start with ``values``; the arguments that fit it."""
    triples, _ = make_demo_dataset(".", n_triples=4, n_workers=2)
    records = [json.loads(line) for line in triples.read_text("utf-8").splitlines()]
    for record, value in zip(records, values):
        record["precomputed"] = {"samsa_a": value, "samsa_b": 0.0}
    triples.write_text(_lines(*records), "utf-8")
    return ["fit", "--triples", "triples.jsonl", "--judgments", "judgments.jsonl"]


def test_column_too_large_to_standardize_named(reject):
    # Both SAMSA values are finite, so the reader takes them, but the
    # squares of the column's deviations overflow.
    argv = _samsa_study([1e308, -1e308])
    reject(argv, {}, "column 'samsa' is too large to standardize")


def test_column_too_small_to_standardize_named(reject):
    # The column's values differ, but its deviations' squares underflow.
    argv = _samsa_study([1e-170, 0.0, 0.0, 0.0])
    reject(argv, {}, "column 'samsa' is too small to standardize")


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    # numpy is the only runtime dependency, and only fit and ablate need
    # it. One interpreter runs all four commands on one demo set with
    # imports blocked: a module set to None in sys.modules raises
    # ImportError on any import of it or of its submodules, which is
    # stricter than finding it absent from sys.modules afterwards. scipy
    # (scipy.special and scipy.stats with it) is blocked throughout, and
    # numpy too for the import and for extract and report. Forked chain
    # workers inherit the block.
    tmp = tmp_path_factory.mktemp("blocked")
    make_demo_dataset(tmp / "data", n_triples=4, n_workers=2)
    (tmp / "fit.json").write_text(
        json.dumps({"sampler": {"warmup": 50, "draws": 50}}), encoding="utf-8"
    )
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
        "import splitread.cli\n"
        "print('imported')\n"
        "data = ['--triples', 'data/triples.jsonl',"
        " '--judgments', 'data/judgments.jsonl']\n"
        "def run(*argv):\n"
        "    print(argv[0], splitread.cli.main([*argv, '--out', argv[0]]))\n"
        "run('extract', '--triples', 'data/triples.jsonl')\n"
        "run('report', *data)\n"
        "del sys.modules['numpy']\n"
        "run('fit', '--config', 'fit.json', *data)\n"
        "run('ablate', '--config', 'fit.json', '--predictors', 'fluency,split', *data)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_interpreter_env(), cwd=tmp, capture_output=True, text=True,
    )
    printed = [line for line in result.stdout.splitlines() if "wrote" not in line]
    return tmp, printed, result.stderr


def _written(tmp, names):
    return [name for name in names if (tmp / name).is_file()]


def test_cli_import_does_not_load_scipy_stats(blocked_run):
    # scipy.stats costs about a second of import, and no command needs it;
    # importing the CLI needs neither scipy nor numpy.
    _, printed, stderr = blocked_run
    assert printed[:1] == ["imported"], stderr


def test_report_does_not_load_scipy_stats(blocked_run):
    # The report's Welch test is computed in closed form, with math.
    tmp, printed, stderr = blocked_run
    assert "report 0" in printed, stderr
    assert _written(tmp, ["report/report.txt"]) == ["report/report.txt"]


def test_every_command_runs_without_scipy(blocked_run):
    _, printed, stderr = blocked_run
    assert printed == ["imported", "extract 0", "report 0", "fit 0", "ablate 0"], stderr


def test_blocked_extract_and_report_write_the_same_bytes(blocked_run, tmp_path, monkeypatch):
    # extract and report run on the standard library: the same commands,
    # run here with numpy importable, write the same bytes. The arguments
    # are the same too, --out included, since the paths enter the config
    # hash.
    tmp, _, stderr = blocked_run
    shutil.copytree(tmp / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    data = ["--triples", "data/triples.jsonl"]
    assert cli.main(["extract", *data, "--out", "extract"]) == cli.EXIT_OK
    judgments = ["--judgments", "data/judgments.jsonl"]
    assert cli.main(["report", *data, *judgments, "--out", "report"]) == cli.EXIT_OK
    for name in ("extract/features.csv", "report/report.txt"):
        assert (tmp / name).read_bytes() == (tmp_path / name).read_bytes(), stderr


def test_extract_does_not_load_scipy_special(blocked_run):
    # scipy.special costs about a third of a second of import, and no
    # command needs it; extract needs no numpy either.
    tmp, printed, stderr = blocked_run
    assert "extract 0" in printed, stderr
    assert _written(tmp, ["extract/features.csv"]) == ["extract/features.csv"]


@pytest.mark.parametrize(
    "command, artifacts",
    [
        ("fit", ["fit/summary.csv", "fit/histograms.csv", "fit/draws.csv"]),
        ("ablate", ["ablate/ablation.csv", "ablate/ablation.txt"]),
    ],
    ids=["fit", "ablate"],
)
def test_fit_does_not_load_scipy_special(blocked_run, command, artifacts):
    # The log density's sigmoid and softplus and WAIC's log-sum-exp are
    # numpy's, and chain 0 and every WAIC run in the calling process.
    tmp, printed, stderr = blocked_run
    assert f"{command} 0" in printed, stderr
    assert _written(tmp, artifacts) == artifacts


STRICT_PRIOR_SDS = (1e-150, 1e-20, 1e150)


@pytest.fixture(scope="module")
def strict_run(tmp_path_factory):
    # Every command on small demo sets, under umask 022, with any
    # RuntimeWarning raised as an error and the chains and triples spread
    # over two forked lanes, which inherit the warning filter. Returns the
    # directory and each run's exit code.
    tmp = tmp_path_factory.mktemp("strict")
    make_demo_dataset(tmp / "data", n_triples=4, n_workers=2)
    make_demo_dataset(tmp / "tiny", n_triples=2, n_workers=1, seed=4)
    fit = tmp / "fit.json"
    fit.write_text(json.dumps({"sampler": {"warmup": 50, "draws": 50}}), encoding="utf-8")
    # Valid prior_sd values whose density and gradient overflow.
    for sd in STRICT_PRIOR_SDS:
        (tmp / f"fit-sd-{sd}.json").write_text(
            json.dumps({"sampler": {"warmup": 50, "draws": 50, "prior_sd": sd}}),
            encoding="utf-8",
        )

    def data(name, out=None):
        return [
            "--triples", str(tmp / name / "triples.jsonl"),
            "--judgments", str(tmp / name / "judgments.jsonl"),
            "--out", str(tmp / f"{out or name}-out"),
        ]

    runs = {
        "extract": ["extract", *data("data")],
        "report": ["report", *data("data")],
        "fit": ["fit", "--config", str(fit), *data("data")],
        "ablate": ["ablate", "--config", str(fit), "--predictors", "fluency,split",
                   *data("data")],
        "report-tiny": ["report", *data("tiny")],
        **{
            f"fit-sd-{sd}": ["fit", "--config", str(tmp / f"fit-sd-{sd}.json"),
                             *data("data", f"sd-{sd}")]
            for sd in STRICT_PRIOR_SDS
        },
    }
    umask = os.umask(0o022)
    try:
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pin_lanes(patch, 2)
            codes = {name: cli.main(argv) for name, argv in runs.items()}
    finally:
        os.umask(umask)
    return tmp, codes


def test_no_runtime_warning_in_any_command(strict_run):
    _, codes = strict_run
    assert codes == {
        **dict.fromkeys(["extract", "report", "fit", "ablate", "report-tiny"], 0),
        # The tiny prior_sd sticks every chain, the huge one fails R-hat.
        "fit-sd-1e-150": cli.EXIT_CONVERGENCE,
        "fit-sd-1e-20": 0,
        "fit-sd-1e+150": cli.EXIT_CONVERGENCE,
    }


@pytest.mark.parametrize("prior_sd", [1e-200, 1e200])
def test_prior_sd_with_no_normal_square_rejected_before_input_read(reject, prior_sd):
    files = _with_config(sampler={"prior_sd": prior_sd})
    message = (
        "prior_sd must lie between about 1.5e-154 and 1.3e154, "
        "where its square is a normal float"
    )
    reject(["fit", "--config", "c.json", *_BOTH], files, message, reads=False)


def test_artifacts_follow_umask_and_leave_no_temp_file(strict_run):
    tmp, _ = strict_run
    artifacts = {
        p.name: p.stat().st_mode & 0o777 for p in (tmp / "data-out").iterdir()
    }
    assert artifacts == dict.fromkeys(
        ["features.csv", "report.txt", "summary.csv", "histograms.csv", "draws.csv",
         "ablation.csv", "ablation.txt"],
        0o644,
    )
    assert list(tmp.rglob("*.tmp")) == []
