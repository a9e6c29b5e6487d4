"""Command-line entry point.

Subcommands: ``extract`` (materialize the per-side predictor table),
``fit`` (sample the full preference model and summarize the posterior),
``ablate`` (leave-one-predictor-out WAIC comparison) and ``report``
(descriptive preference tallies and quality-score tables). This module
lays out every artifact and message but ``draws.csv``, which
``inference.draws_to_csv`` writes. ``inference`` and ``selection``, the
modules that import numpy, are imported only by the code that fits, so
``extract`` and ``report`` run without numpy.

Exit codes: 0 ok, 1 validation problem, 2 convergence gate tripped,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import dataset as ds
from .config import FeatureConfig, ModelSpec, SamplerConfig
from .config import TYPE_RULES, check_unique_predictors, field_rules
from .errors import SplitreadError, ValidationError, read_text

if TYPE_CHECKING:
    from .selection import ComparisonTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3

REDUCED_PREDICTORS = ("grammar", "split", "ease", "fk_grade", "meaning", "fluency")

# The report's preference-tally sections: (title, label, origin, question).
TALLY_SECTIONS = (
    ("Source vs two-sentence split (model output)", "<S, BART-A>", "bart", "S_vs_A"),
    ("Source vs three-sentence split (model-output items)", "<S, HUM-B>",
     "bart", "S_vs_B"),
    ("Source vs two-sentence split (manual)", "<S, HUM-A>", "human", "S_vs_A"),
    ("Source vs three-sentence split (manual items)", "<S, HUM-B>",
     "human", "S_vs_B"),
    ("Two- vs three-sentence split (model output)", "<BART-A, HUM-B>",
     "bart", "A_vs_B"),
    ("Two- vs three-sentence split (manual)", "<HUM-A, HUM-B>", "human", "A_vs_B"),
)
# The report's quality-score sections: (title, side-a heading, origin). Side
# b, the three-sentence split, is manual for both origins.
SCORE_SECTIONS = (
    ("Quality scores, manual splits (** = p < 0.01)", "HUM-A", "human"),
    ("Quality scores, model vs manual (** = p < 0.01)", "BART-A", "bart"),
)

_PAPER = {"chains": 4, "warmup": 50000, "draws": 4000}
# Sampler size presets; desk sets the same keys to SamplerConfig's defaults.
PROFILES = {
    "desk": {f.name: f.default for f in fields(SamplerConfig) if f.name in _PAPER},
    "paper": _PAPER,
}

_FEATURE_KEYS = tuple(f.name for f in fields(FeatureConfig))


def _is_str(value) -> bool:
    return type(value) is str


# The JSON value a config key must hold: (description, check).
_STRING = ("a string", _is_str)

_CONFIG_KEYS = {
    "triples": _STRING,
    "judgments": _STRING,
    "out": _STRING,
    "word_list": ("a string or null", lambda v: v is None or _is_str(v)),
    "predictors": (
        "a list of strings", lambda v: type(v) is list and all(map(_is_str, v))
    ),
    "kernel_sigma": TYPE_RULES[float],
    "keep_punctuation": ("true or false", lambda v: type(v) is bool),
    # The long format is the only design-matrix layout.
    "layout": ('"long"', lambda v: v == "long"),
    "sampler": ("an object", lambda v: type(v) is dict),
}
# SamplerConfig's fields, by the types of their defaults, and prior_sd,
# which is written in the sampler block but sets the model prior.
_SAMPLER_KEYS = {**field_rules(SamplerConfig), "prior_sd": TYPE_RULES[float]}


@dataclass(frozen=True)
class RunConfig:
    """One run: its paths, features, model (the configured predictors and
    prior) and sampler."""

    triples: str
    judgments: str
    out: str
    keep_punctuation: bool
    features: FeatureConfig
    model: ModelSpec
    sampler: SamplerConfig

    def as_dict(self) -> dict:
        return {
            "triples": self.triples,
            "judgments": self.judgments,
            "out": self.out,
            **asdict(self.features),
            "layout": "long",
            "keep_punctuation": self.keep_punctuation,
            "sampler": {**asdict(self.sampler), "prior_sd": self.model.prior_sd},
        }

    def hash(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def header(self) -> str:
        return f"# splitread config={self.hash()} seed={self.sampler.seed}"


def _checked(block: str, values: dict, allowed: dict) -> dict:
    """``values`` with unknown keys and values of the wrong JSON type
    rejected, and every number made a float (``3`` runs as ``3.0``)."""
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise SplitreadError(
            f"unknown {block} keys {unknown}; allowed: {', '.join(allowed)}"
        )
    for key, value in values.items():
        expected, valid = allowed[key]
        if not valid(value):
            raise SplitreadError(
                f"{block} value {key}={json.dumps(value)}: expected {expected}"
            )
    number = TYPE_RULES[float]
    return {k: float(v) if allowed[k] is number else v for k, v in values.items()}


def load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise SplitreadError(f"config file not found: {path}")
        try:
            data = json.loads(read_text(path))
        # ValueError also covers an integer past Python's digit limit, and
        # RecursionError a file nested deeper than the decoder's stack.
        except (ValueError, RecursionError) as exc:
            raise SplitreadError(f"config file is not valid JSON: {exc}") from None
        if type(data) is not dict:
            raise SplitreadError("config file must hold a JSON object")
    data = _checked("config", data, _CONFIG_KEYS)
    sampler = _checked("sampler", data.get("sampler", {}), _SAMPLER_KEYS)
    if args.profile:
        sampler.update(PROFILES[args.profile])
    if args.seed is not None:
        sampler["seed"] = args.seed
    features = {k: data[k] for k in _FEATURE_KEYS if k in data}
    if "predictors" in features:
        features["predictors"] = tuple(features["predictors"])
    features = FeatureConfig(**features)
    # ModelSpec holds the default prior scale and rejects a non-positive one.
    prior_sd = sampler.pop("prior_sd", ModelSpec.prior_sd)
    return RunConfig(
        triples=args.triples or data.get("triples", ""),
        judgments=args.judgments or data.get("judgments", ""),
        out=args.out or data.get("out", "out"),
        keep_punctuation=data.get("keep_punctuation", True),
        features=features,
        model=ModelSpec(features.predictors, prior_sd),
        sampler=SamplerConfig(**sampler),
    )


def _check_paths(cfg: RunConfig, need_judgments: bool) -> None:
    if not cfg.triples:
        raise SplitreadError("no triples path configured")
    if not Path(cfg.triples).exists():
        raise SplitreadError(f"triples file not found: {cfg.triples}")
    if need_judgments:
        if not cfg.judgments:
            raise SplitreadError("no judgments path configured")
        if not Path(cfg.judgments).exists():
            raise SplitreadError(f"judgments file not found: {cfg.judgments}")
    word_list = cfg.features.word_list
    if word_list is not None and not Path(word_list).exists():
        raise SplitreadError(f"word list file not found: {word_list}")
    if not cfg.out:
        raise SplitreadError("no output directory configured")
    # An output path that is, or lies under, a file fails now, as writing
    # the artifacts would after all the work.
    out = Path(cfg.out)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), cfg.out)


def cmd_extract(cfg: RunConfig, args: argparse.Namespace) -> int:
    triples = ds.load_triples(cfg.triples, keep_punctuation=cfg.keep_punctuation)
    header, rows = ds.extract_features(triples, cfg.features)
    out = Path(cfg.out) / "features.csv"
    ds.write_artifact(out, cfg.header(), map(ds.csv_line, [header, *rows]))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _fit_matrix(cfg: RunConfig):
    triples, judgments = ds.ingest(
        cfg.judgments, cfg.triples, keep_punctuation=cfg.keep_punctuation
    )
    return ds.build_design_matrix(triples, judgments, cfg.features)


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import inference

    draws = inference.sample_posterior(_fit_matrix(cfg), cfg.model, cfg.sampler)
    summary = inference.summarize(draws)

    out_dir, header = Path(cfg.out), cfg.header()
    stats = (
        f"# divergences={draws.divergences} "
        f"accept_rate={','.join(f'{r:.3f}' for r in draws.accept_rate)} "
        f"step_size={','.join(f'{e:.4g}' for e in draws.step_size)} "
        f"grad_evals={','.join(str(n) for n in draws.grad_evals)}"
    )
    columns = "coefficient,mean,sd,hdi_low,hdi_high,rhat"
    rows = [ds.csv_line(astuple(row)) for row in summary.rows]
    ds.write_artifact(out_dir / "summary.csv", header, [stats, columns, *rows])
    rows = [
        ds.csv_line([name, edges[j], edges[j + 1], count])
        for name, (edges, counts) in summary.histograms.items()
        for j, count in enumerate(counts)
    ]
    columns = "coefficient,bin_left,bin_right,count"
    ds.write_artifact(out_dir / "histograms.csv", header, [columns, *rows])
    inference.draws_to_csv(draws, out_dir / "draws.csv", header)

    if draws.divergences > 0.01 * draws.logp.size:
        print(
            f"warning: {draws.divergences} divergent transitions after warmup",
            file=sys.stderr,
        )
    # max() skips a NaN that follows a number; a NaN R-hat is the worst.
    rhats = [r.rhat for r in summary.rows]
    worst = math.nan if any(map(math.isnan, rhats)) else max(rhats)
    print(f"wrote {out_dir / 'summary.csv'} (max R-hat {worst:.4f})")
    if not summary.converged():
        print(
            f"convergence gate failed: R-hat above {inference.RHAT_THRESHOLD}",
            file=sys.stderr,
        )
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import selection

    predictors = args.predictors or cfg.features.predictors
    # The design matrix has one column per configured predictor.
    missing = [p for p in predictors if p not in cfg.features.predictors]
    if missing:
        raise SplitreadError(f"predictors not in the design matrix: {missing}")
    if len(predictors) < 2:  # as selection.ablate checks, but before any input
        raise ValidationError("ablation needs at least 2 predictors")
    matrix = _fit_matrix(cfg)
    spec = replace(cfg.model, predictors=predictors)
    table = selection.ablate(matrix, spec, cfg.sampler)
    for row in table.rows:
        if row.unreliable_rows:
            print(
                f"warning: {row.name}: p_waic above {selection.P_WAIC_LIMIT} on "
                f"{row.unreliable_rows} of {matrix.n_rows} rows; its WAIC may be "
                "unreliable",
                file=sys.stderr,
            )
    out_dir, header = Path(cfg.out), cfg.header()
    ds.write_artifact(out_dir / "ablation.csv", header, _ablation_csv_lines(table))
    ds.write_artifact(out_dir / "ablation.txt", header, _ablation_text_lines(table))
    print(f"wrote {out_dir / 'ablation.csv'} ({len(table.rows)} rows)")
    return EXIT_OK


# ablation.csv's columns; ablation.txt shows all but ``flag``.
_ABLATION_COLUMNS = ("predictor", "rank", "waic", "p_waic", "d_waic", "se", "dse", "flag")


def _ablation_csv_lines(table: ComparisonTable) -> list[str]:
    from .inference import RHAT_THRESHOLD

    rows = (
        (r.name, r.rank, r.waic, r.p_waic, r.d_waic, r.se, r.dse,
         "" if r.converged else f"rhat>{RHAT_THRESHOLD}")
        for r in table.rows
    )
    return [ds.csv_line(row) for row in (_ABLATION_COLUMNS, *rows)]


def _ablation_text_lines(table: ComparisonTable) -> list[str]:
    """Aligned columns, numbers to three decimals; a flagged model's name
    ends in " *", explained by a footnote."""
    from .inference import RHAT_THRESHOLD

    cells = [list(_ABLATION_COLUMNS[:-1])]
    for r in table.rows:
        numbers = (r.waic, r.p_waic, r.d_waic, r.se, r.dse)
        name = r.name if r.converged else r.name + " *"
        cells.append([name, str(r.rank), *(f"{x:.3f}" for x in numbers)])
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = [
        "  ".join(
            [row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])]
        ).rstrip()
        for row in cells
    ]
    if not all(r.converged for r in table.rows):
        lines.append(
            f"* convergence flagged (some R-hat above {RHAT_THRESHOLD})"
        )
    return lines


def _score_lines(head_a: str, judgments: list[ds.JudgmentRecord]) -> list[str]:
    if not judgments:
        return ["(no responses; table omitted)"]
    try:
        comparison = ds.score_summary(*ds.quality_scores(judgments))
    except ValidationError as exc:  # a group too small for a t-test
        return [f"({exc}; table omitted)"]
    lines = [f"category | {head_a} | HUM-B"]
    for cat in ds.CATEGORIES:
        c = comparison[cat]
        marker = "**" if c.p_value < 0.01 else ""
        lines.append(
            f"{marker}{cat} | {c.mean_a:.2f} ({c.sd_a:.2f}) | "
            f"{c.mean_b:.2f} ({c.sd_b:.2f})"
        )
    return lines


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    triples, judgments = ds.ingest(
        cfg.judgments, cfg.triples, keep_punctuation=cfg.keep_punctuation
    )
    origin = {t.id: t.split_a.origin for t in triples}
    by_origin: dict[str, list[ds.JudgmentRecord]] = {o: [] for o in ds.ORIGINS}
    for j in judgments:
        by_origin[origin[j.triple_id]].append(j)

    lines = ["# Readability preference report", ""]
    for title, label, group, question in TALLY_SECTIONS:
        counts = ds.tally(by_origin[group], question).values()
        total = sum(counts)
        if total:
            cells = [f"{n} ({n / total:.2f})" for n in counts]
            row = " | ".join([label, *cells, str(total)])
        else:
            row = f"(no responses for {label}; table omitted)"
        lines += [f"## {title}", row, ""]
    for title, head_a, group in SCORE_SECTIONS:
        lines += [f"## {title}", *_score_lines(head_a, by_origin[group]), ""]
    out = Path(cfg.out) / "report.txt"
    ds.write_artifact(out, cfg.header(), lines)
    print(f"wrote {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2: here 2 means that the
    convergence gate tripped."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _predictor_list(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"no predictor named in {text!r}")
    try:
        check_unique_predictors(names)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitread",
        description="Sentence-split readability workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("extract", cmd_extract, "write the per-(triple, side) predictor table"),
        ("fit", cmd_fit, "fit the preference model and summarize the posterior"),
        ("ablate", cmd_ablate, "leave-one-predictor-out WAIC comparison"),
        ("report", cmd_report, "descriptive tallies and quality-score tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--triples", help="triples.jsonl path (overrides config)")
        p.add_argument("--judgments", help="judgments.jsonl path (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="sampler base seed")
        p.add_argument(
            "--profile", choices=sorted(PROFILES), help="sampler size preset"
        )
        if name == "ablate":
            battery = p.add_mutually_exclusive_group()
            battery.add_argument(
                "--reduced",
                dest="predictors",
                action="store_const",
                const=REDUCED_PREDICTORS,
                help="ablate the reduced six-predictor battery",
            )
            battery.add_argument(
                "--predictors",
                type=_predictor_list,
                help="comma-separated predictor subset to ablate",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        _check_paths(cfg, need_judgments=args.command != "extract")
        return args.run(cfg, args)
    except SplitreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
