"""Run one splitread CLI command in this process with every layer traced.

    python3 bench/traced.py SPANS.json extract --triples ... --out ...

The public functions of trees, dataset, cohesion, complexity,
readability, inference, selection and cli are wrapped at the names their
callers look them up by (``dataset.parse_ptb``, not ``trees.parse_ptb``),
the command runs through ``splitread.cli.main``, every wrapper is put
back, and the spans, counters and per-fit sampler statistics are written
to SPANS.json. The exit code is the command's.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import splitread.cli as cli  # noqa: E402  (timed: the fresh-interpreter import)

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402

import numpy as np  # noqa: E402

from splitread import cohesion, complexity, dataset, inference, readability, selection  # noqa: E402

from ess import ess_per_column  # noqa: E402
from spans import Patches, Tracer, count_wrapper, span_wrapper  # noqa: E402

# (owner module, attribute, span name). The owner is the module whose
# global the caller reads.
SPANNED = [
    (dataset, "parse_ptb", "trees.parse_ptb"),
    (dataset, "parse_conllu", "trees.parse_conllu"),
    (dataset, "load_triples", "dataset.load_triples"),
    (dataset, "load_judgments", "dataset.load_judgments"),
    (dataset, "extract_features", "dataset.extract_features"),
    (dataset, "build_design_matrix", "dataset.build_design_matrix"),
    (dataset, "tally", "dataset.report_tables"),
    (dataset, "quality_scores", "dataset.report_tables"),
    (dataset, "score_summary", "dataset.report_tables"),
    (cohesion, "ted1", "cohesion.ted1"),
    (cohesion, "ted2", "cohesion.ted2"),
    (cohesion, "overlap_coefficient", "cohesion.overlap"),
    (complexity, "yngve_score", "complexity"),
    (complexity, "frazier_score", "complexity"),
    (complexity, "tnodes", "complexity"),
    (complexity, "dep_distance", "complexity"),
    (readability, "text_stats", "readability"),
    (readability, "dale_chall", "readability"),
    (readability, "flesch_reading_ease", "readability"),
    (readability, "fk_grade", "readability"),
    (inference, "summarize", "inference.summarize"),
    (selection, "summarize", "inference.summarize"),
    (inference, "draws_to_csv", "inference.draws_to_csv"),
    (selection, "pointwise_loglik", "selection.pointwise_loglik"),
    (selection, "waic", "selection.waic"),
    (selection, "compare", "selection.compare"),
]
# Hot calls get a counter instead of spans: (owner, attribute, name).
# The log-density gradient is the one private hook.
COUNTED = [
    (cohesion, "tree_edit_distance", "cohesion.tree_edit_distance"),
    (cohesion, "tree_kernel", "cohesion.tree_kernel"),
    (inference, "_logpost_arrays", "inference.grad"),
]

_FEATURES = [
    "trees.parse_ptb",
    "trees.parse_conllu",
    "dataset.load_triples",
    "cohesion.ted1",
    "cohesion.ted2",
    "cohesion.kernel.subset",
    "cohesion.kernel.subtree",
    "cohesion.overlap",
    "complexity",
    "readability",
    "cohesion.tree_edit_distance",
    "cohesion.tree_kernel",
]
_SAMPLING = [
    "dataset.load_judgments",
    "dataset.build_design_matrix",
    "inference.sample_posterior",
    "inference.summarize",
    "inference.grad",
]
# Spans and counters that must record at least one call per command; a
# refactor that silently bypasses a wrapper fails the traced run.
EXPECTED = {
    "extract": ["cli.extract", "dataset.extract_features", *_FEATURES],
    "report": [
        "cli.report",
        "trees.parse_ptb",
        "dataset.load_triples",
        "dataset.load_judgments",
        "dataset.report_tables",
    ],
    "fit": ["cli.fit", *_FEATURES, *_SAMPLING, "inference.draws_to_csv"],
    "ablate": [
        "cli.ablate",
        *_FEATURES,
        *_SAMPLING,
        "selection.fits",
        "selection.pointwise_loglik",
        "selection.waic",
        "selection.compare",
    ],
}


def _kernel_span(doc_a, doc_b, variant="subset", sigma=1.0):
    return f"cohesion.kernel.{variant}"


def _fit_stats(tracer: Tracer, fits: list, sample_fn):
    """``sample_fn`` inside an ``inference.sample_posterior`` span, with
    the fit's gradient count, min ESS, accept rate and divergences."""
    spanned = span_wrapper(tracer, sample_fn, "inference.sample_posterior")

    def fit(matrix, spec, config):
        grads0 = tracer.counts.get("inference.grad", 0)
        draws = spanned(matrix, spec, config)
        fits.append(
            {
                "iterations": config.chains * (config.warmup + config.draws),
                "grad_evals": tracer.counts.get("inference.grad", 0) - grads0,
                "min_ess": float(np.min(ess_per_column(draws.draws))),
                "accept_rate": float(np.mean(draws.accept_rate)),
                "divergences": int(draws.divergences),
            }
        )
        return draws

    return fit


def instrument(tracer: Tracer, fits: list) -> Patches:
    patches = Patches()
    for owner, attr, name in SPANNED:
        patches.set(owner, attr, span_wrapper(tracer, getattr(owner, attr), name))
    patches.set(
        cohesion,
        "kernel_similarity",
        span_wrapper(tracer, cohesion.kernel_similarity, _kernel_span),
    )
    for owner, attr, name in COUNTED:
        patches.set(owner, attr, count_wrapper(tracer, getattr(owner, attr), name))

    traced_sample = _fit_stats(tracer, fits, inference.sample_posterior)
    patches.set(inference, "sample_posterior", traced_sample)

    # ablate binds sample_posterior as a default argument, so it is
    # traced by handing it the traced sampler explicitly.
    original_ablate = selection.ablate

    def traced_ablate(matrix, full_spec, config, sample_fn=None):
        inner = traced_sample if sample_fn is None else _fit_stats(tracer, fits, sample_fn)

        def counted_fit(m, s, c):
            tracer.count("selection.fits")
            return inner(m, s, c)

        return original_ablate(matrix, full_spec, config, sample_fn=counted_fit)

    patches.set(selection, "ablate", traced_ablate)
    return patches


def main(argv: list[str]) -> int:
    out_path, command_argv = argv[0], argv[1:]
    command = command_argv[0]
    tracer = Tracer(uuid.uuid4().hex[:12])
    fits: list[dict] = []
    with instrument(tracer, fits), tracer.span(f"cli.{command}"):
        rc = cli.main(command_argv)
    names = {s.name for s in tracer.spans} | set(tracer.counts)
    record = {
        "command": command,
        "exit": rc,
        "import_s": IMPORT_S,
        "fits": fits,
        "missing": [n for n in EXPECTED[command] if n not in names],
        **tracer.as_dict(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
