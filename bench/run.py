"""Paper-scale benchmark of the splitread command line.

    python3 bench/run.py --workload paper-fit --seed 3 --seconds 10 --trace 0

Builds a synthetic judgment study from the seed (221 triples x 7
workers, a ~3000 x 18 design matrix), then runs the workload's CLI
commands as fresh processes, one at a time, for ``--seconds`` seconds
(at least one round). This is a closed loop with a single client, as a
researcher runs the commands. Every command's artifacts are checked
(see checks.py); a command whose output fails a check counts as failed.

The host's CPU speed drifts by 1.5x over seconds to minutes. A speed
probe (a fixed pure-Python kernel on each CPU) samples it while each
command runs, and reported times are rescaled to the reference speed
``PROBE_REF_S``. Raw wall times are printed and kept in the record.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``wall_ref_s``, ``peak_rss_mb``, ``setup_s``). With ``--trace 1`` the
same untraced rounds run, then each command runs once more under the
span tracer (traced.py) and the last line reports the per-layer metrics.
Metrics of a layer the workload does not exercise read 0. The full
record, with the environment, is written under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from spans import inclusive_seconds, self_times, spans_from_dict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "splitread" / "cli.py").is_file():
    sys.exit(f"error: no splitread sources under {SRC}")
sys.path.insert(0, str(SRC))  # the checkout's own sources, never an installed copy

import checks  # noqa: E402  (imports splitread)
from splitread import dataset as ds  # noqa: E402
from splitread.synth import make_demo_dataset  # noqa: E402

N_TRIPLES, N_WORKERS = 221, 7
SETUPS = 3  # setup_s is the median of this many set-ups
RUN_LIMIT_S = 170.0  # every command is killed past this point of the run
FEATURE_SAMPLE = 16  # sides of features.csv recomputed per extract
REPORT_SECTIONS = 8
# ablate has no convergence gate, so a short sampler is legitimate; it
# keeps a round of the five-model ablation near 8 s, about half of it
# sampling.
ABLATE_CONFIG = {"sampler": {"warmup": 30, "draws": 30}}
ABLATE_PREDICTORS = ("grammar", "meaning", "fluency", "split")
# The synthetic data make frazier and tnodes exactly collinear (r = -1),
# so their sum is identified by the prior alone. On that ridge the desk
# profile (4 x (1000 + 1000), 32 leapfrog steps) trips the R-hat gate on
# some seeds (1.07 on seeds 403 and 582382379), and 64-step paths still
# do (1.06 on seed 4242). The fit therefore leaves out tnodes, keeps the
# ill-conditioned ease/fk_grade pair (r = -0.99), and spends the desk
# profile's 64k leapfrog steps per chain as 400 + 600 iterations of 64
# steps: max R-hat 1.001-1.011 over six seeds, min ESS 241-503.
FIT_PREDICTORS = tuple(p for p in ds.PREDICTORS if p != "tnodes")
FIT_CONFIG = {
    "predictors": list(FIT_PREDICTORS),
    "sampler": {"chains": 4, "warmup": 400, "draws": 600, "num_steps": 64},
}
# Times are rescaled to a CPU on which the speed probe takes this long
# (about the median on a 2-vCPU Xeon sandbox whose speed drifts 1.5x).
PROBE_REF_S = 0.025
PROBE_INTERVAL_S = 2.0

# Each workload is one round of commands: (command, extra CLI arguments).
WORKLOADS = {
    "paper-features": [("extract", []), ("report", [])],
    "paper-fit": [("fit", ["--config", "fit.json"])],
    "paper-ablate": [
        ("ablate", ["--config", "ablate.json", "--predictors", ",".join(ABLATE_PREDICTORS)])
    ],
}
ARTIFACTS = {
    "extract": ["features.csv"],
    "report": ["report.txt"],
    "fit": ["summary.csv", "histograms.csv", "draws.csv"],
    "ablate": ["ablation.csv", "ablation.txt"],
}

E2E_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "extract_s": "s",
    "report_s": "s",
    "fit_s": "s",
    "ablate_s": "s",
    "min_ess": "draws",
    "min_ess_per_s": "1/s",
    "op_fail_rate": "ratio",
    "cli.import.s": "s",
    "cli.self.s": "s",
    "trees.parse_ptb.s": "s",
    "trees.parse_ptb.calls": "count",
    "trees.parse_conllu.s": "s",
    "dataset.load_triples.s": "s",
    "dataset.load_judgments.s": "s",
    "dataset.extract_features.s": "s",
    "dataset.build_design_matrix.s": "s",
    "dataset.report_tables.s": "s",
    "dataset.feature_passes": "ratio",
    "cohesion.ted1.s": "s",
    "cohesion.ted2.s": "s",
    "cohesion.tree_edit_distance.calls": "count",
    "cohesion.kernel.subset.s": "s",
    "cohesion.kernel.subtree.s": "s",
    "cohesion.tree_kernel.calls": "count",
    "cohesion.overlap.s": "s",
    "complexity.s": "s",
    "readability.s": "s",
    "inference.sample_posterior.s": "s",
    "inference.iter.us": "us",
    "inference.grad.us": "us",
    "inference.grad_evals": "count",
    "inference.min_ess_per_kgrad": "draws/kgrad",
    "inference.accept_rate": "ratio",
    "inference.divergences": "count",
    "inference.summarize.s": "s",
    "inference.draws_to_csv.s": "s",
    "selection.pointwise_loglik.s": "s",
    "selection.waic.s": "s",
    "selection.compare.s": "s",
    "selection.fits": "count",
    "trace.overhead": "ratio",
}


def _probe_kernel() -> None:
    # Fixed pure-Python work, independent of splitread: an edit-distance
    # table over two strings, ~25 ms on the reference CPU.
    a, b = "abcde" * 48, "abdce" * 48
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur


class SpeedProbe:
    """Samples the CPU speed while a block runs: one probe kernel pinned to
    each CPU in turn, on entry, every ``PROBE_INTERVAL_S`` in a background
    thread, and on exit. Kernels are timed by thread CPU time, so sharing
    a CPU with the measured process does not count. ``scale`` turns the
    block's wall time into wall time at the reference speed."""

    def __init__(self):
        self.rounds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)

    def _round(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})  # this thread only
                start = time.thread_time()
                _probe_kernel()
                times.append(time.thread_time() - start)
        finally:
            os.sched_setaffinity(0, cpus)
        self.rounds.append(statistics.mean(times))

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._round()

    def __enter__(self) -> "SpeedProbe":
        self._round()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._round()

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.rounds)


@dataclass
class Invocation:
    command: str
    args: list[str]
    traced: bool
    seconds: float  # wall time of the process
    scale: float  # wall time to wall time at the reference CPU speed
    cpu_s: float  # user + system time of the process and its threads
    rss_mb: float
    exit: int
    problems: list[str] = field(default_factory=list)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


class Runner:
    """Starts one CLI process at a time and measures it from rusage and a
    speed probe."""

    def __init__(self, cwd: Path, deadline: float):
        self.cwd = cwd
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = cwd / "last_command.log"

    def run(self, argv: list[str], spans: Path | None = None) -> Invocation:
        if spans is None:
            cmd = [sys.executable, "-m", "splitread.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log, "w", encoding="utf-8") as log, SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            command=argv[0],
            args=argv,
            traced=spans is not None,
            seconds=seconds,
            scale=probe.scale,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit=code,
        )
        if code != 0:
            tail = self.log.read_text("utf-8", errors="replace").strip().splitlines()[-1:]
            inv.problems.append(f"{argv[0]} exited {code}: {' '.join(tail)}")
        return inv


class Checker:
    """Checks each command's artifacts and that their bytes repeat for a
    fixed seed and command line (recorded in hashes.json on first sight)."""

    def __init__(self, work: Path, seed: int, workload: str):
        self.out = work / "out"
        self.data = work / "data"
        self.hash_file = work / "hashes.json"
        self.known = json.loads(self.hash_file.read_text()) if self.hash_file.exists() else {}
        self.triples = ds.load_triples(self.data / "triples.jsonl")
        rng = np.random.default_rng(seed)
        ids = sorted(t.id for t in self.triples)
        self.sample = [
            (ids[i], "ab"[s])
            for i, s in zip(
                rng.choice(len(ids), FEATURE_SAMPLE, replace=False),
                rng.integers(0, 2, FEATURE_SAMPLE),
            )
        ]
        self.names = ("intercept", *FIT_PREDICTORS)
        self.mode = None
        if workload == "paper-fit":
            triples, judgments = ds.ingest(self.data / "judgments.jsonl", self.data / "triples.jsonl")
            matrix = ds.build_design_matrix(triples, judgments)
            self.mode = checks.newton_map(matrix.predictor_matrix(FIT_PREDICTORS), matrix.y, 2.5)
        self.min_ess: list[float] = []

    def clear(self, command: str) -> None:
        """Remove the command's artifacts, so a run that writes none shows."""
        for name in ARTIFACTS[command]:
            (self.out / name).unlink(missing_ok=True)

    def run(self, runner: Runner, argv: list[str], spans: Path | None = None) -> Invocation:
        """Run one command with its old artifacts removed, then check it."""
        self.clear(argv[0])
        inv = runner.run(argv, spans)
        self.check(inv)
        return inv

    def check(self, inv: Invocation) -> None:
        paths = [self.out / name for name in ARTIFACTS[inv.command]]
        problems = checks.missing(paths)
        if not problems:
            problems = getattr(self, f"_check_{inv.command}")()
        if not problems:
            digest = {p.name: checks.sha256(p) for p in paths}
            # Keyed by everything that sets the artifacts' bytes besides the code.
            key = json.dumps([inv.args, ABLATE_CONFIG, FIT_CONFIG])
            first = self.known.setdefault(key, digest)
            problems = [
                f"{name} bytes differ from the first run of this seed"
                for name in digest
                if digest[name] != first[name]
            ]
        inv.problems.extend(problems)

    def _check_extract(self) -> list[str]:
        return checks.check_features(self.out / "features.csv", self.triples, self.sample)

    def _check_report(self) -> list[str]:
        return checks.check_report(self.out / "report.txt", REPORT_SECTIONS)

    def _check_fit(self) -> list[str]:
        problems = checks.check_table(self.out / "summary.csv", self.names, 5)
        problems += checks.check_table(
            self.out / "histograms.csv", [n for n in self.names for _ in range(40)], 3
        )
        sampler = FIT_CONFIG["sampler"]
        draws, bad = checks.read_draws(
            self.out / "draws.csv", sampler["chains"], sampler["draws"], self.names
        )
        if draws is None:
            return problems + bad
        far, ess = checks.check_against_map(draws, self.names, self.mode)
        self.min_ess.append(float(ess.min()))
        return problems + far

    def _check_ablate(self) -> list[str]:
        return checks.check_table(self.out / "ablation.csv", ("base", *ABLATE_PREDICTORS), 6)

    def save(self) -> None:
        self.hash_file.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def environment(workload: str, seed: int, sampler_seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = out.stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "sampler_seed": sampler_seed,
    }


def layer_metrics(
    records: list[dict], traced: list[Invocation], untraced_median: dict[str, float], triples
) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's commands."""
    spans, counts, seconds, fits, imports = [], {}, {}, [], []
    for rec in records:
        spans += spans_from_dict(rec)
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, s in rec["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + s
        fits += rec["fits"]
        imports.append(rec["import_s"])
    own = self_times(spans)

    def secs(name: str) -> float:
        return inclusive_seconds(spans, name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    grads = counts.get("inference.grad", 0)
    iterations = sum(f["iterations"] for f in fits)
    pairs = sum(2 * len(t.source_trees) for t in triples)
    m = {
        "cli.import.s": statistics.mean(imports),
        "cli.self.s": sum(own[(s.run_id, s.id)] for s in spans if s.name.startswith("cli.")),
        "trees.parse_ptb.s": secs("trees.parse_ptb"),
        "trees.parse_ptb.calls": calls("trees.parse_ptb"),
        "trees.parse_conllu.s": secs("trees.parse_conllu"),
        "dataset.feature_passes": calls("cohesion.ted1") / pairs,
        "cohesion.tree_edit_distance.calls": counts.get("cohesion.tree_edit_distance", 0),
        "cohesion.tree_kernel.calls": counts.get("cohesion.tree_kernel", 0),
        "complexity.s": secs("complexity"),
        "readability.s": secs("readability"),
        "inference.iter.us": secs("inference.sample_posterior") / iterations * 1e6 if iterations else 0.0,
        "inference.grad.us": seconds.get("inference.grad", 0.0) / grads * 1e6 if grads else 0.0,
        "inference.grad_evals": grads,
        "inference.min_ess_per_kgrad": min(
            (f["min_ess"] / (f["grad_evals"] / 1000.0) for f in fits), default=0.0
        ),
        "inference.accept_rate": statistics.mean(f["accept_rate"] for f in fits) if fits else 0.0,
        "inference.divergences": sum(f["divergences"] for f in fits),
        "selection.fits": counts.get("selection.fits", 0),
        "trace.overhead": sum(t.ref_seconds for t in traced)
        / sum(untraced_median[t.command] for t in traced)
        - 1.0,
    }
    for name in (
        "dataset.load_triples",
        "dataset.load_judgments",
        "dataset.extract_features",
        "dataset.build_design_matrix",
        "dataset.report_tables",
        "cohesion.ted1",
        "cohesion.ted2",
        "cohesion.kernel.subset",
        "cohesion.kernel.subtree",
        "cohesion.overlap",
        "inference.sample_posterior",
        "inference.summarize",
        "inference.draws_to_csv",
        "selection.pointwise_loglik",
        "selection.waic",
        "selection.compare",
    ):
        m[f"{name}.s"] = secs(name)
    return m


def _spread(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.4f} (n=1)"
    return (
        f"{statistics.median(values):.4f} (min {min(values):.4f}, "
        f"max {max(values):.4f}, n={len(values)})"
    )


def set_up(work: Path, seed: int, runner: Runner, common: list[str]):
    """Inputs from the seed plus one warm-up command (not counted as a
    measured command) that fills the bytecode and page caches, repeated
    ``SETUPS`` times. Returns the set-up times and the warm-up
    invocations."""
    times, warm_ups = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        shutil.rmtree(work / "data", ignore_errors=True)
        make_demo_dataset(work / "data", n_triples=N_TRIPLES, n_workers=N_WORKERS, seed=seed)
        (work / "ablate.json").write_text(json.dumps(ABLATE_CONFIG))
        (work / "fit.json").write_text(json.dumps(FIT_CONFIG))
        (work / "out" / "report.txt").unlink(missing_ok=True)
        warm = runner.run(["report", *common])
        # The warm-up is most of a set-up, so its probe scales the whole.
        times.append((time.perf_counter() - start) * warm.scale)
        warm_ups.append(warm)
    return times, warm_ups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the command it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sampler_seed = 1000 + args.seed
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    common = [
        "--triples", "data/triples.jsonl",
        "--judgments", "data/judgments.jsonl",
        "--out", "out",
        "--seed", str(sampler_seed),
    ]
    commands = WORKLOADS[args.workload]

    setup_times, invocations = set_up(work, args.seed, runner, common)
    checker = Checker(work, args.seed, args.workload)
    for warm in invocations:
        checker.check(warm)

    rounds: list[list[Invocation]] = []
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        rounds.append([checker.run(runner, [c, *extra, *common]) for c, extra in commands])
    measured = [inv for r in rounds for inv in r]
    invocations += measured
    per_command = {c: [i for i in measured if i.command == c] for c, _ in commands}
    medians = {c: statistics.median(i.ref_seconds for i in v) for c, v in per_command.items()}
    results = {
        "wall_ref_s": sum(medians.values()),
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in r) for r in rounds),
        "setup_s": statistics.median(setup_times),
    }

    layers = None
    if args.trace:
        traced, records = [], []
        for command, extra in commands:
            spans_path = work / f"spans-{command}.json"
            spans_path.unlink(missing_ok=True)
            inv = checker.run(runner, [command, *extra, *common], spans=spans_path)
            if spans_path.exists():
                rec = json.loads(spans_path.read_text())
                records.append(rec)
                inv.problems += [f"traced {command}: no calls to {n}" for n in rec["missing"]]
            else:
                inv.problems.append(f"traced {command} wrote no spans")
            traced.append(inv)
        invocations += traced
        if len(records) == len(commands):
            layers = layer_metrics(records, traced, medians, checker.triples)
    checker.save()

    failed = sum(1 for inv in invocations if inv.problems)
    min_ess = statistics.median(checker.min_ess) if checker.min_ess else 0.0
    summary = {f"{c}_s": medians.get(c, 0.0) for c in ARTIFACTS}
    summary["min_ess"] = min_ess
    summary["min_ess_per_s"] = min_ess / medians["fit"] if min_ess else 0.0
    summary["op_fail_rate"] = failed / len(invocations)

    env = environment(args.workload, args.seed, sampler_seed)
    for c, invs in per_command.items():
        print(f"{c}_s: {_spread([i.ref_seconds for i in invs])} s at reference speed; "
              f"raw wall {_spread([i.seconds for i in invs])} s")
    for name, unit in E2E_UNITS.items():
        print(f"{name}: {results[name]:.4f} {unit}")
    if min_ess:
        print(f"min_ess: {min_ess:.1f} draws; min_ess_per_s: {summary['min_ess_per_s']:.4f} 1/s")
    print(f"op_fail_rate: {summary['op_fail_rate']:.4f} ratio ({failed}/{len(invocations)})")
    for inv in invocations:
        for problem in inv.problems[:3]:
            print(f"FAILED {problem}")
        if len(inv.problems) > 3:
            print(f"FAILED ... {len(inv.problems) - 3} more problems in the results record")
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace:
        values = {**summary, **(layers or {})}
        metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": results[n], "unit": u} for n, u in E2E_UNITS.items()}
    line = {
        "correct": failed == 0 and (layers is not None or not args.trace),
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        **line,
        "env": env,
        "summary": summary,
        "setup_times_s": setup_times,
        "invocations": [asdict(inv) for inv in invocations],
    }
    (results_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
