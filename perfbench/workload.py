"""Run one benchmark workload: set up, measure, check outputs, report.

Started by run.py in a fresh interpreter, one per workload, so that peak
memory is per workload. Every workload is a closed loop: one caller and
one operation at a time, the next sent when the previous returns.

Inputs come from this file's own seeded generator; woexplain receives
only the generated CSV files and arrays. Every operation's output is
checked here, from what the program produced, and an operation that
raises or fails a check counts as failed.

With --trace 0 the result holds the end-to-end metrics. With --trace 1
the rounds run untraced for half the time, then the same operations are
replayed with span wrappers installed (see tracing.py); the result
holds the per-layer metrics of the replay, per explanation, and the
tracing overhead as traced over untraced time. All times are scaled to
a reference CPU speed by the Yardstick.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import shutil
import statistics
import sys
import zlib
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402  (benchmark-local module next to this file)

from woexplain import cli  # noqa: E402
from woexplain.gaussian import load_model  # noqa: E402
from woexplain.types import AttributePartition  # noqa: E402

explain_mod = importlib.import_module("woexplain.explain")
# bound before tracing.traced() wraps numpy.linalg.cholesky with a counter,
# so that the yardstick's kernel is not counted
_cholesky = np.linalg.cholesky

IDENTITY_TOL = 1e-9
# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
VALIDATE_CHECKS = 4


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. `kind` selects the operation the loop runs."""

    kind: str  # "cli-explain", "lib-explain" or "fit-validate"
    classes: int
    features: int
    mode: str  # "full" or "diag"
    train_rows: int
    heldout_rows: int
    fits: int  # CLI fits per round
    slots: int  # explanations per round, each of another held-out row
    group_size: int | None  # fixed partition of equal groups, or None
    attr_size: int | None  # greedy group discovery, or None
    validate_trials: int


WORKLOADS = {
    "cli-chain": Spec("cli-explain", 5, 40, "full", 4000, 1000, 3, 8, 4, None, 10),
    "discover": Spec("lib-explain", 6, 12, "full", 8000, 1000, 4, 6, None, 2, 10),
    "wide-contrast": Spec("lib-explain", 12, 8, "diag", 8000, 1000, 3, 3, 2, None, 1),
    "cli-fit-validate": Spec("fit-validate", 6, 10, "full", 12000, 200, 4, 8, 2, None, 100),
}

TINY = {
    "cli-chain": Spec("cli-explain", 3, 6, "full", 120, 20, 1, 2, 2, None, 5),
    "discover": Spec("lib-explain", 3, 5, "full", 120, 20, 1, 2, None, 2, 5),
    "wide-contrast": Spec("lib-explain", 5, 4, "diag", 120, 20, 1, 2, 2, None, 2),
    "cli-fit-validate": Spec("fit-validate", 3, 4, "full", 300, 20, 1, 1, 2, None, 5),
}

# spread of each class-mean coordinate, times sqrt(features), so that class
# overlap, and with it the number of explanation steps, does not depend on
# the feature count. Classes this far apart are ruled out about one per
# step, so nearly every explanation takes the same number of steps and
# the cost of an explanation varies little from row to row and seed to seed.
SEPARATION = 9.0


# ---------------------------------------------------------------- inputs

def generate(name: str, spec: Spec, rng: np.random.Generator):
    """Class-conditional Gaussian data: training rows with labels, held-out rows.

    The classes (means, covariances, weights) are fixed per workload, so
    every seed explains the same problem; the seed draws the rows.
    """
    k, n = spec.classes, spec.features
    fixed = np.random.default_rng(zlib.crc32(name.encode()))
    means = fixed.normal(0.0, SEPARATION / np.sqrt(n), size=(k, n))
    factors = []
    for _ in range(k):
        if spec.mode == "full":
            a = fixed.normal(size=(n, n)) / np.sqrt(n)
            cov = 0.5 * a @ a.T + np.diag(fixed.uniform(0.5, 1.0, n))
        else:
            cov = np.diag(fixed.uniform(0.5, 2.0, n))
        factors.append(np.linalg.cholesky(cov))
    weights = fixed.uniform(0.7, 1.3, k)
    weights /= weights.sum()

    def sample(rows: int, labels=None):
        y = rng.choice(k, size=rows, p=weights) if labels is None else labels
        x = rng.normal(size=(rows, n))
        for c in range(k):
            x[y == c] = means[c] + x[y == c] @ factors[c].T
        return x, y

    # every class gets at least n + 2 training rows so full covariances fit
    floor = np.repeat(np.arange(k), n + 2)
    x_floor, y_floor = sample(floor.size, floor)
    x_rest, y_rest = sample(spec.train_rows - floor.size)
    train_x = np.vstack([x_floor, x_rest])
    train_y = np.concatenate([y_floor, y_rest])
    order = rng.permutation(train_y.size)
    heldout, _ = sample(spec.heldout_rows)
    return train_x[order], train_y[order], heldout


def feature_names(n: int) -> list[str]:
    return [f"f{i}" for i in range(n)]


def write_csv(path: Path, x: np.ndarray, y: np.ndarray | None = None) -> None:
    names = feature_names(x.shape[1])
    if y is None:
        np.savetxt(path, x, delimiter=",", fmt="%.17g", header=",".join(names), comments="")
    else:
        np.savetxt(path, np.column_stack([x, y]), delimiter=",",
                   fmt=["%.17g"] * x.shape[1] + ["%d"],
                   header=",".join(names + ["y"]), comments="")


def partition(spec: Spec) -> AttributePartition:
    size = spec.group_size
    groups = tuple(tuple(range(s, s + size)) for s in range(0, spec.features, size))
    return AttributePartition(groups, names=tuple(f"g{k}" for k in range(len(groups))))


def write_partition(path: Path, part: AttributePartition) -> None:
    doc = {"groups": [{"name": name, "features": [f"f{i}" for i in group]}
                      for name, group in zip(part.names, part.groups)]}
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------- checks

def check_report(doc: dict, k: int, n: int) -> list[str]:
    """Problems with one explanation report; an empty list means it passed.

    Each step must satisfy prior log-odds + sum of attribute woe =
    posterior log-odds within 1e-9; its attribute groups must partition
    the features; entailed sets must strictly nest from all classes down
    to the predicted class, each contrast being what the step ruled out,
    so the contrasts partition the non-predicted classes.
    """
    problems = []
    predicted = doc["predicted_class"]
    remaining = set(range(k))
    for t, step in enumerate(doc["steps"]):
        entailed, contrast = set(step["entailed"]), set(step["contrast"])
        total = sum(a["woe"] for a in step["attributes"])
        residual = abs(step["prior_log_odds"] + total - step["posterior_log_odds"])
        if not residual < IDENTITY_TOL:
            problems.append(f"step {t}: identity residual {residual:.3e}")
        features = sorted(i for a in step["attributes"] for i in a["features"])
        if features != list(range(n)):
            problems.append(f"step {t}: attribute groups do not partition the features")
        if predicted not in entailed or not entailed < remaining:
            problems.append(f"step {t}: entailed set does not strictly nest")
        if entailed | contrast != remaining or entailed & contrast:
            problems.append(f"step {t}: contrast is not the classes ruled out")
        remaining = entailed
    if remaining != {predicted}:
        problems.append(f"steps end at {sorted(remaining)}, not the predicted class")
    return problems


def structure(doc: dict) -> list:
    """What an explanation says, without its numbers."""
    return [doc["predicted_class"],
            [[step["entailed"], step["contrast"], [a["features"] for a in step["attributes"]]]
             for step in doc["steps"]]]


# ---------------------------------------------------------------- runs

class Yardstick:
    """A fixed piece of work, timed next to every operation, to scale times by.

    On a shared machine other tenants slow this process's CPU by up to
    2x, in bursts and in levels that drift over tens of seconds, so the
    same work can take a third longer in one run than in the next. The
    kernel calls no woexplain code: it parses CSV text into floats, as a
    fit mostly does, and runs small Cholesky factorizations and dict
    work, as explanations do. It is timed after every operation, and an
    operation's time divided by the mean of the kernel times just before
    and just after it is its time in kernel units; times multiplied by
    REFERENCE are the times at the CPU speed where the kernel takes
    REFERENCE seconds.
    """

    # seconds; any constant would do, it only sets the scale of the
    # reported times (the kernel takes about 0.013 s on a shared 2.0 GHz
    # Xeon vCPU)
    REFERENCE = 0.006

    def __init__(self):
        rng = np.random.default_rng(0)
        cells = rng.normal(size=(320, 41))
        self._text = "\n".join(",".join(repr(float(v)) for v in row) for row in cells)
        a = rng.normal(size=(120, 8, 8))
        self._mats = list(a @ a.transpose(0, 2, 1) + 8.0 * np.eye(8))
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time one pass of the kernel; keep and return it."""
        start = perf_counter()
        rows = [[float(cell) for cell in record]
                for record in csv.reader(io.StringIO(self._text))]
        total = float(np.asarray(rows).sum())
        for m in self._mats:
            total += float(np.log(np.diagonal(_cholesky(m))).sum())
            total += sum({i: i * 0.5 for i in range(40)}.values())
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def last(self) -> float:
        return self.samples[-1] if self.samples else self.measure()

    def scale(self, samples: list[float] | None = None) -> float:
        """REFERENCE over the median kernel time, of the given or of all samples."""
        return self.REFERENCE / statistics.median(samples or self.samples)


class Run:
    """One workload's set-up, rounds of operations and their timings.

    A round runs every operation of the workload: `fits` CLI fits of the
    training CSV, a CLI validate of the fitted model, and `slots`
    explanations of the next held-out rows. Rounds spread each
    operation's calls over the whole run; a run that stops mid-round
    stops among the explanations, the most numerous operation. Each
    call's time is kept in yardstick units.
    """

    def __init__(self, name: str, spec: Spec, seed: int, out_dir: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.work = out_dir / f"work-{name}-{seed}"
        self.yardstick = Yardstick()
        self.units: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: list = []
        self.rounds_run = 0

    # -- program calls; each returns (seconds of the call alone, problems)

    def cli(self, argv: list[str]) -> tuple[float, int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        return elapsed, code, stdout.getvalue()

    def fit(self) -> tuple[float, list[str]]:
        elapsed, code, _ = self.cli(["fit", "--data", str(self.train_csv), "--labels", "y",
                                     "--mode", self.spec.mode, "--out", str(self.model_path)])
        if code != 0:
            return elapsed, [f"fit exited {code}"]
        model = load_model(self.model_path)
        if (model.n_classes, model.n_features) != (self.spec.classes, self.spec.features):
            return elapsed, ["the fitted model reloads with the wrong shape"]
        return elapsed, []

    def validate(self) -> tuple[float, list[str]]:
        elapsed, code, out = self.cli(["validate", "--model", str(self.model_path),
                                       "--data", str(self.train_csv), "--labels", "y",
                                       "--trials", str(self.spec.validate_trials)])
        lines = [ln for ln in out.splitlines() if ln.strip()]
        self.outputs.append([ln.split(":")[0] for ln in lines])
        if code != 0 or len(lines) != VALIDATE_CHECKS or not all(
                ln.startswith("PASS") for ln in lines):
            return elapsed, [f"validate exited {code}: {out.strip()}"]
        return elapsed, []

    def explain(self, row: int) -> tuple[float, list[str]]:
        if self.spec.kind == "lib-explain":
            x = self.heldout[row]
            start = perf_counter()
            report = explain_mod.explain(x, self.model, self.params)
            elapsed = perf_counter() - start
            doc = explain_mod.report_to_dict(report)
        else:
            elapsed, code, _ = self.cli([
                "explain", "--model", str(self.model_path),
                "--input", f"@{self.heldout_csv}:{row}",
                "--partition", str(self.partition_path), "--out", str(self.report_path)])
            if code != 0:
                return elapsed, [f"explain exited {code}"]
            doc = json.loads(self.report_path.read_text(encoding="utf-8"))
        self.outputs.append(structure(doc))
        return elapsed, check_report(doc, self.spec.classes, self.spec.features)

    # -- phases

    def setup(self) -> tuple[float, list[str]]:
        """Generate and write inputs, fit and write the model, reload it, warm up."""
        start = perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        spec = self.spec
        train_x, train_y, self.heldout = generate(
            self.name, spec, np.random.default_rng(self.seed))
        self.train_csv = self.work / "train.csv"
        self.heldout_csv = self.work / "rows.csv"
        self.model_path = self.work / "model.json"
        self.report_path = self.work / "report.json"
        self.partition_path = self.work / "groups.json"
        write_csv(self.train_csv, train_x, train_y)
        if spec.kind == "lib-explain":
            self.params = explain_mod.ExplainerParams(
                partition=partition(spec) if spec.group_size else None,
                attribute_size=spec.attr_size)
        else:
            write_csv(self.heldout_csv, self.heldout)
            write_partition(self.partition_path, partition(spec))
        elapsed = perf_counter() - start
        fit_s, problems = self.fit()
        if problems:
            return elapsed + fit_s, problems
        start = perf_counter()
        # library explanations share one model object, as a caller would
        self.model = load_model(self.model_path)
        elapsed += fit_s + perf_counter() - start
        warm_s, problems = self.explain(spec.heldout_rows - 1)
        self.outputs.clear()
        return elapsed + warm_s, problems

    def record(self, op: str, call) -> list[str]:
        """Make one program call between two yardstick passes; keep its times."""
        before = self.yardstick.last()
        elapsed, problems = call()
        after = self.yardstick.measure()
        self.units[op].append(2.0 * elapsed / (before + after))
        return problems

    def attempt(self, op: str, call) -> None:
        """One operation; a raise or a failed check counts, it does not stop the run."""
        self.attempted += 1
        try:
            problems = self.record(op, call)
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: {'; '.join(problems)}")

    def round_ops(self, r: int, explain_only: bool = False) -> list:
        spec = self.spec
        ops = [] if explain_only else [("fit", self.fit)] * spec.fits + [
            ("validate", self.validate)]
        for m in range(spec.slots):
            row = (r * spec.slots + m) % spec.heldout_rows
            ops.append(("explain", partial(self.explain, row)))
        return ops

    def rounds(self, seconds: float, whole: bool = False) -> int:
        """Run rounds until `seconds` have passed; return how many started.

        The first round always runs whole. After it the deadline is
        checked before every operation, or, with `whole`, before every
        round.
        """
        deadline = perf_counter() + seconds
        r = 0
        while r == 0 or perf_counter() < deadline:
            self.outputs = []
            for op, call in self.round_ops(r):
                if r and not whole and perf_counter() >= deadline:
                    break
                self.attempt(op, call)
            if r == 0:
                self.digest_items = list(self.outputs)
            r += 1
            self.rounds_run = r
        return r

    def scaled(self, op: str) -> list[float]:
        """Times of an operation's calls at the reference CPU speed."""
        return [u * Yardstick.REFERENCE for u in self.units[op]]

    def digest(self) -> str:
        """Hash of what the first round explained and validated, numbers left out."""
        return hashlib.sha256(json.dumps(self.digest_items).encode()).hexdigest()[:16]


def set_up(run: Run, repeats: int) -> None:
    """Set the run up `repeats` times, timing each; stop at a failed set-up."""
    for _ in range(repeats):
        problems = run.record("setup", run.setup)
        if problems:
            raise RuntimeError(f"set-up failed: {problems}")


def end_to_end(run: Run, seconds: float) -> dict:
    set_up(run, SETUP_REPEATS)
    run.rounds(seconds)
    run.speed_factor = run.yardstick.scale()
    explain_s = run.scaled("explain")
    return {
        "explain_per_s": (len(explain_s) / sum(explain_s), "1/s"),
        "explain_p50_s": (statistics.median(explain_s), "s"),
        "fit_s": (statistics.median(run.scaled("fit")), "s"),
        "validate_s": (statistics.median(run.scaled("validate")), "s"),
        "setup_s": (statistics.median(run.scaled("setup")), "s"),
    }


PER_OP_SPANS = {
    # name: (span, field)
    "data.load_csv.calls": ("data.load_csv", "calls"),
    "data.load_csv.s": ("data.load_csv", "s"),
    "data.csv_header.s": ("data.csv_header", "s"),
    "data.load_partition.s": ("data.load_partition", "s"),
    "gaussian.load_model.s": ("gaussian.load_model", "s"),
    "gaussian.save_model.s": ("gaussian.save_model", "s"),
    "gaussian.fit.s": ("gaussian.fit", "s"),
    "gaussian.density.calls": ("gaussian.density", "calls"),
    "gaussian.density.s": ("gaussian.density", "s"),
    "gaussian.posterior.calls": ("gaussian.posterior", "calls"),
    "gaussian.posterior.s": ("gaussian.posterior", "s"),
    "core.woe_conditional.calls": ("core.woe_conditional", "calls"),
    "core.woe_conditional.self_s": ("core.woe_conditional", "self_s"),
    "core.bayes_decomposition.calls": ("core.bayes_decomposition", "calls"),
    "core.bayes_decomposition.s": ("core.bayes_decomposition", "s"),
    "core.woe_chain.calls": ("core.woe_chain", "calls"),
    "core.woe_chain.s": ("core.woe_chain", "s"),
    "contrast.best_contrast.calls": ("contrast.best_contrast", "calls"),
    "contrast.best_contrast.s": ("contrast.best_contrast", "s"),
    "contrast.score_subset.calls": ("contrast.score_subset", "calls"),
    "contrast.score_subset.s": ("contrast.score_subset", "s"),
    "explain.explain.calls": ("explain.explain", "calls"),
    "explain.score_attributes.calls": ("explain.score_attributes", "calls"),
    "explain.score_attributes.self_s": ("explain.score_attributes", "self_s"),
    "explain.write_report.s": ("explain.write_report", "s"),
    "validate.run_validation.s": ("validate.run_validation", "s"),
    "validate.run_validation.self_s": ("validate.run_validation", "self_s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
PER_OP_COUNTERS = ("data.load_csv.bytes", "gaussian.factorizations",
                   "core.woe_conditional.marginal_calls", "contrast.candidates")
UNITS = {"calls": "count/op", "s": "s/op", "self_s": "s/op"}
COUNTER_UNITS = {"data.load_csv.bytes": "B/op"}


def per_layer(run: Run, seconds: float, spans_path: Path) -> dict:
    """Untraced rounds for half the time, then the same rounds traced.

    Explain workloads leave the per-round fit and validate out of the
    traced replay, so their spans cover explanations alone. Metrics are
    per operation; span times are scaled by the yardstick passes of the
    traced replay.
    """
    explain_only = run.spec.kind != "fit-validate"
    traced_ops = ("explain",) if explain_only else ("explain", "fit", "validate")

    def units() -> float:
        return sum(sum(run.units[op]) for op in traced_ops)

    set_up(run, 1)
    run.units.clear()
    rounds = run.rounds(seconds / 2.0, whole=True)
    untraced = units()
    run.units.clear()
    first = len(run.yardstick.samples)
    recorder = tracing.Recorder(op=lambda: run.attempted)
    with tracing.traced(recorder):
        for r in range(rounds):
            for op, call in run.round_ops(r, explain_only):
                run.attempt(op, call)
    traced = units()
    scale = run.yardstick.scale(run.yardstick.samples[first:])
    run.speed_factor = scale
    recorder.write(spans_path)

    # an operation is one explanation, or one round of cli-fit-validate
    ops = rounds * run.spec.slots if explain_only else rounds
    totals = recorder.totals()
    metrics = {}
    for name, (span, field) in PER_OP_SPANS.items():
        value = totals[span][field] if span in totals else 0
        if field != "calls":
            value *= scale
        metrics[name] = (value / ops, UNITS[field])
    for name in PER_OP_COUNTERS:
        metrics[name] = (recorder.counters.get(name, 0) / ops,
                         COUNTER_UNITS.get(name, "count/op"))
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    run = Run(args.workload, spec, args.seed, args.out_dir)
    try:
        if args.trace:
            spans = args.out_dir / f"spans-{args.workload}-{args.seed}.csv"
            metrics = per_layer(run, args.seconds, spans)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for line in run.problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "digest": run.digest(),
        "rounds": run.rounds_run,
        "speed_factor": run.speed_factor,
        "slots": spec.slots,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
