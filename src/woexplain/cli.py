"""Command line interface for fitting, explaining, and validating.

Subcommands:
    fit       fit a Gaussian class model from a CSV file
    explain   produce a weight-of-evidence explanation for one input
    validate  re-check the exact identities on sampled data rows

Examples:
    woexplain fit --data train.csv --labels diagnosis --mode full --out model.json
    woexplain fit --data train.csv --oracle-cmd './classify.sh' --out model.json
    woexplain explain --model model.json --input @test.csv:0 --attr-size 3 --out report.json
    woexplain explain --model model.json --input 1.5,2.0,0.3 --partition groups.json \\
        --scoring conditional --threshold 2.0 --out report.json
    woexplain validate --model model.json --data train.csv --labels diagnosis --trials 200

Exit codes: 0 success, 1 validation failure, 2 usage or configuration
error, 3 I/O or oracle failure. Set WOE_LOG_LEVEL to error, info, or
debug to control logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .contrast import ContrastParams
from .data import _parse_records, _read_records, load_csv, load_partition, query_oracle
from .errors import (
    ConfigError,
    CsvParseError,
    InvalidModelError,
    OracleProtocolError,
    WoeError,
)
from .explain import (
    CONDITIONAL_CHAIN,
    FIXED,
    GREEDY_MAX_WOE,
    MARGINAL,
    RANDOM,
    ExplainerParams,
    explain,
    report_to_dict,
    write_report,
)
from .gaussian import DIAGONAL, FULL, fit, load_model, save_model
from .validate import run_validation

log = logging.getLogger("woexplain")

_SCORING = {"conditional": CONDITIONAL_CHAIN, "marginal": MARGINAL}
_ORDERING = {"greedy": GREEDY_MAX_WOE, "fixed": FIXED, "random": RANDOM}
_MODES = {"diag": DIAGONAL, "full": FULL}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woexplain",
        description="Contrastive weight-of-evidence explanations for classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a Gaussian class model from CSV data")
    p_fit.add_argument("--data", required=True, help="training CSV with a header row")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--labels", help="name of the label column in the CSV")
    src.add_argument("--oracle-cmd", help="shell command labeling one CSV row per line")
    p_fit.add_argument("--mode", choices=sorted(_MODES), default="full",
                       help="covariance structure (default: full)")
    p_fit.add_argument("--variance-floor", type=float, default=None,
                       help="ridge added to covariances (default: auto from data scale)")
    p_fit.add_argument("--out", required=True, help="where to write the model JSON")

    p_exp = sub.add_parser("explain", help="explain one input against a fitted model")
    p_exp.add_argument("--model", required=True, help="model JSON from fit")
    p_exp.add_argument("--input", required=True,
                       help="row spec: @file.csv:ROWINDEX or an inline vector v1,v2,...")
    attr = p_exp.add_mutually_exclusive_group(required=True)
    attr.add_argument("--partition", help="JSON file of named feature groups")
    attr.add_argument("--attr-size", type=int,
                      help="discover groups of this many features instead")
    p_exp.add_argument("--lenient-partition", action="store_true",
                       help="collect unassigned features into a residual group")
    p_exp.add_argument("--scoring", choices=sorted(_SCORING), default="conditional",
                       help="conditional chain scores or per-attribute marginals")
    p_exp.add_argument("--threshold", type=float, default=ExplainerParams.display_threshold,
                       help="|woe| display threshold in nats (default: %(default)s)")
    p_exp.add_argument("--alpha-reg", type=float, default=ContrastParams.alpha_reg,
                       help="contrast-size regularizer coefficient (default: %(default)s)")
    p_exp.add_argument("--ordering", choices=sorted(_ORDERING), default="greedy",
                       help="attribute order in conditional mode (default: greedy)")
    p_exp.add_argument("--seed", type=int, default=ExplainerParams.ordering_seed,
                       help="seed for the random ordering policy")
    p_exp.add_argument("--max-exhaustive", type=int,
                       default=ContrastParams.max_exhaustive_classes,
                       help="class-count cap for exhaustive contrast search")
    p_exp.add_argument("--out", required=True, help="where to write the report JSON")

    p_val = sub.add_parser("validate", help="run the invariant suite on sampled rows")
    p_val.add_argument("--model", required=True, help="model JSON from fit")
    p_val.add_argument("--data", required=True, help="CSV of rows to sample")
    p_val.add_argument("--labels", default=None,
                       help="label column to exclude from the data, if present")
    p_val.add_argument("--trials", type=int, default=100, help="rows to sample (default: 100)")
    p_val.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("WOE_LOG_LEVEL", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(levels.get(level_name, logging.ERROR))


def _parse_input_row(spec: str, feature_names: tuple[str, ...]) -> np.ndarray:
    """Resolve a row spec: @file.csv:ROWINDEX or an inline vector.

    File rows are matched to the model by header name when the file
    carries all of the model's features (extra columns, such as a label,
    are ignored); otherwise the row is taken positionally.
    """
    n_features = len(feature_names)
    if spec.startswith("@"):
        path, sep, index_text = spec[1:].rpartition(":")
        if not sep or not path:
            raise ConfigError("row spec must look like @file.csv:ROWINDEX")
        try:
            row = int(index_text)
        except ValueError:
            raise ConfigError(f"row index {index_text!r} is not an integer") from None
        # the file is read once: its header picks the columns its body is parsed for
        header, body = _read_records(path)
        by_name = tuple(header) != feature_names and set(feature_names) <= set(header)
        dataset = _parse_records(header, body, columns=feature_names if by_name else None)
        if not 0 <= row < dataset.n_rows:
            raise ConfigError(f"row {row} outside 0..{dataset.n_rows - 1} in {path}")
        values = dataset.rows[row]
    else:
        try:
            values = np.array([float(tok) for tok in spec.split(",")])
        except ValueError:
            raise ConfigError(f"could not parse inline vector {spec!r}") from None
    if values.size != n_features:
        raise ConfigError(
            f"input has {values.size} features, model expects {n_features}"
        )
    return values


def _cmd_fit(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data, label_column=args.labels)
    if args.labels is not None:
        labels = dataset.labels
    else:
        log.info("querying oracle command for %d rows", dataset.n_rows)
        labels = query_oracle(args.oracle_cmd, dataset)
    model = fit(
        dataset.rows,
        labels,
        mode=_MODES[args.mode],
        variance_floor=args.variance_floor,
        feature_names=dataset.header,
    )
    save_model(model, args.out)
    print(f"fitted {model.mode} model: {dataset.n_rows} rows, "
          f"{model.n_features} features, {model.n_classes} classes")
    if dataset.label_mapping is not None:
        for text, label in sorted(dataset.label_mapping.items(), key=lambda kv: kv[1]):
            print(f"  label {label} <- {text!r}")
    counts = np.bincount(labels, minlength=model.n_classes)
    for c in range(model.n_classes):
        print(f"  class {c}: count {int(counts[c])}, prior {float(model.priors[c])!r}")
    print(f"model written to {args.out}")
    return 0


def _print_report(doc: dict, feature_names: tuple[str, ...]) -> None:
    """Render the report dict; a view only, nothing is recomputed."""
    print(f"predicted class: {doc['predicted_class']}")
    for t, step in enumerate(doc["steps"], start=1):
        entailed = ",".join(str(c) for c in step["entailed"])
        contrast = ",".join(str(c) for c in step["contrast"])
        print(f"step {t}: entailed {{{entailed}}} vs contrast {{{contrast}}}")
        print(f"  prior log-odds:     {step['prior_log_odds']:.12g}")
        print(f"  posterior log-odds: {step['posterior_log_odds']:.12g}")
        print(f"  {'attribute':<44} {'woe':>16}  display")
        for attr in step["attributes"]:
            name = attr.get("name")
            if name is None:
                name = " ".join(feature_names[i] for i in attr["features"])
            shown = name if len(name) <= 44 else name[:41] + "..."
            mark = "*" if attr["displayed"] else ""
            print(f"  {shown:<44} {attr['woe']:>+16.6f}  {mark}")
        total = sum(a["woe"] for a in step["attributes"])
        if step["scoring_mode"] == CONDITIONAL_CHAIN:
            print(f"  prior + sum of woe: {step['prior_log_odds'] + total:.12g}")


def _cmd_explain(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    values = _parse_input_row(args.input, model.feature_names)
    partition = None
    if args.partition is not None:
        partition = load_partition(
            args.partition,
            feature_names=model.feature_names,
            lenient=args.lenient_partition,
        )
    params = ExplainerParams(
        partition=partition,
        attribute_size=args.attr_size,
        scoring_mode=_SCORING[args.scoring],
        display_threshold=args.threshold,
        ordering_policy=_ORDERING[args.ordering],
        ordering_seed=args.seed,
        contrast=ContrastParams(
            alpha_reg=args.alpha_reg,
            max_exhaustive_classes=args.max_exhaustive,
        ),
    )
    log.info("explaining input against %d-class model", model.n_classes)
    report = explain(values, model, params)
    write_report(report, args.out)
    _print_report(report_to_dict(report), model.feature_names)
    print(f"report written to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_csv(args.data, label_column=args.labels)
    checks = run_validation(model, dataset.rows, trials=args.trials, seed=args.seed)
    failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed = failed or not check.passed
        print(f"{status}  {check.name}: max deviation {check.max_deviation:.3e} "
              f"(tolerance {check.tolerance:.0e}) {check.detail}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handlers = {"fit": _cmd_fit, "explain": _cmd_explain, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (WoeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (CsvParseError, OracleProtocolError, OSError)):
            return 3
        return 1 if isinstance(exc, InvalidModelError) else 2


if __name__ == "__main__":
    sys.exit(main())
