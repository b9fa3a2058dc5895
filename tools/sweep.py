"""Compare every public route of two woexplain source trees, outcome by outcome.

    python tools/sweep.py OLD_TREE NEW_TREE [--seeds N]

Each tree is a checkout holding src/woexplain. Both run the same seeded
cases in their own process: OLD_TREE under PYTHONHASHSEED=1 and
NEW_TREE under PYTHONHASHSEED=2, so a tree swept against itself also
checks that its outputs do not depend on hash order. Seed s builds a
random model of 2-12 classes and 2-16 features, full covariance for
even s (for every tenth s with eigenvalues spread over ten decades) and
diagonal for odd s, takes inputs 1, 50, 3e3 or 1e160 units from a class
mean, and runs:

- every class's class_conditional_log_density of every prefix of a
  random order;
- posterior and bayes_decomposition;
- woe_conditional_many with an empty and a nonempty prefix;
- woe_chain, and every class's class_conditional_log_density of a
  target with an empty and a nonempty prefix;
- score_subset of the entailed set, of the contrast set and of every
  class;
- explain over {partition, discovery} x {conditional_chain, marginal}
  x {greedy, fixed, random}, as report JSON;
- run_validation: 4 trials over 6 rows, and 300 trials over 40 rows,
  so that rows repeat;
- on partial evidence, NaN in every unobserved slot: woe,
  posterior_log_odds, bayes_decomposition, best_contrast, woe_chain and
  woe_conditional_many;
- on a CSV file of the model's features, a label column y and, for some
  seeds, a text id column, in a random column order, with hostile cells
  (padding, underscores, non-ASCII digits, non-finite and empty cells,
  whitespace-only lines, trailing commas) and a label column of integers
  or of a mix of 2, " 0 ", 1.0, 1e0, 0.5, -1, 1e300, nan and text cells,
  quoted cells holding a comma or a line break, and a space before a quote:
  load_csv with the label, with the label and the features named, and
  with every column as a feature, and the CLI's @file.csv:ROW for one
  random ROW, each on the file and on its csv.QUOTE_ALL copy; then the
  CLI's @file.csv:ROW for every ROW from 0 to one past the last record,
  on both files;
- the same on a second file, always with an id column, whose id cells
  and some feature cells hold the characters str.splitlines() breaks a
  line at and the csv module does not (vertical tab, form feed, the
  file, group and record separators, next line, and Unicode's line and
  paragraph separators);
- the same on a third file, always with an id column, whose id cells
  and some feature cells hold a quoted \\n, \\r or \\r\\n, and on a
  copy of it that ends its lines with a bare \\r;
- load_partition, strict and lenient, of a random partition file whose
  groups name their features by name or index, with every group named
  (seed % 3 == 2), none (seed % 3 == 1) or some: as drawn; where there
  are groups enough, with a feature also in a second group, with a group
  left out, and with both; and with one group holding a repeated
  feature, an unknown name, an index of n or -1, true, a float, or
  nothing;
- model_from_dict of the model's document, as saved and with one class
  holding a text prior, a text or true mean entry, a text variance or
  covariance entry, integer means, a mean entry of 10**400 and, for a
  diagonal model, integer variances; then of the model as a version-1
  document, whole covariance matrices in full mode, and, for a full
  model, of a version-2 document that keeps whole rows;
- the CLI's validate, 5 trials at seed 0 with the label column y, of the
  saved model on every CSV file above: plain, quoted and bare-\r copies;
- run_validation, 20 trials over 20 far rows: class means plus 3e3 or
  1e6 times N(0, 1) in every feature.

An outcome is the exact repr of what a call returns, or the type and
message of what it raises, plus the warnings it emits. A differing
outcome is "within the contract" (README, "Numerics contract") when
its kind, its warnings and, for an error, its type and message are the
same; its text is the same once every number, and validate's "worst at
row N", is masked, so every PASS/FAIL, passed= flag, class, group,
order and entailed set is the same; every integer is the same; and
every other number moves by at most CONTRACT_SLACK * eps * kappa *
(S + its own magnitude). kappa is the largest condition number of the
seed's class covariances (1 for a diagonal model) and S sums, over the
rows the case reads, each row's finite sum over classes of |log prior|
+ |J|: the seed's input alone, or all of a validate case's rows, whose
reported trial, and so its deviation and tolerance, rounding may move
from one row to another. Both are computed with numpy alone (solve and
slogdet), so they do not depend on the tree. The sweep prints the
counts of identical, within-the-contract and other differing outcomes,
each case family's largest relative difference and largest ratio to
its bound, and the first ten other differences, and exits 1 on any
other difference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

SCALES = (1.0, 50.0, 3e3, 1e160)
FAR_SCALES = (3e3, 1e6)  # of the far-row validate family
HOSTILE_CELLS = ("\x1f4\x1f", " 7 ", "\u00a03\u00a0", "1_0", "\u0661\u0662", "1e999", "nan",
                 "-inf", "", " ", "oops")
LABEL_CELLS = ("2", " 0 ", "1.0", "1e0", "0.5", "-1", "1e300", "nan", "cat", '"1,0"', '"a\nb"',
               ' "2"')
# every character str.splitlines() ends a line at but the csv module reading a file does not
BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# each as padding, inside a number and alone
BREAK_CELLS = tuple(cell for c in BREAKS for cell in (f"{c}7{c}", f"1{c}5", c))
# the line breaks the csv module reads, each quoted as padding, inside a number and alone
QUOTED_BREAKS = ("\n", "\r", "\r\n")
QUOTED_BREAK_CELLS = tuple(f'"{cell}"' for c in QUOTED_BREAKS
                           for cell in (f"{c}7{c}", f"1{c}5", c))
SHOWN = 10  # differences listed
# c of the contract's bound c * eps * kappa * sum of |terms|, as in tests/oracles.py
CONTRACT_SLACK = 16.0
# validate's reported row follows the worst trial, which rounding may move
WORST_ROW = re.compile(r"worst at row \d+")
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def _outcome(call) -> list:
    """[kind, text, warnings] of one call: its exact result, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            kind, text = "value", call()
        except Exception as exc:  # every error is an outcome to compare
            kind, text = "error", f"{type(exc).__name__}: {exc}"
    return [kind, text, sorted({f"{w.category.__name__}: {w.message}" for w in caught})]


def _model(rng, seed: int, wx):
    """A random model for seed: full for even seeds, diagonal for odd.

    Every tenth seed (an even one divisible by 5) is ill-conditioned.
    """
    import numpy as np

    k, n = int(rng.integers(2, 13)), int(rng.integers(2, 17))
    mode = "full" if seed % 2 == 0 else "diagonal"
    means = rng.normal(0.0, 2.0, size=(k, n))
    if mode == "full":
        spread = np.logspace(0.0, -10.0, n) if seed % 5 == 0 else rng.uniform(0.2, 2.0, (k, n))
        q = np.linalg.qr(rng.normal(size=(k, n, n)))[0]
        covs = (q * np.broadcast_to(spread, (k, n))[:, None, :]) @ q.transpose(0, 2, 1)
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    else:
        covs = rng.uniform(0.2, 2.0, size=(k, n))
    priors = rng.dirichlet(np.ones(k))
    return wx.GaussianClassModel(means=means, covariances=covs, priors=priors / priors.sum(),
                                 mode=mode, feature_names=[f"f{i}" for i in range(n)]).validate()


def _contract_scale(model, rows) -> list:
    """[kappa, S] of a model and the rows a case reads: the contract's factors (module doc)."""
    import numpy as np

    rows = np.asarray(rows, dtype=float).reshape(-1, model.n_features)
    dev = rows[None] - model.means[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if model.mode == "full":
            kappa = float(np.linalg.cond(model.covariances).max())
            logdet = np.linalg.slogdet(model.covariances)[1]
            white = np.linalg.solve(model.covariances[:, None], dev[..., None])[..., 0]
            quad = np.einsum("kri,kri->kr", dev, white)
        else:
            kappa = 1.0
            logdet = np.log(model.covariances).sum(axis=1)
            quad = (dev * dev / model.covariances[:, None]).sum(axis=2)
        joint = -0.5 * (model.n_features * np.log(2.0 * np.pi) + logdet[:, None] + quad)
        total = (np.abs(np.log(model.priors))[:, None] + np.abs(joint)).sum(axis=0)
    return [kappa, float(total[np.isfinite(total)].sum())]


def _cases(seed: int) -> list:
    """[key, outcome, [kappa, S]] of every route for one seed (_contract_scale)."""
    import numpy as np
    import woexplain as wx

    rng = np.random.default_rng(seed)
    scale = SCALES[(seed // 2) % len(SCALES)]
    out = []

    def record(key, call, rows=None):
        """rows: what the call reads, for the contract's S; the seed's input x if None."""
        scale = x_scale if rows is None else _contract_scale(model, rows)
        out.append([f"{seed}/{key}", _outcome(call), scale])

    model = _model(rng, seed, wx)
    k, n = model.n_classes, model.n_features

    def row():
        return model.means[int(rng.integers(k))] + scale * rng.normal(size=n)

    def subset(pool, size):
        return tuple(int(i) for i in rng.choice(pool, size=size, replace=False))

    x = row()
    x_scale = _contract_scale(model, x)
    perm = rng.permutation(k)
    cut = int(rng.integers(1, k))
    a, b = sorted(int(c) for c in perm[:cut]), sorted(int(c) for c in perm[cut:])
    order = [int(i) for i in rng.permutation(n)]

    def densities(target, prefix):
        return repr([model.class_conditional_log_density(c, target, x[target], prefix, x[prefix])
                     for c in range(k)])

    for m in range(n + 1):
        record(f"class_conditional_log_density/{m}", lambda m=m: densities(order[:m], []))
    record("posterior", lambda: repr(wx.posterior(model, x).tolist()))
    record("bayes_decomposition", lambda: repr(wx.bayes_decomposition(a, b, x, model)))
    targets = [subset(n, int(rng.integers(1, n + 1))) for _ in range(4)]
    record("woe_conditional_many/empty",
           lambda: repr(wx.woe_conditional_many(a, b, targets, (), x, model).tolist()))
    prefix = subset(n, int(rng.integers(1, n)))
    free = [i for i in range(n) if i not in prefix]
    targets = [subset(free, int(rng.integers(1, len(free) + 1))) for _ in range(4)]
    record("woe_conditional_many/prefix",
           lambda: repr(wx.woe_conditional_many(a, b, targets, prefix, x, model).tolist()))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                             replace=False))
    groups = [tuple(int(i) for i in g) for g in np.split(np.array(order), cuts)]
    record("woe_chain", lambda: repr(wx.woe_chain(a, b, groups, x, model)))
    target = list(targets[0])
    for key, p in (("empty", []), ("prefix", list(prefix))):
        record(f"class_conditional_log_density/{key}", lambda p=p: densities(target, p))
    for key, u in (("entailed", a), ("contrast", b), ("all", range(k))):
        record(f"score_subset/{key}", lambda u=u: repr(
            wx.score_subset(u, range(k), x, model, wx.ContrastParams(alpha_reg=0.3))))
    partition = wx.AttributePartition(tuple(groups))
    size = int(rng.integers(1, min(3, n) + 1))
    for source, extra in (("partition", {"partition": partition}),
                          ("discovery", {"attribute_size": size})):
        for scoring in ("conditional_chain", "marginal"):
            for ordering in ("greedy_max_woe", "fixed", "random"):
                params = wx.ExplainerParams(scoring_mode=scoring, ordering_policy=ordering,
                                            ordering_seed=seed, **extra)
                record(f"explain/{source}/{scoring}/{ordering}",
                       lambda params=params: json.dumps(
                           wx.report_to_dict(wx.explain(x, model, params))))
    data = np.array([row() for _ in range(6)])
    record("run_validation", lambda: repr(wx.run_validation(model, data, trials=4, seed=seed)),
           data)
    rows = np.array([row() for _ in range(40)])
    record("run_validation/repeated",
           lambda: repr(wx.run_validation(model, rows, trials=300, seed=seed)), rows)

    # partial evidence, NaN in every unobserved slot; drawn last, so the cases above keep theirs
    seen = [int(i) for i in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
    mask = np.zeros(n, dtype=bool)
    mask[seen] = True
    partial = wx.Evidence(np.where(mask, x, np.nan), mask)
    record("partial/woe", lambda: repr(wx.woe(a, b, partial, model)))
    record("partial/posterior_log_odds", lambda: repr(wx.posterior_log_odds(a, b, partial, model)))
    record("partial/bayes_decomposition",
           lambda: repr(wx.bayes_decomposition(a, b, partial, model)))
    record("partial/best_contrast",
           lambda: repr(wx.best_contrast(range(k), a[0], partial, model, wx.ContrastParams())))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, len(seen)),
                                             size=int(rng.integers(0, len(seen))), replace=False))
    groups = [tuple(int(i) for i in g) for g in np.split(np.array(seen), cuts)]
    record("partial/woe_chain", lambda: repr(wx.woe_chain(a, b, groups, partial, model)))
    prefix = tuple(seen[:int(rng.integers(0, len(seen)))])
    free = seen[len(prefix):]
    targets = [subset(free, int(rng.integers(1, len(free) + 1))) for _ in range(4)]
    record("partial/woe_conditional_many",
           lambda: repr(wx.woe_conditional_many(a, b, targets, prefix, partial, model).tolist()))

    # CSV reading, drawn after every case above so those keep their inputs
    from woexplain import cli

    names = list(model.feature_names)
    written = []  # (tag, key, path) of every CSV file, for validate
    csv_rows = {}  # each tag's drawn rows, for the contract's S of its validate cases

    def dataset(ds):
        labels = None if ds.labels is None else ds.labels.tolist()
        return repr((ds.header, ds.rows.shape, ds.rows.tolist(), labels, ds.label_mapping,
                     ds.label_name, ds.label_index))

    def csv_cases(tag, header, hostile, id_cell, cr_copy=False):
        """Every CSV case of one random file of header, of its csv.QUOTE_ALL copy and,
        with cr_copy, of a copy whose lines end with a bare \\r."""
        label_kinds = rng.choice(LABEL_CELLS, size=int(rng.integers(1, 4)))
        integral = rng.random() < 0.5
        lines = [",".join(header)]
        for r in range(int(rng.integers(0, 12))):
            values = row()
            csv_rows.setdefault(tag, []).append(values)
            cells = dict(zip(names, map(repr, values.tolist())), id=id_cell(r))
            cells["y"] = str(rng.integers(0, k)) if integral else str(rng.choice(label_kinds))
            for name in names:
                if rng.random() < 0.02:
                    cells[name] = str(rng.choice(hostile))
            line = ",".join(cells[h] for h in header)
            lines.append(" " if rng.random() < 0.02 else
                         line + ("," if rng.random() < 0.02 else ""))
        stem = "sweep" if tag == "csv" else f"sweep-{tag}"
        plain, quoted = Path(f"{stem}-{seed}.csv"), Path(f"{stem}-{seed}-quoted.csv")
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(csv.reader(lines))
        files = [("plain", plain), ("quoted", quoted)]
        if cr_copy:
            cr = Path(f"{stem}-{seed}-cr.csv")
            cr.write_text("\r".join(lines) + "\r", encoding="utf-8", newline="")
            files.append(("cr", cr))
        written.extend((tag, key, path) for key, path in files)
        spec = f":{int(rng.integers(0, len(lines)))}"
        for key, path in files:
            record(f"{tag}/{key}/label", lambda path=path: dataset(wx.load_csv(path, "y")))
            record(f"{tag}/{key}/columns",
                   lambda path=path: dataset(wx.load_csv(path, "y", names)))
            record(f"{tag}/{key}/all", lambda path=path: dataset(wx.load_csv(path)))
            record(f"{tag}/{key}/row", lambda path=path: repr(
                cli._parse_input_row(f"@{path}{spec}", model.feature_names).tolist()))
        # every row of every file, one past the end included
        for key, path in files:
            for r in range(len(lines)):
                record(f"{tag}/{key}/rows/{r}", lambda path=path, r=r: repr(
                    cli._parse_input_row(f"@{path}:{r}", model.feature_names).tolist()))

    csv_cases("csv", [str(h) for h in rng.permutation(
        names + ["y"] + (["id"] if seed % 3 == 0 else []))], HOSTILE_CELLS, lambda r: f"r{r}")
    # record boundaries, recorded after every case above: each id cell, and some feature
    # cells, hold a character str.splitlines() breaks at and the csv module does not
    csv_cases("breaks", [str(h) for h in rng.permutation(names + ["y", "id"])],
              HOSTILE_CELLS + BREAK_CELLS, lambda r: f"r{rng.choice(BREAKS)}{r}")
    # quoted line breaks the csv module keeps in their cells, recorded after every case above
    csv_cases("quoted-breaks", [str(h) for h in rng.permutation(names + ["y", "id"])],
              HOSTILE_CELLS + QUOTED_BREAK_CELLS, lambda r: f'"r{rng.choice(QUOTED_BREAKS)}{r}"',
              cr_copy=True)

    # partition files, drawn after every case above: a random valid file, then one fault each
    def partition_file(groups, named):
        return {"groups": [dict({"features": [names[i] if rng.random() < 0.5 else i for i in g]},
                                **({"name": f"g{j}"} if named[j] else {}))
                           for j, g in enumerate(groups)]}

    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                             replace=False))
    groups = [[int(i) for i in g] for g in np.split(rng.permutation(n), cuts)]
    named = [bool(v) for v in rng.random(len(groups)) < (0.5, 0.0, 1.0)[seed % 3]]
    docs = {"valid": partition_file(groups, named)}
    if len(groups) > 1:
        j, m = (int(v) for v in rng.choice(len(groups), size=2, replace=False))
        overlap = [g + [groups[j][0]] if i == m else g for i, g in enumerate(groups)]
        docs["overlap"] = partition_file(overlap, named)
        # the overlap, and a third group left out: the overlap is the error reported
        x = min({0, 1, 2} - {j, m})
        if x < len(groups):
            docs["overlap-missing"] = partition_file(overlap[:x] + overlap[x + 1:],
                                                     named[:x] + named[x + 1:])
        docs["missing"] = partition_file([g for i, g in enumerate(groups) if i != j],
                                         [v for i, v in enumerate(named) if i != j])
    j = int(rng.integers(len(groups)))
    for key, change in (("duplicate", lambda g: g + [g[0]]), ("unknown", lambda g: g + ["nope"]),
                        ("above", lambda g: g + [n]), ("negative", lambda g: [-1] + g),
                        ("bool", lambda g: g + [True]),
                        ("float", lambda g: g + [float(groups[j][0])]), ("empty", lambda g: [])):
        doc = partition_file(groups, named)
        doc["groups"][j]["features"] = change(doc["groups"][j]["features"])
        docs[key] = doc
    for key, doc in docs.items():
        path = Path(f"sweep-{seed}-{key}.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        for mode, lenient in (("strict", False), ("lenient", True)):
            record(f"partition/{key}/{mode}", lambda path=path, lenient=lenient: repr(
                wx.load_partition(path, model.feature_names, lenient=lenient)))

    # model documents, drawn after every case above: text, bool and integer numbers
    def loaded(doc):
        m = wx.model_from_dict(json.loads(json.dumps(doc)))
        return repr((m.priors.tolist(), m.means.tolist(), m.covariances.tolist()))

    key = "cov" if model.mode == "full" else "var"
    c = int(rng.integers(k))
    entry = wx.model_to_dict(model)["classes"][c]
    mean, cov = entry["mean"], entry[key]
    changes = {
        "as-saved": {},
        "text-prior": {"prior": str(entry["prior"])},
        "text-mean": {"mean": [str(mean[0])] + mean[1:]},
        "bool-mean": {"mean": mean[:-1] + [True]},
        f"text-{key}": {key: [["1e0"] + cov[0][1:]] + cov[1:] if key == "cov"
                        else ["1e0"] + cov[1:]},
        "int-mean": {"mean": [int(round(v)) for v in mean]},
        "huge-int-mean": {"mean": [10**400] + mean[1:]},
    }
    if key == "var":
        changes["int-var"] = {"var": [int(v) + 1 for v in cov]}
    for name, fields in changes.items():
        doc = wx.model_to_dict(model)
        doc["classes"][c].update(fields)
        record(f"model/{name}", lambda doc=doc: loaded(doc))

    # the model as format 1 writes it, and whole rows under format 2's number: no draw
    for name, version in (("format-1", 1), ("full-rows-v2", 2)):
        if version == 2 and model.mode != "full":
            continue
        doc = dict(wx.model_to_dict(model), version=version)
        if model.mode == "full":
            for entry, cov in zip(doc["classes"], model.covariances.tolist()):
                entry["cov"] = cov
        record(f"model/{name}", lambda doc=doc: loaded(doc))

    # validate of the saved model on every CSV file, recorded last: no draw
    model_path = Path(f"sweep-{seed}-model.json")
    wx.save_model(model, model_path)

    def validated(path):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["validate", "--model", str(model_path), "--data", str(path),
                             "--labels", "y", "--trials", "5", "--seed", "0"])
        return repr((code, stdout.getvalue(), stderr.getvalue()))

    for tag, key, path in written:
        record(f"{tag}/{key}/validate", lambda path=path: validated(path), csv_rows.get(tag, []))

    # far rows, drawn after every case above so those keep their inputs
    for far_scale in FAR_SCALES:
        far = model.means[rng.integers(k, size=20)] + far_scale * rng.normal(size=(20, n))
        record(f"far/{far_scale:g}/validate",
               lambda far=far: repr(wx.run_validation(model, far, trials=20, seed=seed)), far)
    return out


def _worker(tree: Path, seeds: int) -> None:
    import woexplain

    if not Path(woexplain.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"imported {woexplain.__file__}, not the package under {tree}")
    json.dump([case for seed in range(seeds) for case in _cases(seed)], sys.stdout)


def _run(tree: Path, seeds: int, hash_seed: str) -> list:
    """The cases of one tree, run in a fresh directory that holds the CSV files it writes."""
    tree = tree.resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                               str(tree), "--seeds", str(seeds)],
                              env=env, capture_output=True, text=True, cwd=work)
    if done.returncode:
        sys.exit(f"sweep of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _within_contract(a: list, b: list, kappa: float, magnitude: float):
    """(largest relative difference, largest ratio to the bound) of two outcomes within the
    contract (module doc), or None."""
    if a[0] != b[0] or a[2] != b[2] or a[0] == "error":
        return None
    texts = [WORST_ROW.sub("worst at row #", outcome[1]) for outcome in (a, b)]
    if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
        return None
    relative = ratio = 0.0
    for x, y in zip(NUMBER.findall(texts[0]), NUMBER.findall(texts[1])):
        u, v = float(x), float(y)
        if u == v:
            continue
        if not any(c in x + y for c in ".eE"):
            return None  # a count, a class, a feature or a row
        size = max(abs(u), abs(v))
        bound = CONTRACT_SLACK * sys.float_info.epsilon * kappa * (magnitude + size)
        if not abs(u - v) <= bound:
            return None
        relative, ratio = max(relative, abs(u - v) / size), max(ratio, abs(u - v) / bound)
    return relative, ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_TREE and NEW_TREE")
    old, new = (_run(tree, args.seeds, hash_seed) for tree, hash_seed in zip(args.trees, "12"))
    if [key for key, *_ in old] != [key for key, *_ in new]:
        print("the trees ran different cases")
        return 1
    within, differing = {}, []
    for (key, a, scale), (_, b, _) in zip(old, new):
        if a == b:
            continue
        family = key.split("/")[1]
        moved = _within_contract(a, b, *scale)
        if moved is None:
            differing.append((key, a, b))
        else:
            count, relative, ratio = within.get(family, (0, 0.0, 0.0))
            within[family] = (count + 1, max(relative, moved[0]), max(ratio, moved[1]))
    errors = sum(outcome[0] == "error" for _, outcome, _ in old)
    moved = sum(count for count, _, _ in within.values())
    print(f"{len(old) - moved - len(differing)} identical, {moved} within the contract, "
          f"{len(differing)} other differing outcomes over {args.seeds} seeds "
          f"({errors} of the old tree's outcomes are errors)")
    for family, (count, relative, ratio) in sorted(within.items()):
        print(f"  {family}: {count} within the contract, largest relative difference "
              f"{relative:.2e}, largest ratio to the bound {ratio:.2e}")
    for key, a, b in differing[:SHOWN]:
        print(f"{key}\n  old: {a}\n  new: {b}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
