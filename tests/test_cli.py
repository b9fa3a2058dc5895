"""Command line behavior: happy paths, printed identities, exit codes.

Everything runs in-process through main(argv) so stdout/stderr are
captured by capsys and exit codes are the return values.
"""

import csv
import json
import logging
import re
import sys

import numpy as np
import pytest

from woexplain import load_model
from woexplain.cli import main


def write_training_csv(path, n_classes=2, n_features=3, rows_per_class=60, seed=7):
    rng = np.random.default_rng(seed)
    header = [f"f{j}" for j in range(n_features)] + ["target"]
    lines = [",".join(header)]
    for c in range(n_classes):
        block = rng.normal(loc=1.5 * c, scale=1.0, size=(rows_per_class, n_features))
        for row in block:
            lines.append(",".join(repr(float(v)) for v in row) + f",{c}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fit_model(tmp_path, **kwargs):
    data = write_training_csv(tmp_path / "train.csv", **kwargs)
    model_path = tmp_path / "model.json"
    code = main([
        "fit", "--data", str(data), "--labels", "target", "--out", str(model_path),
    ])
    assert code == 0
    return data, model_path


class TestFitCommand:
    def test_reports_counts_and_priors(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        out = capsys.readouterr().out
        assert "fitted full model: 120 rows, 3 features, 2 classes" in out
        assert "class 0: count 60, prior 0.5" in out
        assert f"model written to {model_path}" in out
        model = load_model(model_path)
        assert model.n_classes == 2
        np.testing.assert_allclose(model.priors, [0.5, 0.5])

    def test_text_labels_print_their_mapping(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        rng = np.random.default_rng(8)
        lines = ["x0,x1,kind"]
        for kind, shift in (("benign", 0.0), ("malign", 2.0)):
            for row in rng.normal(shift, 1.0, size=(30, 2)):
                lines.append(f"{float(row[0])!r},{float(row[1])!r},{kind}")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["fit", "--data", str(data), "--labels", "kind",
                     "--mode", "diag", "--out", str(tmp_path / "m.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "label 0 <- 'benign'" in out
        assert "label 1 <- 'malign'" in out
        assert "fitted diagonal model" in out

    def test_oracle_command_labels_the_rows(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "train.csv")
        script = tmp_path / "oracle.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(1 if float(line.split(',')[0]) > 0.75 else 0)\n",
            encoding="utf-8",
        )
        code = main(["fit", "--data", str(data), "--oracle-cmd",
                     f"{sys.executable} {script}", "--out", str(tmp_path / "m.json")])
        assert code == 0
        assert "2 classes" in capsys.readouterr().out

    def test_constant_oracle_is_rejected(self, tmp_path, capsys):
        """A single-class labeling cannot be fitted, and that is exit 2."""
        data = write_training_csv(tmp_path / "train.csv")
        script = tmp_path / "oracle.py"
        script.write_text(
            "import sys\nfor _ in sys.stdin:\n    print(0)\n", encoding="utf-8"
        )
        code = main(["fit", "--data", str(data), "--oracle-cmd",
                     f"{sys.executable} {script}", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_refit_is_byte_identical(self, tmp_path):
        data = write_training_csv(tmp_path / "train.csv")
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["fit", "--data", str(data), "--labels", "target",
                     "--out", str(first)]) == 0
        assert main(["fit", "--data", str(data), "--labels", "target",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestExplainCommand:
    def test_binary_model_single_step(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["explain", "--model", str(model_path), "--input", "1.4,1.6,1.5",
                     "--attr-size", "3", "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted class: 1" in out
        assert "step 1: entailed {1} vs contrast {0}" in out
        assert out.count("step ") == 1
        assert f"report written to {report_path}" in out
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["predicted_class"] == 1

    def test_printed_identity_matches_posterior(self, tmp_path, capsys):
        """In conditional mode the printed sum reproduces the log-odds."""
        _, model_path = fit_model(tmp_path, n_classes=4, rows_per_class=40)
        code = main(["explain", "--model", str(model_path), "--input", "0.2,-0.3,0.4",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        posteriors = [float(m) for m in re.findall(r"posterior log-odds:\s+(\S+)", out)]
        sums = [float(m) for m in re.findall(r"prior \+ sum of woe:\s+(\S+)", out)]
        assert len(posteriors) == len(sums) >= 1
        for post, total in zip(posteriors, sums):
            assert abs(post - total) < 1e-9

    def test_file_row_spec_matches_inline_vector(self, tmp_path):
        """@file:ROW rows resolve by header name, label column ignored."""
        data, model_path = fit_model(tmp_path)
        from woexplain import load_csv

        row = load_csv(data, label_column="target").rows[5]
        inline = ",".join(repr(float(v)) for v in row)
        by_file = tmp_path / "by_file.json"
        by_inline = tmp_path / "by_inline.json"
        assert main(["explain", "--model", str(model_path), "--input", f"@{data}:5",
                     "--attr-size", "3", "--out", str(by_file)]) == 0
        assert main(["explain", "--model", str(model_path), "--input", inline,
                     "--attr-size", "3", "--out", str(by_inline)]) == 0
        assert by_file.read_bytes() == by_inline.read_bytes()

    def test_file_rows_match_inline_vectors(self, tmp_path, capsys):
        """Rows near the start, in the middle and at the end of a 17-record file."""
        _, model_path = fit_model(tmp_path)
        capsys.readouterr()
        rng = np.random.default_rng(12)
        rows = rng.normal(0.75, 1.2, size=(17, 3))
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("f0,f1,f2\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows), encoding="utf-8")
        for r in (1, 7, 16):
            by_file, by_inline = tmp_path / "by_file.json", tmp_path / "by_inline.json"
            assert main(["explain", "--model", str(model_path), "--input", f"@{rows_csv}:{r}",
                         "--attr-size", "1", "--out", str(by_file)]) == 0
            file_out = capsys.readouterr().out
            inline = ",".join(repr(float(v)) for v in rows[r])
            assert main(["explain", "--model", str(model_path), "--input", inline,
                         "--attr-size", "1", "--out", str(by_inline)]) == 0
            assert capsys.readouterr().out.replace(str(by_inline), str(by_file)) == file_out
            assert by_file.read_bytes() == by_inline.read_bytes()

    def test_partition_file_names_appear_in_table(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        partition = tmp_path / "groups.json"
        partition.write_text(json.dumps({"groups": [
            {"name": "pair", "features": ["f0", "f2"]},
            {"name": "solo", "features": ["f1"]},
        ]}), encoding="utf-8")
        code = main(["explain", "--model", str(model_path), "--input", "1,0,1",
                     "--partition", str(partition), "--threshold", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair" in out and "solo" in out

    def test_zero_threshold_marks_everything(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        code = main(["explain", "--model", str(model_path), "--input", "0.5,0.5,0.5",
                     "--attr-size", "1", "--threshold", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        attr_rows = [ln for ln in out.splitlines() if re.search(r"[+-]\d+\.\d{6}", ln)]
        assert attr_rows
        assert all(ln.rstrip().endswith("*") for ln in attr_rows)

    def test_lenient_partition_collects_residual(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        partition = tmp_path / "groups.json"
        partition.write_text(json.dumps({"groups": [
            {"name": "pair", "features": [0, 1]},
        ]}), encoding="utf-8")
        strict = main(["explain", "--model", str(model_path), "--input", "1,1,1",
                       "--partition", str(partition), "--out", str(tmp_path / "r.json")])
        assert strict == 2
        lenient = main(["explain", "--model", str(model_path), "--input", "1,1,1",
                        "--partition", str(partition), "--lenient-partition",
                        "--out", str(tmp_path / "r.json")])
        assert lenient == 0
        assert "residual" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        _, model_path = fit_model(tmp_path, n_classes=3)
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["explain", "--model", str(model_path), "--input", "0.8,0.2,1.1",
                "--attr-size", "2", "--ordering", "random", "--seed", "11"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_dimension_mismatch_names_both_sizes(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        code = main(["explain", "--model", str(model_path), "--input", "1.0,2.0",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    def test_row_spec_errors(self, tmp_path, capsys):
        data, model_path = fit_model(tmp_path)
        for spec, message in [
            ("@nocolon", "row spec must look like @file.csv:ROWINDEX"),
            (f"@{data}:first", "row index 'first' is not an integer"),
            (f"@{data}:9999", f"row 9999 outside 0..119 in {data}"),
            ("1.5,abc,2", "could not parse inline vector '1.5,abc,2'"),
        ]:
            capsys.readouterr()
            code = main(["explain", "--model", str(model_path), "--input", spec,
                         "--attr-size", "1", "--out", str(tmp_path / "r.json")])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestExplainReadsOneRow:
    """explain --input @file.csv:ROW converts record ROW alone; the others are only counted."""

    FAULTS = {
        "bad cell": lambda cells: cells[:1] + ["oops"] + cells[2:],
        "short record": lambda cells: cells[:2],
        "non-finite": lambda cells: cells[:2] + ["-inf"] + cells[3:],
    }

    def explained(self, capsys, model_path, path, row, out):
        """Exit code, stdout (the report path masked) and stderr of one explanation."""
        capsys.readouterr()
        code = main(["explain", "--model", str(model_path), "--input", f"@{path}:{row}",
                     "--attr-size", "2", "--out", str(out)])
        printed = capsys.readouterr()
        return code, printed.out.replace(str(out), "REPORT"), printed.err

    def faulty_copy(self, data_path, tmp_path, kind, record):
        header, *records = data_path.read_text(encoding="utf-8").splitlines()
        records[record] = ",".join(self.FAULTS[kind](records[record].split(",")))
        path = tmp_path / "faulty.csv"
        path.write_text("\n".join([header] + records) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_a_faulty_other_record_is_not_read(self, tmp_path, capsys, kind):
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        clean = tmp_path / "clean.json"
        expected = self.explained(capsys, model_path, data_path, 5, clean)
        assert expected[0] == 0 and expected[2] == ""
        for record in (0, 4, 6, 179):
            path = self.faulty_copy(data_path, tmp_path, kind, record)
            report = tmp_path / "report.json"
            assert self.explained(capsys, model_path, path, 5, report) == expected, record
            assert report.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("kind, message", [
        ("bad cell", "cell 'oops' does not parse as a number (row 6, column 'f1')"),
        ("short record", "expected 4 cells, got 2 (row 6)"),
        ("non-finite", "cell '-inf' is not finite (row 6, column 'f2')"),
    ])
    def test_a_faulty_row_is_named(self, tmp_path, capsys, kind, message):
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        path = self.faulty_copy(data_path, tmp_path, kind, 5)
        report = tmp_path / "report.json"
        assert self.explained(capsys, model_path, path, 5, report) == (3, "", f"error: {message}\n")
        assert not report.exists()

    def test_a_row_out_of_range_is_named_before_any_fault(self, tmp_path, capsys):
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        for kind in self.FAULTS:
            path = self.faulty_copy(data_path, tmp_path, kind, 0)
            for row in (180, -1):
                assert self.explained(capsys, model_path, path, row, tmp_path / "r.json") == (
                    2, "", f"error: row {row} outside 0..179 in {path}\n")

    def test_quoted_and_reordered_copies_give_the_same_report(self, tmp_path, capsys):
        """A csv.QUOTE_ALL copy, and an id-led copy in another column order, matched by name."""
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        header, *records = list(csv.reader(data_path.read_text(encoding="utf-8").splitlines()))
        quoted, reordered = tmp_path / "quoted.csv", tmp_path / "reordered.csv"
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header] + records)
        order = [2, 3, 0, 1]
        reordered.write_text("\n".join(
            [",".join(["id"] + [header[j] for j in order])]
            + [",".join([f"r{i}"] + [record[j] for j in order]) for i, record in enumerate(records)]
        ) + "\n", encoding="utf-8")
        for row in (0, 5, 179):
            clean = tmp_path / "clean.json"
            expected = self.explained(capsys, model_path, data_path, row, clean)
            assert expected[0] == 0
            for path in (quoted, reordered):
                report = tmp_path / "report.json"
                assert self.explained(capsys, model_path, path, row, report) == expected
                assert report.read_bytes() == clean.read_bytes()


class TestValidateCommand:
    def test_fresh_model_passes_every_invariant(self, tmp_path, capsys):
        data, model_path = fit_model(tmp_path, n_classes=3)
        code = main(["validate", "--model", str(model_path), "--data", str(data),
                     "--labels", "target", "--trials", "50"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("bayes-identity", "additivity", "ordering-invariance",
                     "contrast-equivalence"):
            assert f"PASS  {name}" in out
        assert "FAIL" not in out

    def test_corrupted_priors_fail_at_load_time(self, tmp_path, capsys):
        data, model_path = fit_model(tmp_path)
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["classes"][0]["prior"] = 0.4
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", "--model", str(model_path), "--data", str(data),
                     "--labels", "target"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_single_class_model_exits_two(self, tmp_path, capsys):
        data, model_path = fit_model(tmp_path)
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["classes"] = doc["classes"][:1]
        doc["classes"][0]["prior"] = 1.0
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["validate", "--model", str(model_path), "--data", str(data),
                     "--labels", "target", "--trials", "5"])
        assert code == 2
        assert "single class" in capsys.readouterr().err


    @pytest.mark.parametrize("columns", [["id", "f0", "f1", "f2", "target"],
                                         ["f2", "f0", "target", "f1"]])
    def test_columns_are_matched_by_name(self, tmp_path, capsys, columns):
        """validate and explain read a file with an extra or reordered column as the canonical one."""
        data, model_path = fit_model(tmp_path, n_classes=3)
        header, *records = [line.split(",") for line in data.read_text().splitlines()]
        cells = [dict(zip(header, record), id=str(r)) for r, record in enumerate(records)]
        other = tmp_path / "other.csv"
        other.write_text("\n".join([",".join(columns)] + [
            ",".join(row[name] for name in columns) for row in cells]) + "\n")

        def printed(path):
            capsys.readouterr()
            assert main(["validate", "--model", str(model_path), "--data", str(path),
                         "--labels", "target", "--trials", "40", "--seed", "3"]) == 0
            assert main(["explain", "--model", str(model_path), "--input", f"@{path}:17",
                         "--attr-size", "1", "--out", str(tmp_path / "r.json")]) == 0
            return capsys.readouterr().out

        assert printed(other) == printed(data)

    @pytest.mark.parametrize("names", [["f0", "f1", "f2"], ["x0", "x1", "x2"]],
                             ids=["by name", "by position"])
    def test_label_column_is_left_unread(self, tmp_path, capsys, names):
        """--labels names a column validate skips: absent, -1, 1e300 or text, the rows print alike."""
        data, model_path = fit_model(tmp_path, n_classes=3)
        records = [line.split(",") for line in data.read_text().splitlines()]
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(",".join(r[:3]) + "\n" for r in [names] + records[1:]))

        def printed(path):
            capsys.readouterr()
            assert main(["validate", "--model", str(model_path), "--data", str(path),
                         "--labels", "target", "--trials", "30", "--seed", "5"]) == 0
            return capsys.readouterr().out

        expected = printed(bare)
        assert "PASS  bayes-identity" in expected
        for cell in ("-1", "1e300", "benign"):
            labelled = tmp_path / "labelled.csv"
            labelled.write_text(",".join(names) + ",target\n" + "".join(
                ",".join(r[:3] + [cell]) + "\n" for r in records[1:]))
            assert printed(labelled) == expected, cell


class TestValidateReadsOnlyItsSampledRows:
    """validate converts only the records it samples; the others are only counted."""

    FAULTS = TestExplainReadsOneRow.FAULTS
    # the distinct records np.random.default_rng(0).integers(0, 180, size=20) draws
    SAMPLED = [2, 7, 13, 31, 48, 55, 90, 92, 97, 100, 109, 113, 114, 116, 131, 146, 153, 164,
               168, 174]

    def validated(self, capsys, model_path, path, *args):
        """Exit code, stdout and stderr of one validate of 20 trials at seed 0."""
        capsys.readouterr()
        code = main(["validate", "--model", str(model_path), "--data", str(path),
                     "--labels", "target", "--trials", "20", "--seed", "0", *args])
        printed = capsys.readouterr()
        return code, printed.out, printed.err

    def faulty_copy(self, data_path, tmp_path, faults, name="faulty.csv"):
        """data_path with each (kind, record) fault of faults applied."""
        header, *records = data_path.read_text(encoding="utf-8").splitlines()
        for kind, record in faults:
            records[record] = ",".join(self.FAULTS[kind](records[record].split(",")))
        path = tmp_path / name
        path.write_text("\n".join([header] + records) + "\n", encoding="utf-8")
        return path

    def test_the_draw_is_the_listed_one(self):
        rows = np.random.default_rng(0).integers(0, 180, size=20).tolist()
        assert sorted(set(rows)) == self.SAMPLED

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_a_faulty_unsampled_record_is_not_read(self, tmp_path, capsys, kind):
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        expected = self.validated(capsys, model_path, data_path)
        assert expected[0] == 0 and expected[2] == "" and "PASS  bayes-identity" in expected[1]
        for record in (0, 3, 91, 179):
            path = self.faulty_copy(data_path, tmp_path, [(kind, record)])
            assert self.validated(capsys, model_path, path) == expected, record
        path = self.faulty_copy(data_path, tmp_path, [
            (kind, r) for r in range(180) if r not in self.SAMPLED])
        assert self.validated(capsys, model_path, path) == expected

    @pytest.mark.parametrize("kind, message", [
        ("bad cell", "cell 'oops' does not parse as a number (row 14, column 'f1')"),
        ("short record", "expected 4 cells, got 2 (row 14)"),
        ("non-finite", "cell '-inf' is not finite (row 14, column 'f2')"),
    ])
    def test_the_first_faulty_sampled_record_is_named(self, tmp_path, capsys, kind, message):
        """Sampled records 13 and 90 are faulty, and unsampled record 0 is too: record 13 is
        named, with the error a whole-file read gives when it is the first faulty record."""
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        path = self.faulty_copy(data_path, tmp_path, [(kind, 0), (kind, 13), (kind, 90)])
        assert self.validated(capsys, model_path, path) == (3, "", f"error: {message}\n")
        alone = self.faulty_copy(data_path, tmp_path, [(kind, 13)], name="alone.csv")
        assert main(["fit", "--data", str(alone), "--labels", "target",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_malformed_record_anywhere_stops_it(self, tmp_path, capsys):
        """A quoted label cell past csv.field_size_limit() in unsampled record 179 is read by
        the count: exit 3, and before the parameter checks."""
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        text = data_path.read_text(encoding="utf-8")
        head, comma, _ = text.rstrip("\n").rpartition(",")
        limit = csv.field_size_limit()
        path = tmp_path / "long-field.csv"
        path.write_text(head + comma + '"' + "1" * (limit + 1) + '"\n', encoding="utf-8")
        expected = (3, "", f"error: malformed CSV record: field larger than field limit "
                           f"({limit}) (row 180)\n")
        assert self.validated(capsys, model_path, path) == expected
        assert self.validated(capsys, model_path, path, "--trials", "0") == expected

    def test_parameters_are_checked_before_the_sampled_cells(self, tmp_path, capsys):
        """File, header and quoting errors; then the feature count, --trials, --seed and a
        single-class model; then the sampled cells."""
        data_path, model_path = fit_model(tmp_path, n_classes=3)
        path = self.faulty_copy(data_path, tmp_path, [("bad cell", 13)])
        for args, message in (
                (["--trials", "0"], "trials must be an integer >= 1, got 0"),
                (["--seed", "-1"], "seed must be an integer >= 0, got -1")):
            code, out, err = self.validated(capsys, model_path, path, *args)
            assert (code, out) == (2, "") and message in err
        header, *records = path.read_text(encoding="utf-8").splitlines()
        unnamed = tmp_path / "unnamed.csv"
        unnamed.write_text("\n".join(["g0,g1,g2,g3"] + records) + "\n", encoding="utf-8")
        assert self.validated(capsys, model_path, unnamed) == (
            2, "", "error: data shape (180, 4) does not match model with 3 features\n")
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["classes"] = doc["classes"][:1]
        doc["classes"][0]["prior"] = 1.0
        lonely = tmp_path / "lonely.json"
        lonely.write_text(json.dumps(doc), encoding="utf-8")
        assert self.validated(capsys, lonely, path) == (
            2, "", "error: model has a single class, nothing to contrast\n")
        assert self.validated(capsys, model_path, path) == (
            3, "", "error: cell 'oops' does not parse as a number (row 14, column 'f1')\n")


def test_main_leaves_logging_alone(tmp_path, monkeypatch):
    """A program that calls main() in-process keeps its own logging setup."""
    monkeypatch.setattr(logging.root, "handlers", [])
    fit_model(tmp_path)
    assert logging.root.handlers == []
    assert logging.getLogger("woexplain").level == logging.NOTSET


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "absent.csv"),
                     "--labels", "y", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n1,oops,0\n2,3,1\n", encoding="utf-8")
        code = main(["fit", "--data", str(bad), "--labels", "y",
                     "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "row 1, column 'b'" in capsys.readouterr().err

    def test_label_beyond_int64_is_io_error(self, tmp_path, capsys):
        data_path = tmp_path / "big.csv"
        data_path.write_text("x,y\n1,0\n2,1e300\n3,1\n", encoding="utf-8")
        code = main(["fit", "--data", str(data_path), "--labels", "y",
                     "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: label '1e300' is too large for an integer label (row 2, column 'y')\n")
        assert not (tmp_path / "m.json").exists()

    def test_input_beyond_every_density_exits_two(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        code = main(["explain", "--model", str(model_path), "--input", "1e200,0,0",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: the input has no finite joint log density" in err
        assert "comparable score" not in err
        assert not (tmp_path / "r.json").exists()

    def test_bad_cell_in_a_late_record_is_io_error(self, tmp_path, capsys):
        data_path, model_path = fit_model(tmp_path)
        capsys.readouterr()
        lines = data_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 121
        lines[118] = "0.5,oops," + lines[118].split(",", 2)[2]
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = "error: cell 'oops' does not parse as a number (row 118, column 'f1')\n"
        assert main(["fit", "--data", str(data_path), "--labels", "target",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr() == ("", message)
        assert main(["validate", "--model", str(model_path), "--data", str(data_path),
                     "--labels", "target"]) == 3
        assert capsys.readouterr() == ("", message)

    def test_repeated_column_name_is_io_error(self, tmp_path, capsys):
        """No command reads a file whose header names a column twice: fit would read it
        by position and explain and validate by name, the first such column twice."""
        data_path, model_path = fit_model(tmp_path)
        capsys.readouterr()
        lines = data_path.read_text(encoding="utf-8").splitlines()
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("\n".join(["f0,f0,f2,target"] + lines[1:]) + "\n", encoding="utf-8")
        message = "error: header repeats a column name (column 'f0')\n"
        assert main(["fit", "--data", str(repeated), "--labels", "target",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "m.json").exists()
        assert main(["explain", "--model", str(model_path), "--input", f"@{repeated}:45",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr() == ("", message)
        assert main(["validate", "--model", str(model_path), "--data", str(repeated),
                     "--labels", "target"]) == 3
        assert capsys.readouterr() == ("", message)

    def test_text_mean_in_model_is_validation_failure(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        capsys.readouterr()
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc["classes"][1]["mean"] = "123"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["explain", "--model", str(model_path), "--input", "1,2,3",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed class entry: ")

    def test_unreadable_model_is_validation_failure(self, tmp_path, capsys):
        broken = tmp_path / "model.json"
        broken.write_text("{not json", encoding="utf-8")
        code = main(["explain", "--model", str(broken), "--input", "1,2",
                     "--attr-size", "1", "--out", str(tmp_path / "r.json")])
        assert code == 1
        capsys.readouterr()

    def test_usage_errors_exit_two(self, capsys):
        assert main([]) == 2
        assert main(["fit", "--data", "x.csv", "--out", "m.json"]) == 2
        assert main(["explain", "--scoring", "psychic"]) == 2
        capsys.readouterr()

    def test_bad_parameter_exits_two(self, tmp_path, capsys):
        _, model_path = fit_model(tmp_path)
        code = main(["explain", "--model", str(model_path), "--input", "1,2,3",
                     "--attr-size", "1", "--alpha-reg", "-0.5",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        capsys.readouterr()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        data, model_path = fit_model(tmp_path)
        code = main(["explain", "--model", str(model_path), "--input", "1,2,3",
                     "--attr-size", "1", "--ordering", "random", "--seed", "-1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        code = main(["validate", "--model", str(model_path), "--data", str(data),
                     "--labels", "target", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
