"""The runtime needs numpy and the standard library only.

scipy is a test dependency: importing the package loads no other
third-party module, and every CLI command runs, with the same bytes out,
in a process where any scipy import fails. gaussian.cho_factor, which the
package never calls, still resolves for perfbench's tracer by importing
scipy on first read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

FOOTPRINT = """
import sys
before = set(sys.modules)
import woexplain, woexplain.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""

# argv[1]: "block" makes every scipy import raise; each command's stdout
# goes to <command>.out in the working directory, next to its output file
RUN_CLI = """
import contextlib
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from woexplain.cli import main
commands = [
    ["fit", "--data", sys.argv[2], "--labels", "y", "--out", "full.json"],
    ["fit", "--data", sys.argv[2], "--labels", "y", "--mode", "diag", "--out", "diag.json"],
    ["explain", "--model", "full.json", "--input", "@" + sys.argv[2] + ":0",
     "--partition", sys.argv[3], "--out", "partition.json"],
    ["explain", "--model", "diag.json", "--input", "@" + sys.argv[2] + ":5",
     "--attr-size", "2", "--out", "attr-size.json"],
    ["validate", "--model", "full.json", "--data", sys.argv[2], "--labels", "y",
     "--trials", "20"],
]
for i, argv in enumerate(commands):
    with open(f"{i}-{argv[0]}.out", "w") as out, contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
if sys.argv[1] == "block" and loaded != ["scipy"]:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def run_python(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_adds_only_numpy_and_the_stdlib():
    done = run_python([FOOTPRINT])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy", "woexplain"]


def test_cli_runs_with_scipy_blocked(tmp_path):
    rng = np.random.default_rng(3)
    y = np.repeat([0, 1, 2], 20)
    x = rng.normal(1.5 * y[:, None], 1.0, size=(60, 4))
    lines = ["f0,f1,f2,f3,y"] + [",".join(map(repr, row.tolist())) + f",{c}"
                                  for row, c in zip(x, y)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"groups": [
        {"name": "ab", "features": ["f0", "f1"]},
        {"name": "cd", "features": ["f2", "f3"]},
    ]}), encoding="utf-8")

    outputs = {}
    for mode in ("block", "allow"):
        cwd = tmp_path / mode
        cwd.mkdir()
        done = run_python([RUN_CLI, mode, str(data), str(partition)], cwd=cwd)
        assert done.returncode == 0, done.stderr
        outputs[mode] = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    assert len(outputs["block"]) == 9
    assert outputs["block"] == outputs["allow"]


def test_cho_factor_resolves_lazily_to_scipy():
    from scipy.linalg import cho_factor

    from woexplain import gaussian

    assert gaussian.cho_factor is cho_factor


def test_other_missing_names_fail_as_usual():
    from woexplain import gaussian

    assert not hasattr(gaussian, "no_such_name")
    with pytest.raises(AttributeError,
                       match="^module 'woexplain.gaussian' has no attribute 'no_such_name'$"):
        gaussian.no_such_name
    with pytest.raises(ImportError):
        from woexplain.gaussian import no_such_name  # noqa: F401
