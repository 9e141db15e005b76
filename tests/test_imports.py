"""SciPy is imported only by the code that factors a matrix or aligns more
than EXHAUSTIVE_ALIGN_LIMIT endmembers, so the other commands start faster.
Every name the benchmark's tracer replaces exists."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mtunmix

SRC = str(Path(mtunmix.__file__).resolve().parents[1])
ROOT = str(Path(__file__).resolve().parents[1])

SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
loaded = {}
import mtunmix
loaded["import mtunmix"] = scipy_modules()
from mtunmix import cli
loaded["import mtunmix.cli"] = scipy_modules()

def run(*argv):
    code = cli.main(list(argv))
    assert code == 0, (argv, code)
    loaded[argv[0]] = scipy_modules()

run("generate", "--L", "8", "--N", "5", "--T", "2", "--P", "2", "--seed", "3",
    "--out", out + "/data")
run("vca", "--input", out + "/data", "--p", "2", "--seed", "1", "--out", out + "/m0.f64")
run("fcls", "--input", out + "/data", "--m0", out + "/m0.f64", "--out", out + "/fcls")
run("eval", "--est", out + "/fcls", "--truth", out + "/data/truth",
    "--out", out + "/eval.json")
run("unmix", "--input", out + "/data", "--vca", "--p", "2", "--iters", "1",
    "--out", out + "/unmix")
print(json.dumps(loaded))
"""


def test_only_unmix_loads_scipy_and_only_its_linalg(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    # modules only accumulate, so each step before unmix loaded none
    for step in ("import mtunmix", "import mtunmix.cli", "generate", "vca", "fcls", "eval"):
        assert loaded[step] == [], step
    assert "scipy.linalg" in loaded["unmix"]
    assert not any(m.startswith("scipy.optimize") for m in loaded["unmix"])


def test_every_cli_name_the_tracer_binds_resolves():
    # traced runs of the mtunmix command replace these attributes; a name
    # missing from mtunmix.cli would only fail there
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.tracing import CLI_TARGETS

    for module_name, attr, _, _ in CLI_TARGETS + [("mtunmix.fcls", "warnings", None, None)]:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
