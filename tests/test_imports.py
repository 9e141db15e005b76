"""SciPy is imported only by the code that factors a matrix or aligns more
than EXHAUSTIVE_ALIGN_LIMIT endmembers, so the other commands start faster;
the factorizations load SciPy's LAPACK extension, not ``scipy.linalg``.
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


def run_python(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_only_unmix_loads_scipy_and_only_its_lapack(tmp_path):
    loaded = run_python(SCRIPT, str(tmp_path))
    # modules only accumulate, so each step before unmix loaded none
    for step in ("import mtunmix", "import mtunmix.cli", "generate", "vca", "fcls", "eval"):
        assert loaded[step] == [], step
    assert "scipy.linalg._flapack" in loaded["unmix"]
    assert "scipy.linalg" not in loaded["unmix"]
    assert not any(m.startswith("scipy.optimize") for m in loaded["unmix"])


UNMIX_SCRIPT = r"""
import json, sys
from mtunmix import cli, kronops

out, fallback = sys.argv[1], sys.argv[2] == "1"
if fallback:
    kronops._extension_path = lambda package_dir: None
for argv in (
    ["generate", "--L", "8", "--N", "5", "--T", "3", "--P", "2", "--seed", "4",
     "--mc", "2", "--out", out + "/data"],
    ["unmix", "--input", out + "/data", "--vca", "--p", "2", "--iters", "2",
     "--mc", "2", "--out", out + "/unmix"],
):
    assert cli.main(argv) == 0, argv
print(json.dumps({"scipy.linalg": "scipy.linalg" in sys.modules,
                  "lapack": kronops.lapack().__name__}))
"""


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_fallback_to_scipy_linalg_writes_the_same_bytes(tmp_path):
    direct = run_python(UNMIX_SCRIPT, str(tmp_path / "direct"), "0")
    fallback = run_python(UNMIX_SCRIPT, str(tmp_path / "fallback"), "1")
    assert direct == {"scipy.linalg": False, "lapack": "scipy.linalg._flapack"}
    assert fallback == {"scipy.linalg": True, "lapack": "scipy.linalg.lapack"}
    direct_files = tree_bytes(tmp_path / "direct" / "unmix")
    assert len(direct_files) > 10
    assert tree_bytes(tmp_path / "fallback" / "unmix") == direct_files


def test_scipy_linalg_imported_after_the_direct_load_shares_it():
    found = run_python(r"""
import json, sys
import numpy as np
from mtunmix import kronops

kronops.factor(np.eye(2))
direct = kronops.lapack()
import scipy.linalg
from scipy.linalg import _flapack
c, lower = scipy.linalg.cho_factor(np.diag([4.0, 9.0]), lower=True)
print(json.dumps({
    "same module": _flapack is direct and sys.modules["scipy.linalg._flapack"] is direct,
    "same dpotrf": scipy.linalg.lapack.dpotrf is direct.dpotrf,
    "factor": np.diag(c).tolist(),
}))
""")
    assert found == {"same module": True, "same dpotrf": True, "factor": [2.0, 3.0]}


def test_concurrent_first_calls_load_one_module():
    found = run_python(r"""
import json, sys, threading, time
from mtunmix import kronops

real, loads = kronops._load_lapack, []

def slow_load():
    loads.append(1)
    time.sleep(0.05)  # widen the window in which other threads arrive
    return real()

kronops._load_lapack = slow_load
barrier = threading.Barrier(6, timeout=30)
got = []

def first_call():
    barrier.wait()
    got.append(kronops.lapack())

threads = [threading.Thread(target=first_call) for _ in range(6)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
print(json.dumps({"loads": len(loads), "calls": len(got),
                  "objects": len({id(m) for m in got}),
                  "registered": got[0] is sys.modules["scipy.linalg._flapack"]}))
""")
    assert found == {"loads": 1, "calls": 6, "objects": 1, "registered": True}


def test_every_cli_name_the_tracer_binds_resolves():
    # traced runs replace these attributes; a name missing from the library or
    # from mtunmix.cli would only fail there
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.tracing import CLI_TARGETS, LIBRARY_TARGETS

    extra = [("mtunmix.fcls", "warnings", None, None)]
    for module_name, attr, _, _ in LIBRARY_TARGETS + CLI_TARGETS + extra:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
