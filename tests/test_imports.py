"""SciPy is imported only by the code that factors a matrix or aligns more
than EXHAUSTIVE_ALIGN_LIMIT endmembers, so the other commands start faster;
the factorizations load SciPy's LAPACK extension, and inverses larger than
``kronops.INVERSE_LEAF`` its BLAS extension, not ``scipy.linalg``. The
scripts run L = 60 bands and P = 2 materials, so PL = 120 is above that size.
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

run("generate", "--L", "60", "--N", "5", "--T", "2", "--P", "2", "--seed", "3",
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
    assert "scipy.linalg._fblas" in loaded["unmix"]
    assert "scipy.linalg" not in loaded["unmix"]
    assert not any(m.startswith("scipy.optimize") for m in loaded["unmix"])


UNMIX_SCRIPT = r"""
import json, sys
from mtunmix import cli, kronops

out, missing = sys.argv[1], sys.argv[2:]
real_path = kronops._extension_path
kronops._extension_path = lambda package_dir, name: (
    None if name in missing else real_path(package_dir, name))
for argv in (
    ["generate", "--L", "60", "--N", "5", "--T", "3", "--P", "2", "--seed", "4",
     "--mc", "2", "--out", out + "/data"],
    ["unmix", "--input", out + "/data", "--vca", "--p", "2", "--iters", "2",
     "--mc", "2", "--out", out + "/unmix"],
):
    assert cli.main(argv) == 0, argv
print(json.dumps({"scipy.linalg": "scipy.linalg" in sys.modules,
                  "loaded": sorted(kronops._modules),
                  "lapack": kronops.lapack().__name__,
                  "blas": kronops.blas().__name__}))
"""


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_fallback_to_scipy_linalg_writes_the_same_bytes(tmp_path):
    direct = run_python(UNMIX_SCRIPT, str(tmp_path / "direct"))
    no_blas = run_python(UNMIX_SCRIPT, str(tmp_path / "no_blas"), "_fblas")
    neither = run_python(UNMIX_SCRIPT, str(tmp_path / "neither"), "_flapack", "_fblas")
    loaded = ["_fblas", "_flapack"]
    assert direct == {"scipy.linalg": False, "loaded": loaded,
                      "lapack": "scipy.linalg._flapack", "blas": "scipy.linalg._fblas"}
    assert no_blas == {"scipy.linalg": True, "loaded": loaded,
                       "lapack": "scipy.linalg._flapack", "blas": "scipy.linalg.blas"}
    # the LAPACK fallback imports scipy.linalg, which registers _fblas, and
    # the BLAS lookup then shares it
    assert neither == {"scipy.linalg": True, "loaded": loaded,
                       "lapack": "scipy.linalg.lapack", "blas": "scipy.linalg._fblas"}
    direct_files = tree_bytes(tmp_path / "direct" / "unmix")
    assert len(direct_files) > 10
    assert tree_bytes(tmp_path / "no_blas" / "unmix") == direct_files
    assert tree_bytes(tmp_path / "neither" / "unmix") == direct_files


def test_scipy_linalg_imported_after_the_direct_load_shares_it():
    found = run_python(r"""
import json, sys
import numpy as np
from mtunmix import kronops

n = 2 * kronops.INVERSE_LEAF + 1
inv = kronops.factor_inverse(kronops.factor(4.0 * np.eye(n)))
direct, direct_blas = kronops.lapack(), kronops.blas()
import scipy.linalg
from scipy.linalg import _fblas, _flapack
c, lower = scipy.linalg.cho_factor(np.diag([4.0, 9.0]), lower=True)
print(json.dumps({
    "same lapack": _flapack is direct and sys.modules["scipy.linalg._flapack"] is direct,
    "same blas": _fblas is direct_blas and sys.modules["scipy.linalg._fblas"] is direct_blas,
    "same dpotrf": scipy.linalg.lapack.dpotrf is direct.dpotrf,
    "same dtrmm": scipy.linalg.blas.dtrmm is direct_blas.dtrmm,
    "factor": np.diag(c).tolist(),
    "inverse": bool(np.array_equal(inv, 0.25 * np.eye(n))),
}))
""")
    assert found == {"same lapack": True, "same blas": True, "same dpotrf": True,
                     "same dtrmm": True, "factor": [2.0, 3.0], "inverse": True}


def test_concurrent_first_calls_load_one_module():
    found = run_python(r"""
import json, sys, threading, time
from mtunmix import kronops

real, loads = kronops._load_extension, []

def slow_load(name):
    loads.append(name)
    time.sleep(0.05)  # widen the window in which other threads arrive
    return real(name)

kronops._load_extension = slow_load
barrier = threading.Barrier(6, timeout=30)
got = {"_flapack": [], "_fblas": []}
lookups = [("_flapack", kronops.lapack), ("_fblas", kronops.blas)]

def first_calls(i):
    barrier.wait()
    # half the threads ask for BLAS first, so the two loads cross
    for name, lookup in lookups if i % 2 else lookups[::-1]:
        got[name].append(lookup())

threads = [threading.Thread(target=first_calls, args=(i,)) for i in range(6)]
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
print(json.dumps({name: {"loads": loads.count(name), "calls": len(modules),
                         "objects": len({id(m) for m in modules}),
                         "registered": modules[0] is sys.modules["scipy.linalg." + name]}
                  for name, modules in got.items()}))
""")
    each = {"loads": 1, "calls": 6, "objects": 1, "registered": True}
    assert found == {"_flapack": each, "_fblas": each}


def test_every_cli_name_the_tracer_binds_resolves():
    # traced runs replace these attributes; a name missing from the library or
    # from mtunmix.cli would only fail there
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.tracing import CLI_TARGETS, LIBRARY_TARGETS

    extra = [("mtunmix.fcls", "warnings", None, None)]
    for module_name, attr, _, _ in LIBRARY_TARGETS + CLI_TARGETS + extra:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
