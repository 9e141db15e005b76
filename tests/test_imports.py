"""No command imports SciPy, which only the tests use: dense factorizations
call NumPy's bundled OpenBLAS through ctypes, or ``numpy.linalg`` where NumPy
bundles none, and ``eval`` aligns any number of endmembers in NumPy. The
ctypes calls release the GIL, and the ``numpy.linalg`` route gives the same
output to rounding. The scripts run L = 60 bands and P = 2 materials, and
P = 9 for one ``eval``; PL = 120 is above
``kronops.INVERSE_LEAF`` and inverses use ``dtrmm`` too. Importing the
package loads none of its modules. Every name the benchmark's tracer replaces
exists, and every name a module of the package imports is used."""

import ast
import importlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mtunmix
from mtunmix import kronops

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

def run(*argv, step=None):
    code = cli.main(list(argv))
    assert code == 0, (argv, code)
    loaded[step or argv[0]] = scipy_modules()

run("generate", "--L", "60", "--N", "5", "--T", "2", "--P", "2", "--seed", "3",
    "--out", out + "/data")
run("vca", "--input", out + "/data", "--p", "2", "--seed", "1", "--out", out + "/m0.f64")
run("fcls", "--input", out + "/data", "--m0", out + "/m0.f64", "--out", out + "/fcls")
run("eval", "--est", out + "/fcls", "--truth", out + "/data/truth",
    "--out", out + "/eval.json")
run("unmix", "--input", out + "/data", "--vca", "--p", "2", "--iters", "1",
    "--out", out + "/unmix")
run("generate", "--L", "60", "--N", "20", "--T", "2", "--P", "9", "--seed", "3",
    "--out", out + "/data9", step="generate P=9")
run("vca", "--input", out + "/data9", "--p", "9", "--seed", "1", "--out", out + "/m9.f64",
    step="vca P=9")
run("fcls", "--input", out + "/data9", "--m0", out + "/m9.f64", "--out", out + "/fcls9",
    step="fcls P=9")
run("eval", "--est", out + "/fcls9", "--truth", out + "/data9/truth",
    "--out", out + "/eval9.json", step="eval P=9")
print(json.dumps(loaded))
"""


def run_python(script: str, *args: str, env: dict | None = None) -> dict:
    """Run ``script`` in a fresh interpreter, in ``env`` (by default this
    one's) with the package on the path; its last stdout line is JSON."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


bundled = pytest.mark.skipif(
    kronops._openblas is None, reason="NumPy bundles no OpenBLAS with the symbols"
)


def test_no_command_loads_scipy(tmp_path):
    loaded = run_python(SCRIPT, str(tmp_path))
    assert "eval P=9" in loaded
    for step, modules in loaded.items():
        assert modules == [], step


IMPORT_GRAPH_SCRIPT = r"""
import json, sys

def submodules():
    return sorted(m for m in sys.modules if m.startswith("mtunmix."))

loaded = {}
import mtunmix
loaded["import mtunmix"] = submodules()
from mtunmix import synth
loaded["from mtunmix import synth"] = submodules()
print(json.dumps(loaded))
"""


def test_package_loads_only_the_modules_imported():
    # the package re-exports nothing, so the generator loads no Kalman code
    # and no LAPACK binding
    assert run_python(IMPORT_GRAPH_SCRIPT) == {
        "import mtunmix": [],
        "from mtunmix import synth": [
            "mtunmix.errors", "mtunmix.fcls", "mtunmix.hseq", "mtunmix.synth"
        ],
    }


UNMIX_SCRIPT = r"""
import json, sys
from mtunmix import cli, kronops

out, fallback = sys.argv[1], sys.argv[2] == "fallback"
if fallback:
    kronops._openblas = None
for argv in (
    ["generate", "--L", "60", "--N", "5", "--T", "3", "--P", "2", "--seed", "4",
     "--mc", "2", "--out", out + "/data"],
    ["unmix", "--input", out + "/data", "--vca", "--p", "2", "--iters", "2",
     "--mc", "2", "--out", out + "/unmix"],
):
    assert cli.main(argv) == 0, argv
print(json.dumps({"scipy": "scipy" in sys.modules, "openblas": kronops._openblas is not None}))
"""


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@bundled
def test_forced_fallback_matches_the_ctypes_run(tmp_path):
    # numpy.linalg inverts and solves through LU where the ctypes route
    # takes LAPACK's triangular routines, so the two runs agree to rounding,
    # not byte for byte
    direct = run_python(UNMIX_SCRIPT, str(tmp_path / "direct"), "direct")
    fallback = run_python(UNMIX_SCRIPT, str(tmp_path / "fallback"), "fallback")
    assert direct == {"scipy": False, "openblas": True}
    assert fallback == {"scipy": False, "openblas": False}
    assert tree_bytes(tmp_path / "direct" / "data") == tree_bytes(tmp_path / "fallback" / "data")
    direct_files = tree_bytes(tmp_path / "direct" / "unmix")
    fallback_files = tree_bytes(tmp_path / "fallback" / "unmix")
    assert sorted(direct_files) == sorted(fallback_files) and len(direct_files) > 10
    for name, want in direct_files.items():
        got = fallback_files[name]
        if name.endswith(".f64"):
            want, got = np.frombuffer(want, "<f8"), np.frombuffer(got, "<f8")
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
        elif name.endswith("diagnostics.json"):
            want, got = json.loads(want), json.loads(got)
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-9)
        else:
            assert got == want, name


@bundled
def test_lapack_releases_the_gil():
    # a second thread keeps counting while the first is inside an n = 2000
    # dpotrf: none of its pauses spans a quarter of the call, where a call that
    # held the GIL would pause it for the whole factorization
    n = 2000
    M = np.asfortranarray(np.ones((n, n)) + n * np.eye(n))
    pauses, stop = [], threading.Event()

    def count():
        last = time.perf_counter()
        while not stop.is_set():
            now = time.perf_counter()
            if now - last > 1e-3:
                pauses.append((last, now))
            last = now

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # hand the GIL over at once when it is free
    counter = threading.Thread(target=count)
    try:
        counter.start()
        start = time.perf_counter()
        info = kronops.dpotrf(M)
        end = time.perf_counter()
    finally:
        stop.set()
        counter.join()
        sys.setswitchinterval(interval)
    assert info == 0
    longest = max((min(b, end) - max(a, start) for a, b in pauses), default=0.0)
    assert longest < 0.25 * (end - start), (longest, end - start)


def test_unmix_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # unmix runs with BLAS on one thread whatever OPENBLAS_NUM_THREADS says
    if kronops._openblas is None:
        pytest.skip("the thread budget needs NumPy's bundled OpenBLAS")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: the default thread count is already one")
    script = r"""
import sys
from mtunmix import cli
out = sys.argv[1]
for argv in (
    ["generate", "--L", "173", "--N", "12", "--T", "3", "--P", "3", "--seed", "5",
     "--out", out + "/data"],
    ["unmix", "--input", out + "/data", "--vca", "--iters", "2", "--out", out + "/unmix"],
):
    assert cli.main(argv) == 0, argv
print("{}")
"""
    trees = []
    for name, threads in (("unset", None), ("one", "1")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        run_python(script, str(tmp_path / name), env=env)
        trees.append(tree_bytes(tmp_path / name / "unmix"))
    assert len(trees[0]) > 10 and trees[0] == trees[1]


def test_every_cli_name_the_tracer_binds_resolves():
    # traced runs replace these attributes; a name missing from the library or
    # from mtunmix.cli would only fail there
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.tracing import CLI_TARGETS, LIBRARY_TARGETS

    extra = [("mtunmix.fcls", "warnings", None, None)]
    for module_name, attr, _, _ in LIBRARY_TARGETS + CLI_TARGETS + extra:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_every_imported_name_is_used():
    # a name a module imports and never reads is dead code; the names in a
    # module's __all__ are its exports, and count as read
    unused = {}
    for path in sorted(Path(mtunmix.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names if a.name != "*")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}
