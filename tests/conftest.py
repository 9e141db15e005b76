"""``--numpy-linalg-route`` runs the suite with ``kronops._openblas`` set to
None, the route NumPy builds without a bundled OpenBLAS (Accelerate, MKL)
take, so dense matrices go to ``numpy.linalg``. It is set before collection,
so the tests marked to skip without OpenBLAS see it. Tests that start a fresh
interpreter still take that interpreter's default route."""


def pytest_addoption(parser):
    parser.addoption(
        "--numpy-linalg-route",
        action="store_true",
        help="send dense matrices to numpy.linalg, as where NumPy bundles no OpenBLAS",
    )


def pytest_configure(config):
    if config.getoption("--numpy-linalg-route"):
        from mtunmix import kronops

        kronops._openblas = None
