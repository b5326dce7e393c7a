import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNEL_C = ROOT / "src" / "coricci" / "transport" / "_mcf_cy.c"
KERNEL_SO = KERNEL_C.with_name("_mcf_cy" + sysconfig.get_config_var("EXT_SUFFIX"))


def _kernel_is_fresh():
    return KERNEL_SO.exists() and KERNEL_SO.stat().st_mtime >= KERNEL_C.stat().st_mtime


def _build_kernel():
    """Compile the transport kernel in place when it is missing or older than
    its C source, through the extension that setup.py defines.

    Returns None on success, else the build's last line of output.  A failed
    build is not an error: coricci then selects its pure-Python kernel.
    """
    if _kernel_is_fresh():
        return None
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if _kernel_is_fresh():
        return None
    lines = (proc.stderr or proc.stdout).strip().splitlines()
    return lines[-1] if lines else f"setup.py exited with code {proc.returncode}"


# The backend is chosen once, when coricci is first imported, so the kernel
# must be built before that import.
KERNEL_BUILD_ERROR = _build_kernel()

import coricci as c  # noqa: E402
from coricci import gallery  # noqa: E402
from coricci.metric import space_from_matrix  # noqa: E402


def pytest_report_header(config):
    header = f"coricci backend: {c.BACKEND}"
    if KERNEL_BUILD_ERROR:
        header += f" (kernel build failed: {KERNEL_BUILD_ERROR})"
    return header


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header; a run on the slow pure-Python kernel still says so.
    if c.BACKEND != "c":
        terminalreporter.write_line(pytest_report_header(config), yellow=True)


# Session-scoped gallery chains: built once, shared read-only (chains are
# immutable), keeping the whole suite fast.


@pytest.fixture(scope="session")
def cube4():
    return gallery.cube(4)


@pytest.fixture(scope="session")
def cube5():
    return gallery.cube(5)


@pytest.fixture(scope="session")
def cube6():
    return gallery.cube(6)


@pytest.fixture(scope="session")
def ou8():
    return gallery.discrete_ou(8)


@pytest.fixture(scope="session")
def binom20():
    return gallery.binomial(20, 0.1)


@pytest.fixture(scope="session")
def binom40():
    return gallery.binomial(40, 2 / 40)


@pytest.fixture(scope="session")
def glauber5():
    return gallery.glauber("cycle:5", 0.2)


@pytest.fixture(scope="session")
def mm60():
    return gallery.mm_infty(3.0, 1.0, 1e-3, K=60)


@pytest.fixture(scope="session")
def reset_chain():
    return gallery.geometric_reset(0.5, K=60)


@pytest.fixture(scope="session")
def two_point_mixing():
    """Both rows equal to (1/2, 1/2): one-step mixing, kappa = 1."""
    space = space_from_matrix([0, 1], [[0.0, 1.0], [1.0, 0.0]])
    return c.build_chain(space, np.full((2, 2), 0.5))


@pytest.fixture(scope="session")
def kappa_cache():
    """Memoized geodesic-scan curvature reports keyed by id(chain)."""
    cache = {}

    def get(chain, eps=1):
        key = (id(chain), eps)
        if key not in cache:
            cache[key] = c.kappa_global(chain, mode="geodesic", eps=eps)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def section5_walk():
    """Nearest-neighbor walk on {0..K} with left probability p = 0.7."""

    def build(p, K=200):
        pts = list(range(K + 1))
        P = np.zeros((K + 1, K + 1))
        P[0, 0] = p
        P[0, 1] = 1 - p
        for k in range(1, K):
            P[k, k - 1] = p
            P[k, k + 1] = 1 - p
        P[K, K - 1] = p
        P[K, K] = 1 - p
        return c.build_chain(gallery._line_space(pts), P)

    return build
