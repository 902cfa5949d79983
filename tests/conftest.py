"""Shared fixtures for the test suite."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.cpu.presets import (
    motivational_example_scale,
    stretch_example_scale,
    xscale_pxa,
)
from repro.energy.source import ConstantSource, SolarStochasticSource
from repro.energy.storage import IdealStorage


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden fixtures under tests/golden/ instead of "
        "comparing against them",
    )


@pytest.fixture
def golden_store(request):
    """The golden-trace store rooted at tests/golden/.

    Honors ``--update-golden``: with the flag, checks rewrite fixtures
    instead of comparing.
    """
    from repro.verify.golden import GoldenStore

    return GoldenStore(
        Path(__file__).parent / "golden",
        update=request.config.getoption("--update-golden"),
    )


@pytest.fixture
def xscale():
    """The paper's five-speed XScale scale (P_max = 3.2)."""
    return xscale_pxa()


@pytest.fixture
def two_speed():
    """The section 2 motivational two-speed scale (P_max = 8)."""
    return motivational_example_scale()


@pytest.fixture
def quarter_speed():
    """The section 4.3 two-speed scale (S in {0.25, 1}, P in {1, 8})."""
    return stretch_example_scale()


@pytest.fixture
def constant_source():
    """The motivational example's constant 0.5-power source."""
    return ConstantSource(0.5)


@pytest.fixture
def solar_source():
    """A seeded realization of the paper's eq. (13) source."""
    return SolarStochasticSource(seed=42)


@pytest.fixture
def small_storage():
    """A small ideal storage starting full."""
    return IdealStorage(capacity=100.0)


@pytest.fixture(scope="session")
def numpy_avx512():
    """Whether numpy runs its AVX-512 kernels on this CPU.

    ``np.power`` diverges from libm ``pow`` only under those kernels;
    ``NPY_DISABLE_CPU_FEATURES`` or an older CPU turns the divergence off.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX", False))


@pytest.fixture
def pool_spy(monkeypatch):
    """Every process pool the salvage runner creates, in creation order."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.analysis.parallel as parallel

    created = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
    return created


def process_state(pid: int):
    """The ``/proc`` state letter of ``pid`` (``None`` once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.fixture
def survivors():
    """``survivors(pids, within)``: the PIDs still running after waiting
    up to ``within`` seconds for them to go (zombies count as gone)."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")

    def wait(pids, within=5.0):
        deadline = time.monotonic() + within
        while True:
            alive = [p for p in pids if process_state(p) not in (None, "Z")]
            if not alive or time.monotonic() >= deadline:
                return alive
            time.sleep(0.05)

    return wait
