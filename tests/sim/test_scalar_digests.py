"""Scalar simulator results: pinned full-precision digests.

Each digest is the SHA-256 of ``json.dumps(result_to_payload(result),
sort_keys=True)``, so every float of every result field is covered at
full precision.  The cells reach every branch of the simulator's step
loop: stalls and DVFS switches under both paper schedulers, an oracle
predictor (which integrates the source on every query), energy
sampling, a watchdogged faulted world, switching dead time, and lossy
storage (whose ``net_flow`` drives the depletion checks).  A change to
the step loop that alters any float operation or its order moves a
digest.
"""

import hashlib
import json

import pytest

from repro.analysis.parallel import RunSpec
from repro.experiments.ablations import LossyStorageSetup, SwitchOverheadSetup
from repro.experiments.common import PaperSetup
from repro.experiments.resilience import ResilienceSetup
from repro.runtime.journal import result_to_payload
from repro.sched.vectorized import SCHEDULER_KINDS
from repro.verify.scenarios import random_scenario


def result_digest(result):
    text = json.dumps(result_to_payload(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cell(spec):
    return spec.setup.run(
        scheduler_name=spec.scheduler_name,
        utilization=spec.utilization,
        capacity=spec.capacity,
        seed=spec.seed,
        energy_sample_interval=spec.energy_sample_interval,
    )


PINNED = [
    pytest.param(
        RunSpec("lsa", 0.4, 50.0, 0),
        "6a10928a3b8e4d1fd97ffd6c8d97df6da97356806b3bf14e5b9486ad32b9a11f",
        id="fig8-lsa",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 50.0, 0),
        "d6dbc370ae628c249887e414c5cd05d098beacd663ca36023fc561a3283c91db",
        id="fig8-ea-dvfs",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 50.0, 1,
                setup=PaperSetup(horizon=2000.0, predictor_kind="oracle")),
        "a73fbd158b443a5174550df2b65fc4e6032b5abb9f6bad0b7946b2801ab1cd5b",
        id="oracle-predictor",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 200.0, 2, setup=PaperSetup(horizon=2000.0),
                energy_sample_interval=25.0),
        "7a359ed7e22a644926bd28c15bed29c302f67b15d22d9537153146c7f2808341",
        id="fig6-energy-sampled",
    ),
    pytest.param(
        RunSpec("lsa", 0.4, 60.0, 1,
                setup=ResilienceSetup(horizon=2000.0, blackout=True,
                                      overrun=True)),
        "ca8f7e097d384a37bff4d3a965a6d9fb81fe8ddfdb7907735e34656d9073a4ca",
        id="resilience-faulted",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 60.0, 3,
                setup=SwitchOverheadSetup(horizon=2000.0)),
        "ad8f7d12b99d7c6950f7e2f66c11ad6f9401779133191403f505c02f456eda6a",
        id="ablation-switch-overhead",
    ),
    pytest.param(
        RunSpec("lsa", 0.4, 60.0, 4, setup=LossyStorageSetup(horizon=2000.0)),
        "fde88b84017e2d2074b878e086fc603e08e37d2fe7b90126ed3238728c3457b1",
        id="ablation-lossy-storage",
    ),
]

#: One digest over seeds 0-19 of the verify tier's random scenarios
#: (faults allowed), each under every batch scheduler.
RANDOM_SCENARIOS_DIGEST = (
    "a8e3238539ab700eab38f53a3793f28b4a65aa9c974909c6c8045da69c8e906f"
)


class TestPinnedScalarDigests:
    @pytest.mark.parametrize("spec, expected", PINNED)
    def test_cell_digest_is_pinned(self, spec, expected):
        assert result_digest(run_cell(spec)) == expected

    def test_random_scenarios_digest_is_pinned(self):
        combined = hashlib.sha256()
        for seed in range(20):
            spec = random_scenario(seed, allow_faults=True)
            for name in SCHEDULER_KINDS:
                combined.update(result_digest(spec.run(name)).encode("ascii"))
        assert combined.hexdigest() == RANDOM_SCENARIOS_DIGEST
