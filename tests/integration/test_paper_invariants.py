"""The paper's architectural invariants hold after each fork experiment.

Runs :func:`repro.eval.fork_experiment.run_policy` at the defaults
Figures 8 and 9 use (scale 1.0, seed 0) for one benchmark of each
write-pattern type under both policies, then sweeps the finished
machine with :class:`~repro.robust.invariants.InvariantChecker`: a
fault-free run must leave zero violations of all four paper-mapped
rules.
"""

import pytest

from repro.eval import fork_experiment
from repro.osmodel.kernel import Kernel
from repro.robust.invariants import InvariantChecker
from repro.workloads.spec_like import BENCHMARKS

pytestmark = pytest.mark.integration

_RETAG_DATA_LOSS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a cross-set retag drops the dirty victim of its fill, so an "
           "OBitVector bit is left with no overlay data behind it "
           "(tests/test_mem_hierarchy.py::TestKnownBugs::"
           "test_cross_set_retag_keeps_dirty_victim)")

CASES = [
    pytest.param(name, policy, id=f"{name}-{policy}",
                 marks=_RETAG_DATA_LOSS
                 if (name, policy) == ("cactus", "overlay-on-write") else ())
    for name in ("bwaves", "lbm", "cactus", "mcf")
    for policy in fork_experiment.POLICIES
]


@pytest.mark.parametrize("name, policy", CASES)
def test_fork_experiment_leaves_no_violations(monkeypatch, name, policy):
    kernels = []

    class RecordingKernel(Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    monkeypatch.setattr(fork_experiment, "Kernel", RecordingKernel)
    fork_experiment.run_policy(BENCHMARKS[name], policy)
    [kernel] = kernels
    assert InvariantChecker(kernel.system).check_all() == []
