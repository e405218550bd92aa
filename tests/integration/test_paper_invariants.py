"""The paper's architectural invariants hold after every fault-free
experiment: :class:`~repro.robust.invariants.InvariantChecker` sweeps
each machine the integration gate's one run of every experiment builds
(``conftest.py``), and a fault-free run must leave zero violations of
all four paper-mapped rules."""

import pytest

from repro.__main__ import EXPERIMENTS
from repro.eval.fork_experiment import POLICIES, TYPE_ORDER

pytestmark = pytest.mark.integration

#: Experiments that build no machine: Table 2 and the hardware cost are
#: arithmetic over the configuration, Figure 11 is a capacity analysis,
#: and Figure 9 plots the fork suite Figure 8 ran.
NO_MACHINE = {"table2", "figure9", "figure11", "hardware_cost"}

#: Section 5.3.4's shadow memory keeps metadata in OMS segments with the
#: OBitVector clear, so the data path never reads it; ``omt-page-table``
#: reports each of the techniques run's 63 shadow lines.
SHADOW_LINES = {"techniques": 63}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_machine_keeps_the_invariants(regenerated, name):
    machines = regenerated.violations[name]
    assert (machines == []) == (name in NO_MACHINE)
    found = [violation for violations in machines
             for violation in violations]
    assert len(found) == SHADOW_LINES.get(name, 0)
    for violation in found:
        assert violation.rule == "omt-page-table"
        assert violation.detail.startswith("segment holds data for line")


@pytest.mark.parametrize("name, policy", [
    pytest.param(name, policy, id=f"{name}-{policy}") for policy in POLICIES
    for name in ("bwaves", "lbm", "cactus", "mcf")])
def test_fork_experiment_leaves_no_violations(regenerated, name, policy):
    """One benchmark of each write-pattern type under both policies, at
    the defaults Figures 8 and 9 use: the fork suite builds one machine
    per benchmark and policy, in that order."""
    machines = regenerated.violations["figure8"]
    assert len(machines) == len(POLICIES) * len(TYPE_ORDER)
    index = len(POLICIES) * TYPE_ORDER.index(name) + POLICIES.index(policy)
    assert machines[index] == []
