"""Simulated behaviour pinned from one commit to the next.

Four small fork-experiment runs (warm-up 500 accesses, ``scale=0.1``,
``flush_dirty`` at the end) are reduced to one sha256 each, over the
whole machine's flat stats tree, the core's cycle and instruction
counts and the JSONL of every trace event the run emitted.  A host-side
optimisation must leave all four digests as they are.  A change that
alters simulated behaviour on purpose recomputes them with
:func:`behaviour_digest` and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.cpu.core import Core
from repro.obs import tracing_session
from repro.osmodel.cow import CopyOnWritePolicy
from repro.osmodel.kernel import Kernel
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.workloads.spec_like import (BENCHMARKS, measurement_trace,
                                       warmup_trace)

BASE_VPN = 0x400

#: Large enough that no run drops an event from the tracer's ring.
TRACE_CAPACITY = 1 << 20

PINNED = {
    ("mcf", "copy-on-write"):
        "60a44175440973de4b3797451f2eec549101599a124922324a81cb718146895b",
    ("mcf", "overlay-on-write"):
        "c1c18e53b97f84063c2e97b22b101b99b3d9cf355235af9547b9bd66782dbf90",
    ("lbm", "copy-on-write"):
        "d55afa0f68d568b45ffa3e5a3d3913b5777402125091bfdcae1c2a081cc039de",
    ("cactus", "overlay-on-write"):
        "8e7f3f1ef77b3dbba545b518114c56d63ae79917414f2895a2662913a8f72917",
}


def behaviour_digest(benchmark: str, policy: str) -> str:
    """The sha256 of one run's stats tree, core counts and event stream."""
    profile = BENCHMARKS[benchmark]
    with tracing_session(capacity=TRACE_CAPACITY) as tracer:
        kernel = Kernel()
        parent = kernel.create_process()
        kernel.mmap(parent, BASE_VPN, profile.footprint_pages, fill=b"w")
        policy_class = (CopyOnWritePolicy if policy == "copy-on-write"
                        else OverlayOnWritePolicy)
        kernel.install_cow_policy(policy_class(kernel))
        core = Core(kernel.system, parent.asid)
        core.run(warmup_trace(profile, BASE_VPN, accesses=500, seed=1))
        kernel.fork(parent)
        stats = core.run(measurement_trace(profile, BASE_VPN, scale=0.1,
                                           seed=2))
        kernel.system.hierarchy.flush_dirty()
    assert tracer.dropped == 0
    snapshot = json.dumps({"system": kernel.system.stats_scope.flat_paths(),
                           "cycles": stats.cycles,
                           "instructions": stats.instructions},
                          sort_keys=True)
    digest = hashlib.sha256(snapshot.encode())
    digest.update(tracer.to_jsonl().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,policy", sorted(PINNED))
def test_behaviour_is_pinned(name, policy):
    assert behaviour_digest(name, policy) == PINNED[name, policy]
