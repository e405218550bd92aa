"""Multiprogrammed interference on the shared memory system.

A DESIGN.md extension: the paper's platform is a multi-core simulator,
though its evaluation is single-programmed.

Measures how a co-running memory-intensive neighbour slows down the fork
experiment's two mechanisms.  Overlay-on-write's advantage should
persist under contention: the baseline's page copies consume the very
DRAM bandwidth the neighbour is fighting for.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.address import PAGE_SIZE
from ..cpu.core import Core
from ..cpu.multicore import MultiCoreScheduler
from ..cpu.trace import Trace
from ..osmodel.cow import CopyOnWritePolicy
from ..osmodel.kernel import Kernel
from ..techniques.overlay_on_write import OverlayOnWritePolicy
from ..workloads.spec_like import BENCHMARKS, measurement_trace

PROFILE = BENCHMARKS["soplex"]
BASE_VPN = 0x400
NEIGHBOUR_VPN = 0x4000
POLICIES = ("copy", "overlay")


def corun(policy: str, neighbour: bool = True) -> float:
    """CPI of the soplex fork study under *policy*.

    With *neighbour*, a streaming co-runner shares the machine from a
    second core."""
    kernel = Kernel(num_cores=2)
    victim = kernel.create_process()
    kernel.mmap(victim, BASE_VPN, PROFILE.footprint_pages, fill=b"v")
    if policy == "copy":
        kernel.install_cow_policy(CopyOnWritePolicy(kernel))
    else:
        kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
    kernel.fork(victim)

    jobs = [(Core(kernel.system, victim.asid, core_id=0),
             measurement_trace(PROFILE, BASE_VPN, scale=0.5, seed=2))]
    if neighbour:
        streamer = kernel.create_process()
        kernel.mmap(streamer, NEIGHBOUR_VPN, 512, fill=b"n")
        jobs.append((Core(kernel.system, streamer.asid, core_id=1),
                     Trace.sequential(NEIGHBOUR_VPN * PAGE_SIZE, 4000,
                                      stride=64, gap=1)))
    stats = MultiCoreScheduler(kernel.system).run(jobs)
    return stats[0].cpi


def run_multiprogrammed() -> Dict[str, Dict[str, Any]]:
    """Solo and co-run CPI, and the slowdown, for each policy."""
    data = {}
    for policy in POLICIES:
        solo = corun(policy, neighbour=False)
        shared = corun(policy, neighbour=True)
        data[policy] = {"solo_cpi": solo, "shared_cpi": shared,
                        "slowdown": shared / solo}
    return data


def format_multiprogrammed(data: Dict[str, Dict[str, Any]]) -> str:
    lines = ["soplex fork study with a streaming co-runner (CPI):"]
    for policy, run in data.items():
        lines.append(f"  {policy:>7}: solo {run['solo_cpi']:6.2f}   "
                     f"with neighbour {run['shared_cpi']:6.2f}   "
                     f"(slowdown {run['slowdown']:4.2f}x)")
    return "\n".join(lines)
