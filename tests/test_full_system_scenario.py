"""One long full-system scenario exercising every major subsystem on a
single machine — the kind of life cycle a real deployment would see.

The scenario: a server process boots, serves requests (timed through the
core model), forks workers (overlay-on-write), deduplicates workers'
read-mostly pages, checkpoints its state, runs a transaction that
aborts, and finally promotes its hot pages.  Every stage asserts both
data correctness and the expected resource accounting.
"""

import pytest

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.cpu.core import Core
from repro.cpu.trace import Trace
from repro.osmodel.kernel import Kernel
from repro.techniques.checkpoint import CheckpointManager
from repro.techniques.dedup import DeduplicationManager
from repro.techniques.overlay_on_write import OverlayOnWritePolicy
from repro.techniques.speculation import SpeculationContext

pytestmark = pytest.mark.slow

BASE_VPN = 0x100
BASE = BASE_VPN * PAGE_SIZE
PAGES = 24


@pytest.fixture(scope="module")
def scenario():
    """Run the whole scenario once; stages assert on the shared state."""
    kernel = Kernel()
    server = kernel.create_process()
    kernel.mmap(server, BASE_VPN, PAGES, fill=b"serverimage!")
    kernel.install_cow_policy(OverlayOnWritePolicy(kernel))
    log = {}

    # Stage 1: timed request serving (warm the machine).
    core = Core(kernel.system, server.asid)
    warm = core.run(Trace.zipf_pages(BASE, PAGES, 2500, seed=11))
    log["warm_cpi"] = warm.cpi

    # Stage 2: fork two workers; each personalises a few lines.
    workers = [kernel.fork(server) for _ in range(2)]
    marker = kernel.memory_marker()
    for index, worker in enumerate(workers):
        for line in range(4):
            kernel.system.write(worker.asid,
                                BASE + line * LINE_SIZE,
                                f"w{index}l{line}".encode())
    kernel.system.hierarchy.flush_dirty()
    log["fork_extra_bytes"] = kernel.additional_memory_since(marker)

    # Stage 3: dedup the workers' untouched pages against the server's.
    dedup = DeduplicationManager(kernel)
    candidates = [(p.asid, BASE_VPN + page)
                  for page in range(1, PAGES)
                  for p in [server] + workers]
    dedup.deduplicate(candidates)
    log["dedup"] = dedup.stats

    # Stage 4: checkpoint the server across two epochs.
    checkpoints = CheckpointManager(kernel, server)
    checkpoints.begin()
    kernel.system.write(server.asid, BASE + 5 * PAGE_SIZE, b"epoch-A")
    checkpoints.take_checkpoint()
    kernel.system.write(server.asid, BASE + 6 * PAGE_SIZE, b"epoch-B")
    checkpoints.take_checkpoint()
    checkpoints.end()
    log["checkpoints"] = checkpoints

    # Stage 5: a transaction on worker 0 that aborts.
    spec = SpeculationContext(kernel, workers[0])
    before = kernel.system.page_bytes(workers[0].asid, BASE_VPN + 9)
    spec.begin()
    spec.write(BASE + 9 * PAGE_SIZE, b"DOOMED-TXN")
    spec.abort()
    log["txn_page_after_abort"] = kernel.system.page_bytes(
        workers[0].asid, BASE_VPN + 9)
    log["txn_page_before"] = before

    # Stage 6: promote worker 1's overlaid first page to a private frame.
    new_ppn = kernel.allocator.allocate()
    view = kernel.system.page_bytes(workers[1].asid, BASE_VPN)
    kernel.system.promote(workers[1].asid, BASE_VPN, "copy-and-commit",
                          new_ppn=new_ppn)
    log["promoted_view_matches"] = (
        kernel.system.page_bytes(workers[1].asid, BASE_VPN) == view)

    return kernel, server, workers, log


class TestScenario:
    def test_warmup_ran(self, scenario):
        _, _, _, log = scenario
        assert log["warm_cpi"] > 0

    def test_fork_cost_is_line_granular(self, scenario):
        """Two workers x 4 lines — far less than 8 page copies."""
        _, _, _, log = scenario
        assert log["fork_extra_bytes"] < 8 * PAGE_SIZE

    def test_worker_isolation(self, scenario):
        kernel, server, workers, _ = scenario
        for index, worker in enumerate(workers):
            data, _ = kernel.system.read(worker.asid, BASE, 4)
            assert data == f"w{index}".encode() + b"l0"
        server_data, _ = kernel.system.read(server.asid, BASE, 4)
        assert server_data == b"serv"

    def test_dedup_found_shared_pages(self, scenario):
        _, _, _, log = scenario
        assert log["dedup"].pages_deduplicated > 0
        assert log["dedup"].frames_freed > 0

    def test_checkpoints_recoverable(self, scenario):
        kernel, server, _, log = scenario
        checkpoints = log["checkpoints"]
        assert checkpoints.total_bytes_written == 2 * LINE_SIZE
        view = checkpoints.restore_view(2)
        assert view[BASE_VPN + 5][:7] == b"epoch-A"
        assert view[BASE_VPN + 6][:7] == b"epoch-B"
        # Epoch 1 predates the second write.
        assert checkpoints.restore_view(1)[BASE_VPN + 6][:7] != b"epoch-B"

    def test_transaction_rolled_back(self, scenario):
        _, _, _, log = scenario
        assert log["txn_page_after_abort"] == log["txn_page_before"]

    def test_promotion_preserved_view(self, scenario):
        _, _, _, log = scenario
        assert log["promoted_view_matches"]

    def test_machine_is_still_consistent(self, scenario):
        """After everything, a fresh sweep of reads matches what the
        byte-level model says each process should observe."""
        kernel, server, workers, _ = scenario
        for process in [server] + workers:
            for page in range(PAGES):
                image = kernel.system.page_bytes(process.asid,
                                                 BASE_VPN + page)
                data, _ = kernel.system.read(
                    process.asid, BASE + page * PAGE_SIZE, 64)
                assert data == image[:64]

    def test_stats_snapshot_is_sane(self, scenario):
        kernel, _, _, _ = scenario
        paths = kernel.system.stats_scope.flat_paths()
        assert paths["system.framework.overlaying_writes"] >= 8
        assert paths["system.dram.reads"] > 0
        assert paths["system.coherence.shootdowns"] >= 1  # the promotion
