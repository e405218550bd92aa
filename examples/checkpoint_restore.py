"""Overlay-based checkpointing with crash recovery (Section 5.3.2).

A long-running "solver" updates a few cache lines per epoch.  Overlays
capture exactly those deltas; each checkpoint ships only the overlays to
the backing store, then commits them.  After a simulated crash, the
memory image is rebuilt from the base snapshot plus the shipped deltas.

Run:  python examples/checkpoint_restore.py
"""

import random

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.techniques.checkpoint import CheckpointManager

PAGES = 32
BASE_VPN = 0x200
BASE = BASE_VPN * PAGE_SIZE
EPOCHS = 5


def solver_step(kernel, process, rng, epoch):
    """One epoch of 'computation': update 12 random lines."""
    for _ in range(12):
        page = rng.randrange(PAGES)
        line = rng.randrange(64)
        payload = f"e{epoch:02d}p{page:03d}l{line:02d}".encode()
        kernel.system.write(process.asid,
                            BASE + page * PAGE_SIZE + line * LINE_SIZE,
                            payload)


def main():
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, BASE_VPN, PAGES, fill=b"initial-state!")
    manager = CheckpointManager(kernel, process)
    rng = random.Random(7)

    manager.begin()
    for epoch in range(EPOCHS):
        solver_step(kernel, process, rng, epoch)
        record = manager.take_checkpoint()
        print(f"epoch {epoch}: checkpoint wrote {record.bytes_written:>5d} B "
              f"(page-granularity would write "
              f"{record.page_granularity_bytes:>6d} B)")

    reduction = manager.bandwidth_reduction
    print(f"\nbacking-store bandwidth saved vs page-granularity "
          f"checkpoints: {reduction:.0%}")

    # --- the crash ------------------------------------------------------
    live_image = {vpn: kernel.system.page_bytes(process.asid, vpn)
                  for vpn in process.page_table.mapped_vpns()}
    print("\nsimulating a crash: rebuilding memory from base + deltas...")
    recovered = manager.restore_view(EPOCHS)
    assert recovered == live_image
    print(f"recovered {len(recovered)} pages; image matches the live "
          f"state byte-for-byte")

    # Partial recovery also works: roll back to any earlier checkpoint.
    halfway = manager.restore_view(2)
    changed = sum(1 for vpn in live_image if halfway[vpn] != live_image[vpn])
    print(f"rolling back to epoch 2 instead: {changed} pages differ from "
          f"the final state (later epochs undone)")


if __name__ == "__main__":
    main()
