"""Fine-grained deduplication across virtual machines (Section 5.3.1).

Models the Difference Engine scenario [23]: several "VMs" run the same
guest OS, so their kernel-image pages are nearly identical — same code,
slightly different patched bytes.  Page-granularity sharing (KSM-style)
can only merge *identical* pages; overlays merge *similar* pages, storing
each VM's few differing cache lines in its overlay.

Run:  python examples/vm_dedup.py
"""

import random

from repro.core.address import LINE_SIZE, PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.techniques.dedup import DeduplicationManager

GUEST_PAGES = 24
NUM_VMS = 4
BASE_VPN = 0x500


def boot_vm(kernel, guest_image, patch_rng):
    """Create a 'VM' (process) whose pages are the guest image with a
    couple of VM-specific patched lines per page."""
    vm = kernel.create_process()
    frames = kernel.mmap(vm, BASE_VPN, GUEST_PAGES)
    for ppn, content in zip(frames, guest_image):
        patched = bytearray(content)
        for _ in range(2):  # two VM-specific lines per page
            line = patch_rng.randrange(64)
            patch = f"vm{vm.pid}-line{line}".encode()
            start = line * LINE_SIZE
            patched[start:start + len(patch)] = patch
        kernel.system.main_memory.write_page(ppn, bytes(patched))
    return vm


def main():
    kernel = Kernel()
    rng = random.Random(1)
    guest_image = [bytes([rng.randrange(1, 255)]) * PAGE_SIZE
                   for _ in range(GUEST_PAGES)]

    vms = [boot_vm(kernel, guest_image, random.Random(100 + i))
           for i in range(NUM_VMS)]
    before = kernel.allocator.bytes_in_use
    print(f"{NUM_VMS} VMs x {GUEST_PAGES} pages booted: "
          f"{before / 1024:.0f} KB in use")

    views = {(vm.asid, vpn): kernel.system.page_bytes(vm.asid, vpn)
             for vm in vms for vpn in vm.page_table.mapped_vpns()}

    manager = DeduplicationManager(kernel, max_diff_lines=8)
    candidates = [(vm.asid, vpn) for vpn in range(BASE_VPN,
                                                  BASE_VPN + GUEST_PAGES)
                  for vm in vms]
    merged = manager.deduplicate(candidates)
    after = kernel.allocator.bytes_in_use

    print(f"deduplicated {merged} pages "
          f"({manager.stats.overlay_lines_created} difference lines kept "
          f"in overlays)")
    print(f"memory in use: {before / 1024:.0f} KB -> {after / 1024:.0f} KB "
          f"({1 - after / before:.0%} saved)")

    # Every VM still observes exactly its own patched image — accessing a
    # "patched" page needs no software patching step, unlike Difference
    # Engine.
    for (asid, vpn), image in views.items():
        assert kernel.system.page_bytes(asid, vpn) == image
    print("all VM page contents verified identical to pre-dedup state")

    # A VM writing to a merged page diverges privately via its overlay.
    vm0 = vms[0]
    kernel.system.write(vm0.asid, BASE_VPN * PAGE_SIZE, b"vm0-dirty")
    assert kernel.system.page_bytes(vms[1].asid, BASE_VPN)[:9] != b"vm0-dirty"
    print("post-dedup writes diverge per-VM through overlays, as with "
          "copy-on-write but at line granularity")


if __name__ == "__main__":
    main()
