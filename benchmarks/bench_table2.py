"""Table 2: the simulated system configuration.

``pytest benchmarks/bench_table2.py --benchmark-only`` times the
construction of a fully wired simulated machine and a short warm access
loop; ``python benchmarks/bench_table2.py`` prints Table 2 itself.
"""

from dataclasses import asdict

from repro.eval.config import DEFAULT_CONFIG
from repro.obs import benchmark_run
from repro.osmodel.kernel import Kernel
from repro.cpu.core import Core
from repro.cpu.trace import Trace


def build_machine():
    kernel = Kernel()
    process = kernel.create_process()
    kernel.mmap(process, 0x100, 16, fill=b"t2")
    return kernel, process


def warm_access_loop():
    kernel, process = build_machine()
    core = Core(kernel.system, process.asid)
    trace = Trace.sequential(0x100 * 4096, 256, stride=64)
    return core.run(trace)


def test_table2_machine_construction(benchmark):
    kernel, _ = benchmark(build_machine)
    assert kernel.system is not None


def test_table2_access_loop(benchmark):
    stats = benchmark.pedantic(warm_access_loop, rounds=3, iterations=1)
    assert stats.instructions > 0


def main():
    with benchmark_run("table2") as run:
        print("Table 2: Main parameters of our simulated system")
        print(DEFAULT_CONFIG.format_table())
        run.record(config=asdict(DEFAULT_CONFIG))


if __name__ == "__main__":
    main()
