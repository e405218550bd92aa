"""The paper's claims as code: one table over the committed results.

Each :class:`Claim` holds a claim of the paper's evaluation, the paper's
value, a function computing the measured value from the ``data`` of the
committed ``results/<result>.json``, a predicate over it and the recorded
verdict: ``holds`` (met as the paper words it), ``approximately`` (met
within a tolerance) or ``deviates``.  Tolerances come from the paper's
wording, the shape checks these entries replaced, or :data:`MAGNITUDE`.
``python -m repro.eval.claims`` rewrites EXPERIMENTS.md's claim tables.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from statistics import mean
from typing import Any, Callable, Dict, NamedTuple

ROOT = Path(__file__).resolve().parents[3]
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
VERDICTS = ("holds", "approximately", "deviates")
#: A magnitude the paper reports counts as reproduced within ±25% of it:
#: the workloads are synthetic, ~1000x shorter than the paper's windows,
#: and the timing model is first-order (DESIGN.md).
MAGNITUDE = 0.25
KB, MB = 1 << 10, 1 << 20


class Claim(NamedTuple):
    """One claim of the paper, checked against one committed result."""

    result: str            # reads the data of results/<result>.json
    claim: str             # as the paper states it
    paper: str             # its value, and in brackets what is checked
    measure: Callable[[Dict[str, Any]], tuple]
    predicate: Callable[..., bool]   # over the measured tuple
    show: str              # formats the measured tuple
    verdict: str

    def measured(self, data: Dict[str, Any]) -> str:
        """The measured value, formatted for the table."""
        return self.show.format(*self.measure(data))


def load(result: str) -> Dict[str, Any]:
    """The ``data`` of the committed ``results/<result>.json``."""
    path = ROOT / "results" / f"{result}.json"
    return json.loads(path.read_text())["data"]


def _near(value: float, paper: float) -> bool:
    return abs(value - paper) <= MAGNITUDE * paper


def _span(data, of, keep):
    """``(min, max)`` of *of(oow, cow)* over the fork-suite benchmarks
    *keep* selects."""
    values = [of(b["oow"], b["cow"]) for b in data["benchmarks"] if keep(b)]
    return min(values), max(values)


def _type(type_id):
    return lambda benchmark: benchmark["type_id"] == type_id


def _memory(oow, cow):
    return oow["additional_memory_bytes"] / cow["additional_memory_bytes"]


def _cpi_cut(oow, cow):
    """``1 - OoW CPI / CoW CPI``, ``performance_improvement``."""
    return 1 - oow["cpi"] / cow["cpi"]


def _figure9_means(data):
    """Mean CPI reduction; mean and geomean speedup ``CoW / OoW CPI - 1``."""
    runs = data["benchmarks"]
    ratios = [b["cow"]["cpi"] / b["oow"]["cpi"] for b in runs]
    return (mean(_cpi_cut(b["oow"], b["cow"]) for b in runs),
            mean(ratios) - 1, math.prod(ratios) ** (1 / len(ratios)) - 1)


def _beats_csr(data, size):
    return sum(p["block_overheads"][size] < p["csr_overhead"]
               for p in data["points"])


def _sweep(data):
    """Overlay speedups over dense: the first, the last, the smallest,
    and the smallest rise between neighbouring zero-line fractions."""
    speedups = [p["dense_cycles"] / p["overlay_cycles"]
                for p in data["points"]]
    return (speedups[0], speedups[-1], min(speedups),
            min(b - a for a, b in zip(speedups, speedups[1:])))


CLAIMS = [
    Claim("figure8", "Type 1 benchmarks consume almost no extra memory under "
          "either mechanism", "≈ 0 MB (≤ 0.05 MB each)",
          lambda d: (max(b[p]["additional_memory_bytes"] / MB for p in
                         ("cow", "oow") for b in filter(_type(1),
                                                        d["benchmarks"])),),
          lambda mb: mb <= 0.05, "at most {:.3f} MB", "approximately"),
    Claim("figure8", "Type 2: both mechanisms consume almost the same memory "
          "(all lines of each written page are updated)",
          "≈ 1x (OoW/CoW 0.6–1.4 each)",
          lambda d: _span(d, _memory, _type(2)),
          lambda low, high: 0.6 <= low and high <= 1.4,
          "OoW/CoW {:.2f}–{:.2f}", "deviates"),
    Claim("figure8", "Type 3: overlay-on-write consumes far less memory (few "
          "lines per written page)", "far less (OoW/CoW < 0.5 each)",
          lambda d: _span(d, _memory, _type(3)), lambda low, high: high < 0.5,
          "OoW/CoW {:.2f}–{:.2f}", "holds"),
    Claim("figure8", "mean memory reduction", "53% (±25%)",
          lambda d: (d["summary"]["memory_reduction"],),
          lambda reduction: _near(reduction, 0.53), "{:.0%}", "approximately"),
    Claim("figure9", "Type 1: almost no difference between the mechanisms",
          "≈ 0% (CPI within ±25% each)",
          lambda d: _span(d, _cpi_cut, _type(1)),
          lambda low, high: -0.25 < low and high < 0.25,
          "OoW CPI {:.0%}–{:.0%} lower", "approximately"),
    Claim("figure9", "Type 2: overlay-on-write is significantly faster, "
          "except on cactus", "faster (lower CPI, each but cactus)",
          lambda d: _span(d, _cpi_cut, lambda b: b["type_id"] == 2
                          and b["benchmark"] != "cactus"),
          lambda low, high: low > 0, "OoW CPI {:.0%}–{:.0%} lower", "holds"),
    Claim("figure9", "cactus: copy-on-write is marginally faster (its writes "
          "are clustered, so the copy acts as a prefetch)",
          "CoW faster (lower CPI)", lambda d: _span(
              d, _cpi_cut, lambda b: b["benchmark"] == "cactus")[:1],
          lambda cut: cut < 0, "OoW CPI {:.0%} lower", "deviates"),
    Claim("figure9", "Type 3: overlay-on-write is significantly faster",
          "22–45% (CPI ≥ 22% lower each: ≥ 22% under both definitions)",
          lambda d: _span(d, _cpi_cut, _type(3)),
          lambda low, high: low >= 0.22, "OoW CPI {:.0%}–{:.0%} lower",
          "holds"),
    Claim("figure9", "mean performance improvement, taken as the CPI "
          "reduction 1 − OoW CPI / CoW CPI", "15% (±25%)", _figure9_means,
          lambda cut, *speedup: _near(cut, 0.15), "{:.0%} (as a speedup "
          "CoW CPI / OoW CPI − 1: mean {:.1%}, geomean {:.1%})", "deviates"),
    Claim("figure10", "L ≈ 1 (poisson3Db): CSR wins, overlays use far more "
          "memory and run slower", "4.83x memory, 1.7x slower (> 3x "
          "memory, slower at the lowest L)", lambda d: (
              d["points"][0]["relative_memory"],
              1 / d["points"][0]["relative_performance"]),
          lambda memory, slowdown: memory > 3 and slowdown > 1,
          "{:.2f}x memory, {:.2f}x slower", "holds"),
    Claim("figure10", "L = 8 (raefsky4): overlays use less memory and run "
          "faster", "34% less memory, 92% faster (both, at the highest L)",
          lambda d: (1 - d["points"][-1]["relative_memory"],
                     d["points"][-1]["relative_performance"] - 1),
          lambda less, faster: less > 0 and faster > 0,
          "{:.0%} less memory, {:.0%} faster", "holds"),
    Claim("figure10", "performance crossover at L ≈ 4.5",
          "L ≈ 4.5 (± one sweep step)",
          lambda d: (d["crossover_locality"], d["points"][1]["locality"]
                     - d["points"][0]["locality"]),
          lambda locality, step: abs(locality - 4.5) <= step,
          "L ≈ {:.2f} (sweep step {:.2f})", "deviates"),
    Claim("figure10", "overlays beat CSR on 34/87 (39%) of matrices",
          "39% (±25%)", lambda d: (
              sum(p["relative_performance"] > 1 for p in d["points"]),
              len(d["points"])),
          lambda wins, total: _near(wins / total, 34 / 87), "{}/{} (the "
          "sweep is uniform in L; the UF collection skews to low L)",
          "deviates"),
    Claim("figure11", "4KB-page management costs ~53x Ideal on average",
          "~53x (±25%)", lambda d: (d["mean_overheads"]["4096"],),
          lambda overhead: _near(overhead, 53), "{:.1f}x", "deviates"),
    Claim("figure11", "4KB pages cost far more than 64B lines",
          "~53x vs ~2–3x (> 5x the 64B mean)",
          lambda d: (d["mean_overheads"]["4096"], d["mean_overheads"]["64"]),
          lambda page, line: page > 5 * line, "{:.1f}x vs {:.1f}x", "holds"),
    Claim("figure11", "64B-line management is close to CSR",
          "close (means within ±25%)",
          lambda d: (d["mean_overheads"]["64"],
                     mean(p["csr_overhead"] for p in d["points"])),
          _near, "{:.2f}x vs CSR's {:.2f}x", "deviates"),
    Claim("figure11", "finer than 64B beats CSR on more matrices",
          "more (16B beats CSR more often than 64B)", lambda d: (
              _beats_csr(d, "16"), _beats_csr(d, "64"), len(d["points"])),
          lambda fine, line, total: fine > line,
          "16B on {0}/{2}, 64B on {1}/{2}", "holds"),
    Claim("sparsity_sweep", "overlays outperform the dense representation at "
          "all sparsity levels", "all levels (faster at each)", _sweep,
          lambda first, last, slowest, rise: slowest > 1,
          "speedup ≥ {2:.2f}x", "holds"),
    Claim("sparsity_sweep", "the gap grows linearly with the fraction of "
          "zero cache lines", "grows (the speedup rises at every step; "
          "linearity is not checked)", _sweep,
          lambda first, last, slowest, rise: rise > 0,
          "{0:.2f}x → {1:.2f}x, each step ≥ +{3:.2f}x", "holds"),
    Claim("hardware_cost", "storage of the OMT cache (64 × 512-bit "
          "entries), the TLB OBitVector extension, the cache tag extension "
          "(16b/line), and their total", "4 + 8.5 + 82 = 94.5 KB (exact)",
          lambda d: (*(d["cost"][f] / KB for f in ("omt_cache_bytes",
                       "tlb_extension_bytes", "cache_tag_extension_bytes")),
                     sum(d["cost"].values()) / KB),
          lambda *kb: kb == (4, 8.5, 82, 94.5),
          "{:.1f} + {:.1f} + {:.1f} = {:.1f} KB", "holds"),
    Claim("remap_latency", "overlay-on-write takes the page copy and the "
          "shootdown off the first write's critical path (§2.2, §4.3.3)",
          "multi-x lower (OoW < half of CoW)",
          lambda d: (d["latency"]["copy_on_write_cycles"],
                     d["latency"]["overlay_on_write_cycles"]),
          lambda cow, oow: 2 * oow < cow, "{} vs {} cycles", "holds"),
    Claim("ablations", "an OMT cache spares overlay misses the OMT walk",
          "— (no cache slower than 64 entries)", lambda d: (
              d["omt_cache_cycles"]["0"] / d["omt_cache_cycles"]["64"] - 1,),
          lambda cost: cost > 0, "+{:.0%} cycles without one", "holds"),
    Claim("ablations", "the 256B–4KB segment ladder saves overlay memory "
          "(§4.4.2)", "— (under half of only-4KB segments)", lambda d: (
              d["segment_ladder"]["only_4k_bytes"]
              / d["segment_ladder"]["ladder_bytes"],),
          lambda saving: saving > 2, "{:.1f}x less", "holds"),
    Claim("ablations", "the remap updates TLBs over the coherence network, "
          "not by shootdown (§4.3.3)", "— (coherence faster)",
          lambda d: (d["remap_mechanism_cycles"]["shootdown"]
                     / d["remap_mechanism_cycles"]["coherence"],),
          lambda ratio: ratio > 1, "{:.0f}x faster", "holds"),
    Claim("ablations", "fetching the OBitVector on a TLB fill costs little "
          "(§4.3)", "more than offset (0–50% on a TLB-thrash benchmark)",
          lambda d: (d["tlb_fill_cycles"]["overlays_on"]
                     / d["tlb_fill_cycles"]["overlays_off"] - 1,),
          lambda cost: 0 <= cost < 0.5, "+{:.1%}", "holds"),
    Claim("multiprogrammed", "overlay-on-write's advantage survives a "
          "streaming co-runner", "— (OoW CPI < CoW CPI with a neighbour)",
          lambda d: (d["overlay"]["shared_cpi"], d["copy"]["shared_cpi"]),
          lambda oow, cow: oow < cow, "CPI {:.2f} vs {:.2f}", "holds"),
]

_BLOCK = ("<!-- claims {0}: generated by `python -m repro.eval.claims` -->\n",
          "\n<!-- end claims {0} -->")


def render(result: str) -> str:
    """The Markdown table of the claims over ``results/<result>.json``."""
    data = load(result)
    rows = ["| claim (paper) | paper (checked) | measured | verdict |",
            "|---|---|---|---|"]
    rows += [f"| {c.claim} | {c.paper} | {c.measured(data)} | {c.verdict} |"
             for c in CLAIMS if c.result == result]
    return "\n".join(rows)


def update(text: str) -> str:
    """*text* with each generated claims block re-rendered; every result
    a claim reads needs exactly one block."""
    for result in dict.fromkeys(claim.result for claim in CLAIMS):
        begin, end = (marker.format(result) for marker in _BLOCK)
        block = re.compile(re.escape(begin) + ".*?" + re.escape(end), re.S)
        text, count = block.subn(lambda _: begin + render(result) + end, text)
        if count != 1:
            raise ValueError(f"{count} claims blocks for {result}, not 1")
    return text


if __name__ == "__main__":
    EXPERIMENTS_MD.write_text(
        update(EXPERIMENTS_MD.read_text(encoding="utf-8")), encoding="utf-8")
