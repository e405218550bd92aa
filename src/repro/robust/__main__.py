"""Fault-injection campaign CLI.

Usage::

    python -m repro.robust [--name NAME] [--rates R1,R2,...]
                           [--trials N] [--ops N] [--pages N]
                           [--cores N] [--ecc secded|parity|none]
                           [--check-interval CYCLES] [--no-recover]
                           [--seed N] [--results-dir DIR]

Runs a deterministic fault-injection campaign over the page-overlay
machine: for each rate multiplier, ``--trials`` seeded trials execute a
synthetic CoW-heavy workload with faults armed, the invariant checker
sweeping at ``--check-interval`` simulated cycles, and each trial is
classified against a golden (fault-free) run as masked / corrected /
detected_recovered / silent_corruption / crash.  The campaign document
lands crash-safely in ``<results-dir>/<name>.faults.json`` and
validates against the ``repro.obs`` fault-campaign schema.

Same ``--seed`` + same plan => byte-identical artifact (the CI
robustness job runs the smoke campaign twice and diffs the files).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .campaign import OUTCOMES, run_campaign
from .faults import ECC_MODES

#: The stock sweep: from faults-almost-never to faults-constantly.
DEFAULT_RATES = (0.0, 0.002, 0.01, 0.05)


def _format_summary(doc) -> str:
    lines = [f"fault campaign {doc['name']!r}: "
             f"{sum(doc['outcome_totals'].values())} trial(s)"]
    header = "rate".rjust(8) + "".join(o.rjust(20) for o in OUTCOMES)
    lines.append(header)
    for entry in doc["sweep"]:
        row = f"{entry['rate']:>8g}"
        for outcome in OUTCOMES:
            row += f"{entry['outcomes'][outcome]:>20d}"
        lines.append(row)
    totals = doc["outcome_totals"]
    lines.append("total".rjust(8)
                 + "".join(f"{totals[o]:>20d}" for o in OUTCOMES))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    name = "fault_campaign"
    rates: Optional[List[float]] = None
    trials, ops, pages, cores = 4, 160, 4, 2
    ecc = "secded"
    check_interval = 0
    recover = True
    seed: Optional[int] = None
    results_dir = None

    def _take(flag: str) -> Optional[str]:
        nonlocal i
        i += 1
        if i >= len(args):
            print(f"{flag} requires a value\n{__doc__}")
            return None
        return args[i]

    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-h", "--help"):
            print(__doc__)
            return 0
        elif arg == "--name":
            value = _take(arg)
            if value is None:
                return 2
            name = value
        elif arg == "--rates":
            value = _take(arg)
            if value is None:
                return 2
            try:
                rates = [float(token) for token in value.split(",") if token]
            except ValueError:
                print(f"--rates needs comma-separated numbers, got {value!r}")
                return 2
        elif arg in ("--trials", "--ops", "--pages", "--cores",
                     "--check-interval", "--seed"):
            value = _take(arg)
            if value is None:
                return 2
            try:
                number = int(value)
            except ValueError:
                print(f"{arg} needs an integer, got {value!r}")
                return 2
            if arg == "--trials":
                trials = number
            elif arg == "--ops":
                ops = number
            elif arg == "--pages":
                pages = number
            elif arg == "--cores":
                cores = number
            elif arg == "--check-interval":
                check_interval = number
            else:
                seed = number
        elif arg == "--ecc":
            value = _take(arg)
            if value is None:
                return 2
            if value not in ECC_MODES:
                print(f"--ecc must be one of {', '.join(ECC_MODES)}")
                return 2
            ecc = value
        elif arg == "--no-recover":
            recover = False
        elif arg == "--results-dir":
            value = _take(arg)
            if value is None:
                return 2
            results_dir = value
        else:
            print(f"unknown option {arg}\n{__doc__}")
            return 2
        i += 1

    if min(trials, ops, pages, cores) < 1 or check_interval < 0:
        print("--trials/--ops/--pages/--cores must be positive and "
              "--check-interval non-negative")
        return 2
    doc = run_campaign(name, rates if rates is not None else DEFAULT_RATES,
                       trials=trials, ops=ops, pages=pages, cores=cores,
                       ecc=ecc, check_interval=check_interval,
                       recover=recover, seed=seed,
                       results_dir=results_dir)
    print(_format_summary(doc))
    print(f"[wrote {(results_dir or 'results')}/{name}.faults.json]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
