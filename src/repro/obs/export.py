"""Writing machine-readable run artifacts next to the ASCII outputs.

Every harness keeps printing exactly the text it always printed (the
committed ``results/*.txt`` stay byte-identical); this module adds the
JSON sibling: ``results/<run>.json`` holding ``{"manifest", "data",
"stats"}`` and — when tracing is armed — ``results/<run>.trace.json``
in Chrome trace format.  ``stats`` is always ``null``: an experiment
builds many machines, so no one stats tree describes its run (the
``--profile`` document carries their merged cycle accounting instead).

The writer is :func:`emit_run`, which ``python -m repro --json`` calls
once per experiment.  The results directory defaults to ``./results``
(the CLI runs from the repository root) and is overridable via
``REPRO_RESULTS_DIR``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..config import SystemConfig
from .manifest import RunManifest
from .trace import Tracer

#: Environment override for the default results directory.
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


def default_results_dir() -> Path:
    """``$REPRO_RESULTS_DIR`` if set, else ``./results``."""
    return Path(os.environ.get(RESULTS_DIR_ENV) or "results")


def run_document(manifest: RunManifest, data: Any,
                 tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Assemble the ``results/*.json`` document.

    When the run was traced and the ring buffer overflowed, the document
    records ``{"trace": {"dropped", "capacity"}}`` so a reader of the
    artifact knows the event stream is incomplete (and what capacity to
    re-run with).
    """
    doc = {
        "manifest": manifest.to_dict(),
        "data": data,
        "stats": None,
    }
    if tracer is not None and tracer.dropped > 0:
        doc["trace"] = {"dropped": tracer.dropped,
                        "capacity": tracer.capacity}
    return doc


def write_json(path, doc: Dict[str, Any]) -> Path:
    """Crash-safely write *doc* as sorted, indented JSON at *path*.

    The document goes to a temporary sibling first and is moved into
    place with :func:`os.replace` (atomic within a filesystem), so a
    writer killed mid-write — or one that dies serialising — can never
    leave a torn artifact where a good one stood: readers see the old
    complete file or the new complete file, nothing in between.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    scratch = path.with_name(f".{path.name}.tmp")
    try:
        with open(scratch, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise
    return path


def emit_run(name: str, data: Any, *,
             config: Optional[SystemConfig] = None,
             seed: Optional[int] = None,
             manifest: Optional[RunManifest] = None,
             tracer: Optional[Tracer] = None,
             results_dir=None) -> Path:
    """Write ``<results_dir>/<name>.json`` (and ``.trace.json``).

    Returns the path of the main document.  *manifest* defaults to a
    fresh one (zero duration); pass the one opened at run start to get
    a real duration.
    """
    results_dir = Path(results_dir) if results_dir is not None \
        else default_results_dir()
    if manifest is None:
        manifest = RunManifest.create(name, config=config, seed=seed)
    manifest.finish()
    path = write_json(results_dir / f"{name}.json",
                      run_document(manifest, data, tracer=tracer))
    if tracer is not None:
        if tracer.dropped > 0:
            print(f"[trace ring buffer overflowed: {tracer.dropped} "
                  f"event(s) dropped at capacity {tracer.capacity}; "
                  f"re-run with a larger capacity for a complete stream]")
        results_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(results_dir / f"{name}.trace.json")
    return path

