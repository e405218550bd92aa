"""Run manifests: who produced a result file, and under what machine.

Every benchmark and eval harness that writes a ``results/*.json``
embeds a :class:`RunManifest` describing the run: the package version,
the full resolved :class:`~repro.config.SystemConfig` (Table 2), the
base RNG seed every synthetic-input stream derives from, the host
interpreter/platform, and wall-clock start/duration metadata.

Two halves with different determinism contracts:

* the **deterministic** fields (``run``, ``package``, ``version``,
  ``rng_seed``, ``config``) are byte-identical across reruns of the
  same experiment — :meth:`RunManifest.deterministic_dict` exposes just
  these, and the determinism suite diffs them;
* the **environment** fields (``python``, ``platform``, ``started_at``,
  ``duration_seconds``) record when/where the run happened.  They are
  harness metadata, not simulated state — the wall-clock reads carry
  explicit simlint SL001 pragmas, exactly like the CLI's elapsed-time
  banner.
"""

from __future__ import annotations

import platform as _platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional

from ..config import DEFAULT_CONFIG, SystemConfig
from ..engine.rng import resolve_seed

#: Manifest layout version, bumped on incompatible shape changes so
#: downstream consumers (the CI validator, trajectory tooling) can gate.
MANIFEST_FORMAT = 1


@dataclass
class RunManifest:
    """Provenance of one benchmark/harness run."""

    run: str
    version: str
    rng_seed: int
    config: Dict[str, Any]
    package: str = "repro"
    format: int = MANIFEST_FORMAT
    python: str = ""
    platform: str = ""
    started_at: str = ""
    duration_seconds: Optional[float] = None
    #: Monotonic start mark for :meth:`finish`; never serialised.
    _started: Optional[float] = field(default=None, repr=False,
                                      compare=False)

    @classmethod
    def create(cls, run: str, config: Optional[SystemConfig] = None,
               seed: Optional[int] = None) -> "RunManifest":
        """Start a manifest for *run* on the current machine.

        *config* defaults to the stock Table 2 configuration; *seed*
        defaults to the config's base RNG seed (the value
        :func:`~repro.engine.rng.resolve_seed` roots every stream at).
        """
        config = config or DEFAULT_CONFIG
        from .. import __version__
        return cls(
            run=run,
            version=__version__,
            rng_seed=resolve_seed(seed, config=config),
            config=asdict(config),
            python=_platform.python_version(),
            platform=f"{sys.platform}/{_platform.machine()}",
            started_at=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),  # simlint: disable=SL001
            _started=time.monotonic())              # simlint: disable=SL001

    def finish(self) -> "RunManifest":
        """Record the run's wall-clock duration (idempotent-ish: calling
        again extends the window, matching a re-entered harness)."""
        if self._started is not None:
            self.duration_seconds = round(
                time.monotonic() - self._started, 6)  # simlint: disable=SL001
        return self

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "package": self.package,
            "format": self.format,
            "version": self.version,
            "rng_seed": self.rng_seed,
            "config": dict(self.config),
            "python": self.python,
            "platform": self.platform,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The subset that is byte-identical across reruns."""
        doc = self.to_dict()
        for key in ("python", "platform", "started_at", "duration_seconds"):
            doc.pop(key)
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunManifest":
        known = {spec.name for spec in fields(cls) if spec.name != "_started"}
        return cls(**{key: value for key, value in doc.items()
                      if key in known})
