"""The integration gate's one run of ``python -m repro --json all``, in
this process with the root hook armed."""

import io
import re
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from repro import __main__ as cli
from repro.engine.process_state import reset_all
from repro.engine.tracing import (RootObserver, install_root_observer,
                                  uninstall_root_observer)
from repro.robust.invariants import InvariantChecker

_BOOKKEEPING = re.compile(r"^\[(wrote .*|\S+ done in [\d.]+s)\]\n", re.M)


class MachineSweep(RootObserver):
    """Sweeps each machine with ``check_all()`` once it is finished: when
    the next one is built or its experiment returns.  An experiment
    builds and uses its machines one after another, as the profile
    accumulator also relies on, so one machine is alive at a time."""

    def __init__(self):
        self.machine = None
        self.violations = {}  # experiment -> one list per machine built

    def on_root(self, component) -> None:
        if component.component_name == "system":
            self.finish()
            self.machine = component

    def finish(self) -> None:
        if self.machine is not None:
            list(self.violations.values())[-1].append(
                InvariantChecker(self.machine).check_all())
            self.machine = None


@pytest.fixture(scope="session")
def regenerated(tmp_path_factory):
    """The run's ``out_dir``, printed ``sections`` and ``violations``."""
    reset_all()  # as a fresh interpreter would start
    out_dir = tmp_path_factory.mktemp("results")
    sweep, run_one, printed = MachineSweep(), cli._run_one, io.StringIO()

    def run_and_sweep(target, *args, **kwargs):
        sweep.violations[target] = []
        run_one(target, *args, **kwargs)
        sweep.finish()

    with pytest.MonkeyPatch.context() as patch, redirect_stdout(printed):
        patch.setattr(cli, "_run_one", run_and_sweep)
        install_root_observer(sweep)
        try:
            assert cli.main(["--json", "--results-dir", str(out_dir),
                             "all"]) == 0
        finally:
            uninstall_root_observer()
    sections = _BOOKKEEPING.sub("", printed.getvalue()).split(
        "\n" + "=" * 72 + "\n\n")  # main's separator
    assert len(sections) == len(cli.EXPERIMENTS)
    return SimpleNamespace(out_dir=out_dir, violations=sweep.violations,
                           sections=dict(zip(cli.EXPERIMENTS, sections)))
