"""Pinned per-rule cases for the architecture checks of
``tests/test_architecture.py``.

Each rule gets a violating input whose findings are pinned by message and a
clean input that must produce none, plus the ``# simlint: disable=`` pragma
cases.  The inputs are inline sources parsed under a ``repro.*`` module
name, so nothing here touches the real trees.
"""

import textwrap

from tests.test_architecture import (
    CHECKS,
    Finding,
    check_determinism,
    check_hot_path_slots,
    check_latency_literals,
    check_layering,
    check_program_callers,
    check_stats_discipline,
    inline,
    unsuppressed,
    unused_pragmas,
)


def run(check, *sources, name="repro.mem.sample"):
    """Unsuppressed findings of ``check`` on one inline module, or on the
    ``(name, source)`` pairs given."""
    modules = ([inline(sources[0], name)] if len(sources) == 1
               else [inline(source, module) for module, source in sources])
    return unsuppressed(modules, check(modules))


SL001_VIOLATION = '''
    import random
    import time
    from datetime import datetime
    from random import randrange

    def timestamped_sample(population):
        started = time.time()
        stamp = datetime.now()
        pick = random.choice(population)
        noise = random.random()
        extra = randrange(10)
        return started, stamp, pick, noise, extra
'''


class TestSL001Determinism:
    def test_violations_flagged(self):
        findings = run(check_determinism, SL001_VIOLATION)
        messages = [f.message for f in findings]
        assert len(findings) == 5
        assert any("time.time" in m for m in messages)
        assert any("datetime.now" in m for m in messages)
        assert any("random.choice" in m for m in messages)
        assert any("random.random" in m for m in messages)
        assert any("randrange" in m for m in messages)

    def test_clean_file_passes(self):
        # Constructing a seeded generator and calling an injected one are
        # deterministic.
        assert run(check_determinism, '''
            import random
            import numpy as np

            def sample(population, rng: random.Random):
                generator = random.Random(7)
                numbers = np.random.default_rng(7)
                return (rng.choice(population), generator.random(),
                        numbers.random())
        ''') == []


class TestSL002ConfigOwnedLatencies:
    def test_violations_flagged(self):
        findings = run(check_latency_literals, '''
            PROBE_LATENCY = 42

            def lookup(entry, miss_latency: int = 900):
                if entry is None:
                    return miss_latency
                total_cycles = 3
                return probe(entry, tag_latency=2)

            def probe(entry, tag_latency):
                return tag_latency
        ''')
        messages = sorted(f.message for f in findings)
        assert len(findings) == 4
        assert any("PROBE_LATENCY" in m for m in messages)
        assert any("miss_latency" in m for m in messages)
        assert any("total_cycles" in m for m in messages)
        assert any("tag_latency" in m for m in messages)

    def test_clean_file_passes(self):
        # Config reads at call time, zero initialisers and non-timing
        # literals all pass.
        assert run(check_latency_literals, '''
            from repro.config import DEFAULT_CONFIG

            def lookup(entry, config=DEFAULT_CONFIG):
                latency = 0
                size = 4096
                if entry is None:
                    return config.tlb_miss_latency + latency
                return size + DEFAULT_CONFIG.l1_tag_latency
        ''') == []


SL003_VIOLATION = '''
    from repro.engine.component import Component

    class LeakyCache(Component):
        def __init__(self):
            super().__init__("leaky")
            self.hits = 0
            self._probes = 0

        def access(self, tag):
            self._probes += 1
            self.hits += 1
            return tag
'''


class TestSL003StatsDiscipline:
    def test_adhoc_counter_flagged(self):
        findings = run(check_stats_discipline, SL003_VIOLATION)
        assert len(findings) == 1
        assert "hits" in findings[0].message
        assert "LeakyCache" in findings[0].message

    def test_private_attrs_exempt(self):
        findings = run(check_stats_discipline, SL003_VIOLATION)
        assert not any("_probes" in f.message for f in findings)

    def test_registered_counters_pass(self):
        assert run(check_stats_discipline, '''
            from dataclasses import dataclass
            from repro.engine.component import Component

            @dataclass
            class CacheCounters:
                hits: int = 0

            class DisciplinedCache(Component):
                def __init__(self, prefetcher):
                    super().__init__("disciplined")
                    self.stats = CacheCounters()
                    self.fills = 0
                    self.stats_scope.own_block(self.stats)
                    self.stats_scope.register_block("fills", self.fills)

                def access(self, tag):
                    self.stats.hits += 1
                    self.fills += 1
                    return tag
        ''') == []


LAYERING_CLEAN = (
    ("repro.engine.widget", '''
        class Widget:
            pass

        def build_policy():
            from repro.techniques.policy import PolicyKnob
            return PolicyKnob()
    '''),
    ("repro.techniques.policy", '''
        from repro.engine.widget import Widget

        class PolicyKnob(Widget):
            pass
    '''),
)


class TestSL004Layering:
    def test_upward_import_and_cycle_flagged(self):
        findings = run(check_layering, (
            "repro.engine.widget",
            "from repro.techniques.policy import PolicyKnob\n",
        ), ("repro.techniques.policy", "class PolicyKnob:\n    pass\n"),
            ("repro.mem.alpha", "from repro.mem.beta import beta_helper\n"),
            ("repro.mem.beta", "from repro.mem.alpha import alpha_helper\n"))
        upward = [f for f in findings if "cycle" not in f.message]
        cycles = [f for f in findings if "cycle" in f.message]
        assert len(upward) == 1
        assert upward[0].path == "repro/engine/widget.py"
        assert "techniques" in upward[0].message
        assert cycles, "module cycle alpha<->beta should be reported"
        assert any("alpha" in f.message and "beta" in f.message
                   for f in cycles)

    def test_clean_tree_passes(self):
        assert run(check_layering, *LAYERING_CLEAN) == []

    def test_function_body_imports_are_deferred(self):
        # The clean widget reaches up inside a function body, the
        # sanctioned lazy escape hatch; the same import at module scope
        # is an upward import (and closes a cycle with the policy module).
        name, source = LAYERING_CLEAN[0]
        assert "repro.techniques" in source
        hoisted = ("from repro.techniques.policy import PolicyKnob\n"
                   + textwrap.dedent(source))
        findings = run(check_layering, (name, hoisted), LAYERING_CLEAN[1])
        assert "upward import of repro.techniques.policy" \
            in [f.message for f in findings]


class TestSL006HotPathSlots:
    VIOLATION = '''
        # simlint: hot-path
        """A hot-path module with an unslotted per-access class."""
        from dataclasses import dataclass
        from repro.engine.component import Component

        @dataclass
        class StatsBlock:
            hits: int = 0

        class BareEntry:
            def __init__(self, tag):
                self.tag = tag

        class SlottedEntry:
            __slots__ = ("tag",)

            def __init__(self, tag):
                self.tag = tag

        class HotCache(Component):
            pass

        class HotPathError(RuntimeError):
            pass
    '''

    def test_unslotted_class_flagged(self):
        findings = run(check_hot_path_slots, self.VIOLATION)
        assert len(findings) == 1
        assert "BareEntry" in findings[0].message
        assert "__slots__" in findings[0].message

    def test_exemptions(self):
        # Slotted classes, Component subclasses, dataclasses and exception
        # classes in the same marked module all pass.
        messages = " ".join(
            f.message for f in run(check_hot_path_slots, self.VIOLATION))
        for exempt in ("SlottedEntry", "HotCache", "StatsBlock",
                       "HotPathError"):
            assert exempt not in messages

    def test_unmarked_module_passes(self):
        assert run(check_hot_path_slots, '''
            class RelaxedEntry:
                def __init__(self, tag):
                    self.tag = tag
        ''') == []


class TestSL007ProgramCallers:
    LIBRARY = (
        ("repro.mem.sample", '''
            class Cache:
                def lookup(self, tag):
                    return tag

                def peek(self, tag):
                    return tag

            def _helper():
                return Cache()
        '''),
        ("repro.mem.user", '''
            from repro.mem.sample import Cache

            def build():
                return Cache().lookup(0)
        '''),
    )

    def test_definition_without_caller_flagged(self):
        findings = run(check_program_callers, *self.LIBRARY)
        assert sorted(f.message for f in findings) == [
            "_helper has no program caller", "build has no program caller",
            "peek has no program caller"]
        assert {f.path for f in findings} == {"repro/mem/sample.py",
                                             "repro/mem/user.py"}

    def test_callers_outside_src_count_and_are_not_checked(self):
        # An example's call is a program caller; the example's own
        # definitions are not checked.
        example = ("examples.tool", '''
            from repro.mem.sample import Cache
            from repro.mem.user import build

            def main():
                return Cache().peek(build())
        ''')
        assert [f.message for f in run(
            check_program_callers, *self.LIBRARY, example)] == [
            "_helper has no program caller"]

    def test_string_references_count(self):
        # getattr tables and __all__ name a definition as a string.
        assert run(check_program_callers, '''
            __all__ = ["public"]
            METHODS = ("probe",)

            class Cache:
                def probe(self):
                    return getattr(self, METHODS[0])

            def public():
                return Cache
        ''') == []

    def test_pragma_keeps_a_test_oracle(self):
        source = '''
            def oracle():  # simlint: disable=SL007 tests compare against it
                return []
        '''
        module = inline(source)
        findings = list(check_program_callers([module]))
        assert unsuppressed([module], findings) == []
        assert unused_pragmas([module], findings) == []
        # Once a program calls it, the pragma suppresses nothing.
        caller = inline("from repro.mem.sample import oracle\n"
                        "total = len(oracle())\n", "repro.mem.user")
        findings = list(check_program_callers([module, caller]))
        assert unused_pragmas([module, caller], findings) == [
            "repro/mem/sample.py:2: SL007"]


class TestPragmas:
    def test_suppressed(self):
        module = inline("x = 1\ny = 2  # simlint: disable=SL001\n"
                        "z = 3  # simlint: disable=SL002, SL003\n")

        def survives(code, line):
            finding = Finding(code, module.path, line, "m")
            return unsuppressed([module], [finding]) == [finding]

        assert not survives("SL001", 2)
        assert not survives("SL002", 3)
        assert not survives("SL003", 3)
        assert survives("SL002", 2)
        assert survives("SL001", 1)
        assert survives("SL001", 3)

    def test_pragma_fixture(self):
        module = inline('''
            import random
            import time

            harness_started = time.time()  # simlint: disable=SL001
            jitter = random.random()  # simlint: disable=SL001
            BUS_LATENCY = 17  # simlint: disable=SL002
            leftover = time.time()
        ''')
        findings = unsuppressed([module], [
            finding for check in CHECKS.values()
            for finding in check([module])])
        # Three pragma'd lines are silenced; the bare time.time() on the
        # last line is the only survivor.
        assert len(findings) == 1
        assert findings[0].code == "SL001"
        assert "time.time" in findings[0].message
