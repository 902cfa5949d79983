"""API-contract rule family (RPR301-RPR303)."""

import textwrap

from repro.lint import lint_source
from repro.lint.rules_contracts import SchedulerRegistrationRule
from repro.lint.engine import ModuleContext, parse_suppressions

import ast
from pathlib import Path


def _ctx(source: str, display: str) -> ModuleContext:
    source = textwrap.dedent(source)
    suppressions, _ = parse_suppressions(source)
    return ModuleContext(
        path=Path(display),
        display_path=display,
        source=source,
        tree=ast.parse(source),
        suppressions=suppressions,
    )


class TestSchedulerHooks:
    def test_subclass_with_decide_but_no_name_flagged(self, codes_in):
        assert "RPR301" in codes_in(
            """
            class MyScheduler(Scheduler):
                def decide(self, now, ready, outlook):
                    return Decision.idle()
            """
        )

    def test_subclass_with_neither_hook_flagged(self, codes_in):
        assert "RPR301" in codes_in(
            """
            class MyScheduler(EaDvfsScheduler):
                pass
            """
        )

    def test_complete_subclass_clean(self, codes_in):
        assert codes_in(
            """
            class MyScheduler(Scheduler):
                name = "mine"

                def decide(self, now, ready, outlook):
                    return Decision.idle()
            """
        ) == []

    def test_annotated_name_assignment_counts(self, codes_in):
        assert codes_in(
            """
            class MyScheduler(Scheduler):
                name: ClassVar[str] = "mine"

                def decide(self, now, ready, outlook):
                    return Decision.idle()
            """
        ) == []

    def test_abstract_intermediary_exempt(self, codes_in):
        assert codes_in(
            """
            class BaseEnergyScheduler(Scheduler):
                @abc.abstractmethod
                def outlook_hook(self):
                    ...
            """
        ) == []

    def test_unrelated_class_ignored(self, codes_in):
        assert codes_in("class Widget(Base):\n    pass\n") == []


class TestSchedulerRegistration:
    REGISTRY = """
        _FACTORIES = {}

        def _ensure_builtins():
            from repro.core.ea_dvfs import EaDvfsScheduler
            for cls in (EaDvfsScheduler,):
                _FACTORIES.setdefault(cls.name, cls)
        """

    POLICY = """
        class RogueScheduler(Scheduler):
            name = "rogue"

            def decide(self, now, ready, outlook):
                return Decision.idle()
        """

    def test_unregistered_scheduler_flagged(self):
        rule = SchedulerRegistrationRule()
        modules = [
            _ctx(self.REGISTRY, "src/repro/sched/registry.py"),
            _ctx(self.POLICY, "src/repro/sched/rogue.py"),
        ]
        findings = list(rule.check_project(modules))
        assert [f.code for f in findings] == ["RPR302"]
        assert "RogueScheduler" in findings[0].message

    def test_registry_mention_satisfies_rule(self):
        rule = SchedulerRegistrationRule()
        registry = self.REGISTRY.replace(
            "EaDvfsScheduler,)", "EaDvfsScheduler, RogueScheduler)"
        )
        modules = [
            _ctx(registry, "src/repro/sched/registry.py"),
            _ctx(self.POLICY, "src/repro/sched/rogue.py"),
        ]
        assert list(rule.check_project(modules)) == []

    def test_register_scheduler_call_satisfies_rule(self):
        rule = SchedulerRegistrationRule()
        policy = self.POLICY + (
            "register_scheduler('rogue', RogueScheduler)\n"
        )
        modules = [
            _ctx(self.REGISTRY, "src/repro/sched/registry.py"),
            _ctx(policy, "src/repro/sched/rogue.py"),
        ]
        assert list(rule.check_project(modules)) == []

    def test_without_registry_in_run_stays_silent(self):
        rule = SchedulerRegistrationRule()
        modules = [_ctx(self.POLICY, "src/repro/sched/rogue.py")]
        assert list(rule.check_project(modules)) == []

    def test_test_code_is_exempt(self):
        rule = SchedulerRegistrationRule()
        modules = [
            _ctx(self.REGISTRY, "src/repro/sched/registry.py"),
            _ctx(self.POLICY, "tests/sched/test_rogue.py"),
        ]
        assert list(rule.check_project(modules)) == []


class TestFrozenSpecMutation:
    def test_attribute_assignment_on_spec_flagged(self, codes_in):
        assert "RPR303" in codes_in("spec.horizon = 10.0\n")

    def test_annotated_parameter_tracked(self, codes_in):
        assert "RPR303" in codes_in(
            """
            def tweak(world: ScenarioSpec) -> None:
                world.capacity = 1.0
            """
        )

    def test_object_setattr_on_foreign_instance_flagged(self, codes_in):
        assert "RPR303" in codes_in(
            "object.__setattr__(spec, 'horizon', 10.0)\n"
        )

    def test_object_setattr_on_self_allowed(self, codes_in):
        # Frozen dataclasses legitimately use object.__setattr__ on self
        # inside __post_init__.
        assert codes_in(
            """
            class Thing:
                def __post_init__(self):
                    object.__setattr__(self, "cached", 1)
            """
        ) == []

    def test_replace_is_the_blessed_path(self, codes_in):
        assert codes_in(
            "new_spec = dataclasses.replace(spec, horizon=20.0)\n"
        ) == []

    def test_unrelated_attribute_assignment_clean(self, codes_in):
        assert codes_in("config.horizon = 10.0\n") == []


class TestSelfDocumentation:
    def test_rule_table_in_package_docstring_is_complete(self):
        import repro.lint
        from repro.lint import all_rules

        for rule in all_rules():
            assert rule.code in repro.lint.__doc__


class TestSeededViolationsPerFamily:
    """Non-vacuity: one deliberately planted violation per family."""

    def test_all_four_families_fire_on_one_snippet(self):
        report = lint_source(
            textwrap.dedent(
                """
                # repro: float-doctrine
                import random

                import numpy as np

                def plan(values: FloatArray, path):
                    jitter = random.random()          # determinism
                    with open(path, "w") as handle:   # atomic writes
                        handle.write(str(jitter))
                    return np.power(values, 2.0)      # float doctrine

                class GhostScheduler(Scheduler):      # missing `name`
                    def decide(self, now, ready, outlook):
                        return Decision.idle()
                """
            )
        )
        codes = {d.code for d in report.diagnostics}
        assert {"RPR001", "RPR301", "RPR402", "RPR506"} <= codes
