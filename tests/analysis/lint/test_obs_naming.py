"""Rule ``obs-naming``: static, well-formed span/metric names."""

from repro.analysis.lint import LintConfig, LintRunner, build_rules

OBS = {"obs_modules": ("mod", "a", "b"), "obs_dynamic_allow": ()}


class TestGrammar:
    def test_uppercase_name_flagged(self, lint):
        source = 'registry.counter("Jobs.Total")\n'
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "naming grammar" in findings[0].message

    def test_leading_digit_and_dash_flagged(self, lint):
        source = """
        registry.gauge("2fast")
        registry.histogram("queue-depth")
        """
        assert len(lint(source, "obs-naming", **OBS)) == 2

    def test_wellformed_names_clean(self, lint):
        source = """
        registry.counter("store.jsonl.append")
        registry.gauge("service.queue.depth")
        with span("flow.run"):
            pass
        with tracer.span("engine.phase"):
            pass
        """
        assert lint(source, "obs-naming", **OBS) == []

    def test_trace_span_reexport_checked(self, lint):
        source = 'trace_span("Bad Name")\n'
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "span name" in findings[0].message

    def test_span_imported_from_elsewhere_ignored(self, lint):
        """A helper that happens to be named ``span`` is not a tracer."""
        source = """
        from geometry import span
        span(interval, 3)
        """
        assert lint(source, "obs-naming", **OBS) == []

    def test_aliased_obs_span_still_checked(self, lint):
        source = """
        from repro.obs.trace import span as trace_span
        trace_span(name)
        """
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "span name must be a static string literal" in findings[0].message

    def test_keyword_name_argument_checked(self, lint):
        """`registry.counter(name=...)` gets the same scrutiny as the
        positional spelling — no silent false negative."""
        source = 'registry.counter(name="Jobs.Total")\n'
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "naming grammar" in findings[0].message

    def test_keyword_dynamic_name_flagged(self, lint):
        source = "registry.gauge(name=metric_name)\n"
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "static string literal" in findings[0].message


class TestDynamicNames:
    def test_fstring_flagged_outside_dynamic_allow(self, lint):
        source = 'registry.counter(f"store.{driver}.append")\n'
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "f-string" in findings[0].message

    def test_fstring_allowed_in_dynamic_module(self, lint):
        source = 'registry.counter(f"store.{driver}.append")\n'
        findings = lint(
            source, "obs-naming", obs_modules=("mod",), obs_dynamic_allow=("mod",)
        )
        assert findings == []

    def test_fstring_skeleton_still_grammar_checked(self, lint):
        source = 'registry.counter(f"Store-{driver}")\n'
        findings = lint(
            source, "obs-naming", obs_modules=("mod",), obs_dynamic_allow=("mod",)
        )
        assert len(findings) == 1
        assert "skeleton" in findings[0].message

    def test_variable_name_flagged_outside_dynamic_allow(self, lint):
        source = "registry.counter(metric_name)\n"
        findings = lint(source, "obs-naming", **OBS)
        assert len(findings) == 1
        assert "static string literal" in findings[0].message

    def test_unrelated_calls_ignored(self, lint):
        """Non-registry receivers and non-span functions are out of scope."""
        source = """
        items.counter("whatever")
        client.span("Not.A.Tracer")
        histogram("free function")
        """
        assert lint(source, "obs-naming", **OBS) == []


class TestKindCollision:
    def test_cross_file_collision_reported_once(self, write_module):
        a = write_module("a.py", 'registry.counter("jobs.total")\n')
        b = write_module("b.py", 'registry.gauge("jobs.total")\n')
        runner = LintRunner(
            config=LintConfig(**OBS), rules=build_rules(["obs-naming"])
        )
        findings = runner.run([a, b]).findings
        assert len(findings) == 1
        assert findings[0].path.endswith("b.py")
        assert "more than one kind" in findings[0].message
        assert "counter at" in findings[0].message
        assert "gauge at" in findings[0].message

    def test_keyword_registration_participates_in_collision(
        self, write_module
    ):
        a = write_module("a.py", 'registry.counter(name="jobs.total")\n')
        b = write_module("b.py", 'registry.gauge("jobs.total")\n')
        runner = LintRunner(
            config=LintConfig(**OBS), rules=build_rules(["obs-naming"])
        )
        findings = runner.run([a, b]).findings
        assert len(findings) == 1
        assert "more than one kind" in findings[0].message

    def test_same_kind_twice_is_not_a_collision(self, write_module):
        a = write_module("a.py", 'registry.counter("jobs.total")\n')
        b = write_module("b.py", 'registry.counter("jobs.total")\n')
        runner = LintRunner(
            config=LintConfig(**OBS), rules=build_rules(["obs-naming"])
        )
        assert runner.run([a, b]).findings == []

    def test_collision_state_does_not_leak_between_runs(self, write_module):
        """build_rules() hands out fresh instances: two runs over the
        same counter file never see each other's registrations."""
        a = write_module("a.py", 'registry.counter("jobs.total")\n')
        for _ in range(2):
            runner = LintRunner(
                config=LintConfig(**OBS), rules=build_rules(["obs-naming"])
            )
            assert runner.run([a]).findings == []
