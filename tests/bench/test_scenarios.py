"""Scenario matrix and suite determinism."""

import random

import pytest

from repro.bench import (
    SUITE_NAMES,
    Scenario,
    get_suite,
    override_execution,
    scenario_matrix,
    sort_scenarios,
)


class TestScenario:
    def test_id_is_stable_and_unique_per_parameters(self):
        a = Scenario(circuit="s9234", scale=0.05, sigma=1.0)
        b = Scenario(circuit="s9234", scale=0.05, sigma=1.0)
        c = Scenario(circuit="s9234", scale=0.05, sigma=2.0)
        assert a.scenario_id == b.scenario_id
        assert a.scenario_id != c.scenario_id
        assert "s9234@0.05" in a.scenario_id and "sigma1" in a.scenario_id

    def test_round_trip_through_dict(self):
        scenario = Scenario(
            circuit="s13207", scale=0.1, sigma=2.0, solver="milp",
            executor="processes", jobs=4, n_samples=200, n_eval_samples=400, seed=7,
        )
        assert Scenario.from_dict(scenario.as_dict()) == scenario

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario parameters"):
            Scenario.from_dict({"circuit": "s9234", "scale": 0.05, "bogus": 1})

    def test_flow_config_carries_every_knob(self):
        scenario = Scenario(
            circuit="s9234", scale=0.05, sigma=1.0, solver="milp",
            executor="processes", jobs=3, n_samples=111, n_eval_samples=222, seed=9,
        )
        config = scenario.flow_config()
        assert config.n_samples == 111
        assert config.n_eval_samples == 222
        assert config.seed == 9
        assert config.target_sigma == 1.0
        assert config.solver == "milp"
        assert config.executor == "processes"
        assert config.jobs == 3


class TestOrdering:
    def test_sort_is_deterministic_under_shuffling(self):
        scenarios = scenario_matrix(
            circuits=[("s9234", 0.05), ("s13207", 0.05)],
            sigmas=(0.0, 1.0, 2.0),
            executors=(("serial", None), ("processes", 2)),
        )
        reference = [s.scenario_id for s in scenarios]
        rng = random.Random(42)
        for _ in range(5):
            shuffled = list(scenarios)
            rng.shuffle(shuffled)
            assert [s.scenario_id for s in sort_scenarios(shuffled)] == reference

    def test_duplicates_are_rejected(self):
        scenario = Scenario(circuit="s9234", scale=0.05)
        with pytest.raises(ValueError, match="duplicate scenario"):
            sort_scenarios([scenario, scenario])


class TestSuites:
    def test_known_suites_exist(self):
        assert set(SUITE_NAMES) == {"quick", "default", "full"}

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suites_are_sorted_and_unique(self, name):
        suite = get_suite(name)
        assert suite, f"suite {name} is empty"
        assert suite == sort_scenarios(suite)
        ids = [s.scenario_id for s in suite]
        assert len(ids) == len(set(ids))

    def test_get_suite_is_reproducible(self):
        assert get_suite("quick") == get_suite("quick")

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            get_suite("nope")

    def test_quick_suite_is_small(self):
        # The quick suite backs the CI perf-smoke job; keep it tiny.
        suite = get_suite("quick")
        assert len(suite) <= 5
        assert all(s.n_samples <= 100 for s in suite)


class TestOverride:
    def test_override_repins_executor_and_jobs(self):
        overridden = override_execution(get_suite("quick"), executor="serial", jobs=1)
        assert all(s.executor == "serial" and s.jobs == 1 for s in overridden)
        assert overridden == sort_scenarios(overridden)

    def test_override_dedupes_collapsed_scenarios(self):
        suite = get_suite("quick")  # serial + processes variants of one workload
        overridden = override_execution(suite, executor="serial", jobs=1)
        ids = [s.scenario_id for s in overridden]
        assert len(ids) == len(set(ids))
        assert len(overridden) < len(suite)

    def test_no_override_is_identity(self):
        suite = get_suite("quick")
        assert override_execution(suite) == suite


class TestCampaignScenarios:
    def test_flow_id_is_unchanged_by_the_new_fields(self):
        # Schema-1 artifacts join on this exact id; it must not grow a
        # kind/dispatch segment for flow scenarios.
        scenario = Scenario(circuit="s9234", scale=0.05, sigma=1.0)
        assert scenario.scenario_id == "s9234@0.05/sigma1/graph/serialxauto/n60e100s3"
        assert scenario.kind == "flow" and scenario.dispatch == "batched"

    def test_campaign_id_carries_the_dispatch(self):
        batched = Scenario(circuit="s9234", scale=0.05, kind="campaign")
        sequential = Scenario(
            circuit="s9234", scale=0.05, kind="campaign", dispatch="sequential"
        )
        assert batched.scenario_id.endswith("/campaign-batched")
        assert sequential.scenario_id.endswith("/campaign-sequential")
        assert batched.scenario_id != sequential.scenario_id

    def test_round_trip_through_dict(self):
        scenario = Scenario(
            circuit="s9234", scale=0.05, sigma=1.0, executor="processes",
            jobs=2, kind="campaign", dispatch="sequential",
        )
        assert Scenario.from_dict(scenario.as_dict()) == scenario

    def test_from_dict_defaults_missing_kind_and_dispatch(self):
        # A schema-1 params mapping (no kind/dispatch) must still load.
        scenario = Scenario.from_dict(
            {
                "circuit": "s9234", "scale": 0.05, "sigma": 1.0, "solver": "graph",
                "executor": "serial", "jobs": None, "n_samples": 60,
                "n_eval_samples": 100, "seed": 3,
            }
        )
        assert scenario.kind == "flow" and scenario.dispatch == "batched"

    def test_invalid_kind_and_dispatch_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(circuit="s9234", scale=0.05, kind="bogus")
        with pytest.raises(ValueError, match="dispatch"):
            Scenario(circuit="s9234", scale=0.05, dispatch="bogus")

    def test_quick_suite_has_both_dispatch_rows(self):
        campaign = [s for s in get_suite("quick") if s.kind == "campaign"]
        assert sorted(s.dispatch for s in campaign) == ["batched", "sequential"]
        # Identical workloads: the row pair isolates the dispatch path.
        assert len({s.scenario_id.rsplit("/campaign-", 1)[0] for s in campaign}) == 1
