"""Retention GC: planning, dry-run semantics, atomic apply."""

from __future__ import annotations

import pytest

from repro.store import BACKENDS, apply_gc, format_gc_plan, open_store, plan_gc

DAY = 86_400.0
NOW = 100 * DAY


def record(fingerprint: str, age_days=None) -> dict:
    rec = {"fingerprint": fingerprint, "result": {}}
    if age_days is not None:
        rec["completed_unix"] = NOW - age_days * DAY
    return rec


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return open_store(f"{request.param}:{tmp_path / 'store.bin'}")


class TestPlan:
    def test_no_policy_keeps_everything(self, backend):
        backend.append(record("aa", age_days=50))
        plan = plan_gc(backend, now=NOW)
        assert (plan.n_kept, plan.n_dropped) == (1, 0)
        assert plan.store == backend.uri

    def test_max_age_drops_old_records(self, backend):
        backend.append(record("young", age_days=1))
        backend.append(record("old", age_days=30))
        plan = plan_gc(backend, max_age_days=7, now=NOW)
        assert plan.kept == ["young"]
        assert plan.dropped == ["old"]
        assert plan.dropped_ages["old"] == pytest.approx(30.0)

    def test_missing_timestamp_is_infinitely_old(self, backend):
        backend.append(record("dated", age_days=1))
        backend.append(record("undated"))
        plan = plan_gc(backend, max_age_days=365, now=NOW)
        assert plan.dropped == ["undated"]
        assert plan.dropped_ages["undated"] is None

    def test_keep_newest_caps_count(self, backend):
        for index in range(5):
            backend.append(record(f"f{index}", age_days=index))
        plan = plan_gc(backend, keep_newest=2, now=NOW)
        assert plan.kept == ["f0", "f1"]
        assert plan.dropped == ["f2", "f3", "f4"]

    def test_policies_compose(self, backend):
        backend.append(record("a", age_days=1))
        backend.append(record("b", age_days=2))
        backend.append(record("c", age_days=30))
        plan = plan_gc(backend, max_age_days=7, keep_newest=1, now=NOW)
        assert plan.kept == ["a"]
        assert set(plan.dropped) == {"b", "c"}

    def test_equal_timestamps_tiebreak_on_fingerprint(self, backend):
        backend.append(record("bb", age_days=3))
        backend.append(record("aa", age_days=3))
        plan = plan_gc(backend, keep_newest=1, now=NOW)
        # Same recency: the lexicographically larger fingerprint wins
        # deterministically, independent of append order.
        assert plan.kept == ["bb"]

    def test_negative_policy_values_raise(self, backend):
        with pytest.raises(ValueError, match="max_age_days"):
            plan_gc(backend, max_age_days=-1)
        with pytest.raises(ValueError, match="keep_newest"):
            plan_gc(backend, keep_newest=-2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_max_age_raises(self, backend, value):
        # NaN compares false both ways: it used to keep every record.
        backend.append(record("aa", age_days=50))
        with pytest.raises(ValueError, match="max_age_days"):
            plan_gc(backend, max_age_days=value, now=NOW)

    def test_plan_never_touches_the_store(self, backend):
        backend.append(record("aa", age_days=50))
        plan_gc(backend, max_age_days=1, now=NOW)
        assert set(backend.load()) == {"aa"}

    def test_as_dict_is_json_ready(self, backend):
        backend.append(record("aa", age_days=50))
        payload = plan_gc(backend, max_age_days=1, now=NOW).as_dict()
        assert payload["n_dropped"] == 1
        assert payload["dropped_age_days"]["aa"] == pytest.approx(50.0)


class TestApply:
    def test_apply_rewrites_to_survivors(self, backend):
        backend.append(record("old", age_days=30))
        backend.append(record("new", age_days=1))
        plan = plan_gc(backend, max_age_days=7, now=NOW)
        assert apply_gc(backend, plan) == 1
        assert set(backend.load()) == {"new"}

    def test_apply_keeps_original_record_order(self, backend):
        for fp, age in (("cc", 1), ("aa", 2), ("bb", 30)):
            backend.append(record(fp, age_days=age))
        plan = plan_gc(backend, max_age_days=7, now=NOW)
        apply_gc(backend, plan)
        # Survivors stay in the store's append order, not recency order.
        assert list(backend.load()) == ["cc", "aa"]

    def test_apply_empty_plan_is_a_no_op(self, backend):
        backend.append(record("aa", age_days=1))
        plan = plan_gc(backend, max_age_days=7, now=NOW)
        assert apply_gc(backend, plan) == 0
        assert set(backend.load()) == {"aa"}


class TestFormat:
    def test_dry_run_wording(self, backend):
        backend.append(record("aa", age_days=50))
        text = format_gc_plan(plan_gc(backend, max_age_days=1, now=NOW))
        assert "would drop" in text and "aa" in text and "50.0 days old" in text

    def test_applied_wording(self, backend):
        backend.append(record("aa", age_days=50))
        plan = plan_gc(backend, max_age_days=1, now=NOW)
        text = format_gc_plan(plan, applied=True)
        assert "dropped" in text and "would drop" not in text

    def test_inventory_only_plan(self, backend):
        text = format_gc_plan(plan_gc(backend, now=NOW))
        assert "inventory only" in text
