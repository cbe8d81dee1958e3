"""Autotuner + persistent TuningCache: round-trips, counters, budgets.

The contract under test: a warm on-disk cache means a *fresh* process (a
fresh :class:`~repro.runtime.tuning.TuningCache` instance over the same
JSON file) compiles with **zero** timed measurements, and tuned plans stay
byte-identical to heuristic plans -- tuning may only ever change speed.
"""

import json
import time

import numpy as np
import pytest

from repro.obs.registry import MetricRegistry
from repro.quant import export_quantized_model
from repro.runtime import PlanCache, compile_quantized_plan
from repro.runtime.tuning import (
    TUNING_CACHE_VERSION,
    Autotuner,
    TuningCache,
    TuningConfig,
    TuningRecord,
    active_tuning,
    coerce_tuner,
    tuning_fingerprint,
    tuning_scope,
)
from repro.runtime.variants import KernelDesc
from zoo import build

RNG = np.random.default_rng(11)


def _desc(**overrides):
    base = dict(
        op="conv2d", x_shape=(3, 8, 8), kernel_size=(3, 3), stride=(1, 1),
        padding=(1, 1), out_channels=4, weight_dtype="float64", bits=32,
    )
    base.update(overrides)
    return KernelDesc(**base)


def _runner_factory(slow=()):
    """make_runner where the named variants in ``slow`` lose deterministically."""
    def make_runner(name):
        if name in slow:
            return lambda: time.sleep(0.003)
        return lambda: None
    return make_runner


class TestTuningCachePersistence:
    def test_round_trips_to_disk(self, tmp_path):
        path = str(tmp_path / "tuning.json")
        cache = TuningCache(path)
        record = TuningRecord(variant="gemm_1x1", best_us=12.5,
                              candidates=("gemm_1x1", "im2col"))
        cache.put("sig-a", record)
        assert cache.save() is True
        reloaded = TuningCache(path)
        assert len(reloaded) == 1
        got = reloaded.get("sig-a", ["im2col", "gemm_1x1"])
        assert got == record
        assert reloaded.hits == 1

    def test_save_is_a_noop_when_clean(self, tmp_path):
        cache = TuningCache(str(tmp_path / "tuning.json"))
        assert cache.save() is False
        cache.put("sig", TuningRecord("im2col", 1.0, ("im2col", "gemm_1x1")))
        assert cache.save() is True
        assert cache.save() is False

    def test_save_creates_missing_parent_directories(self, tmp_path):
        path = str(tmp_path / "deeply" / "nested" / "dirs" / "tuning.json")
        cache = TuningCache(path)
        cache.put("sig", TuningRecord("im2col", 1.0, ("im2col", "gemm_1x1")))
        assert cache.save() is True
        assert len(TuningCache(path)) == 1

    def test_save_tempfile_lands_in_the_cache_directory(self, tmp_path, monkeypatch):
        # The atomic-rename tempfile must live next to the cache file:
        # os.replace cannot rename across filesystems, and a shared system
        # temp dir may be one.  Capture where mkstemp is pointed.
        import tempfile as tempfile_module

        import repro.runtime.tuning as tuning_module

        seen_dirs = []
        real_mkstemp = tempfile_module.mkstemp

        def spying_mkstemp(*args, **kwargs):
            seen_dirs.append(kwargs.get("dir"))
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tuning_module.tempfile, "mkstemp", spying_mkstemp)
        cache = TuningCache(str(tmp_path / "tuning.json"))
        cache.put("sig", TuningRecord("im2col", 1.0, ("im2col", "gemm_1x1")))
        assert cache.save() is True
        assert seen_dirs == [str(tmp_path)]
        # No tempfile debris left behind after a successful rename.
        assert [p.name for p in tmp_path.iterdir()] == ["tuning.json"]

    def test_failed_save_cleans_up_its_tempfile(self, tmp_path, monkeypatch):
        cache = TuningCache(str(tmp_path / "tuning.json"))
        cache.put("sig", TuningRecord("im2col", 1.0, ("im2col", "gemm_1x1")))

        def exploding_replace(src, dst):
            raise OSError("simulated cross-device rename failure")

        monkeypatch.setattr("repro.runtime.tuning.os.replace", exploding_replace)
        with pytest.raises(OSError, match="cross-device"):
            cache.save()
        assert list(tmp_path.iterdir()) == []

    def test_interleaved_saves_over_one_path_merge_not_clobber(self, tmp_path):
        # Two caches standing in for two shard worker processes sharing one
        # path: each tunes a different signature, each saves.  Last-writer-
        # wins would erase the first worker's record; merge-on-save unions.
        path = str(tmp_path / "tuning.json")
        worker_a = TuningCache(path)
        worker_b = TuningCache(path)
        worker_a.put("sig-a", TuningRecord("gemm_1x1", 10.0, ("gemm_1x1", "im2col")))
        worker_b.put("sig-b", TuningRecord("gemm_1x1", 20.0, ("gemm_1x1", "im2col")))
        assert worker_a.save() is True
        assert worker_b.save() is True
        assert set(TuningCache(path).entries()) == {"sig-a", "sig-b"}

        # Keep interleaving: every save folds in whatever landed meanwhile.
        worker_a.put("sig-c", TuningRecord("im2col", 5.0, ("im2col",)))
        assert worker_a.save() is True
        assert set(TuningCache(path).entries()) == {"sig-a", "sig-b", "sig-c"}

    def test_merge_on_save_keeps_own_record_on_conflict(self, tmp_path):
        # The saver's in-memory record is at least as fresh as anything it
        # loaded from disk, so on a signature conflict it wins the union.
        path = str(tmp_path / "tuning.json")
        first = TuningCache(path)
        first.put("sig", TuningRecord("im2col", 30.0, ("im2col", "gemm_1x1")))
        assert first.save() is True
        second = TuningCache(path)
        second.put("sig", TuningRecord("gemm_1x1", 5.0, ("im2col", "gemm_1x1")))
        assert second.save() is True
        assert TuningCache(path).entries()["sig"].variant == "gemm_1x1"

    def test_missing_corrupt_and_stale_files_start_empty(self, tmp_path):
        assert len(TuningCache(str(tmp_path / "absent.json"))) == 0

        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json", encoding="utf-8")
        assert len(TuningCache(str(corrupt))) == 0

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "version": TUNING_CACHE_VERSION + 1,
            "entries": {"sig": {"variant": "x", "best_us": 1.0, "candidates": []}},
        }), encoding="utf-8")
        assert len(TuningCache(str(stale))) == 0

    def test_malformed_records_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "version": TUNING_CACHE_VERSION,
            "entries": {
                "good": {"variant": "im2col", "best_us": 2.0,
                         "candidates": ["im2col", "gemm_1x1"]},
                "bad": {"variant": "x"},
            },
        }), encoding="utf-8")
        cache = TuningCache(str(path))
        assert len(cache) == 1
        assert cache.get("good", ["gemm_1x1", "im2col"]).variant == "im2col"


class TestTuningCacheLookups:
    def test_miss_hit_and_retune_classification(self, tmp_path):
        cache = TuningCache(str(tmp_path / "t.json"))
        candidates = ["im2col", "gemm_1x1"]
        assert cache.get("sig", candidates) is None
        cache.put("sig", TuningRecord("gemm_1x1", 3.0, tuple(sorted(candidates))))
        assert cache.get("sig", candidates).variant == "gemm_1x1"
        # Candidate-set drift (a new variant registered) discards the record.
        assert cache.get("sig", candidates + ["im2col_slices"]) is None
        assert cache.get("sig", candidates) is None  # record is gone
        assert (cache.misses, cache.hits, cache.retunes) == (2, 1, 1)

    def test_bind_metrics_mirrors_counts(self, tmp_path):
        cache = TuningCache(str(tmp_path / "t.json"))
        cache.put("sig", TuningRecord("im2col", 1.0, ("im2col",)))
        cache.get("sig", ["im2col"])          # hit before binding
        metrics = MetricRegistry()
        cache.bind_metrics(metrics)
        cache.get("other", ["im2col"])        # miss after binding
        cache.get("sig", ["im2col", "new"])   # retune after binding
        assert metrics.counter("tuning_cache_hits_total").value == 1
        assert metrics.counter("tuning_cache_misses_total").value == 1
        assert metrics.counter("tuning_cache_retunes_total").value == 1

    def test_constructor_metrics_kwarg_binds(self, tmp_path):
        metrics = MetricRegistry()
        cache = TuningCache(str(tmp_path / "t.json"), metrics=metrics)
        cache.get("sig", ["im2col"])
        assert metrics.counter("tuning_cache_misses_total").value == 1


class TestAutotuner:
    def test_single_candidate_skips_measurement(self):
        tuner = Autotuner(TuningConfig())
        variant, provenance = tuner.select(_desc(), ["im2col"], _runner_factory())
        assert (variant, provenance) == ("im2col", "heuristic")
        assert tuner.measurements == 0

    def test_measures_and_persists_the_winner(self, tmp_path):
        cache = TuningCache(str(tmp_path / "t.json"))
        tuner = Autotuner(TuningConfig(cache=cache, repeats=2, warmup=1))
        variant, provenance = tuner.select(
            _desc(), ["im2col", "gemm_1x1"], _runner_factory(slow={"gemm_1x1"}),
        )
        assert (variant, provenance) == ("im2col", "tuned")
        assert tuner.measurements == 4  # 2 candidates x 2 timed repeats
        record = cache.entries()[_desc().signature()]
        assert record.variant == "im2col"
        assert record.candidates == ("gemm_1x1", "im2col")
        # Every candidate's best time stays readable after the race.
        race = tuner.races[_desc().signature()]
        assert set(race) == {"gemm_1x1", "im2col"}
        assert race["gemm_1x1"] > race["im2col"]
        assert record.best_us == pytest.approx(race["im2col"] * 1e6)

    def test_near_tie_keeps_the_ranked_incumbent(self, monkeypatch):
        """A challenger inside DISPLACE_MARGIN must not unseat the incumbent.

        Races are a handful of repeats, so a sliver-sized win is noise; a
        selection that flips on it churns plans between identical compiles.
        Driven by a fake clock so the margin is exercised exactly.
        """
        from repro.runtime import tuning as tuning_mod
        from repro.runtime.variants import heuristic_choice

        incumbent = heuristic_choice(_desc())
        challenger = "im2col" if incumbent != "im2col" else "im2col_slices"
        costs = {incumbent: 100e-6, challenger: 97e-6}  # 3% faster: within margin

        clock = {"now": 0.0}
        monkeypatch.setattr(
            tuning_mod.time, "perf_counter", lambda: clock["now"]
        )

        def make_runner(name):
            def run():
                clock["now"] += costs[name]
            return run

        tuner = Autotuner(TuningConfig())
        variant, provenance = tuner.select(
            _desc(), [challenger, incumbent], make_runner
        )
        assert (variant, provenance) == (incumbent, "tuned")

        costs[challenger] = 80e-6  # 20% faster: a real win displaces it
        fresh = Autotuner(TuningConfig())
        variant, _ = fresh.select(_desc(), [challenger, incumbent], make_runner)
        assert variant == challenger

    def test_warm_cache_answers_with_zero_measurements(self, tmp_path):
        path = str(tmp_path / "t.json")
        first = Autotuner(TuningConfig(cache=TuningCache(path)))
        first.select(_desc(), ["im2col", "gemm_1x1"], _runner_factory(slow={"gemm_1x1"}))
        assert first.config.cache.save()

        warm = Autotuner(TuningConfig(cache=TuningCache(path)))
        variant, provenance = warm.select(
            _desc(), ["im2col", "gemm_1x1"], _runner_factory(),
        )
        assert (variant, provenance) == ("im2col", "cached")
        assert warm.measurements == 0
        assert warm.races == {}

    def test_budget_exhaustion_falls_back_to_heuristic(self):
        tuner = Autotuner(TuningConfig(budget_s=0.0))
        variant, provenance = tuner.select(
            _desc(), ["im2col", "gemm_1x1"], _runner_factory(),
        )
        assert provenance == "heuristic"
        assert variant == "im2col_slices"  # the ranked choice, unmeasured
        assert tuner.measurements == 0
        assert tuner.outcomes == {"tuned": 0, "cached": 0, "heuristic": 1}

    def test_describe_reports_outcomes_and_budget(self):
        tuner = Autotuner(TuningConfig(budget_s=0.5))
        assert "nothing selected" in tuner.describe()
        tuner.select(_desc(), ["im2col", "gemm_1x1"], _runner_factory())
        text = tuner.describe()
        assert "1 tuned" in text and "measurements" in text and "budget" in text


class TestTuningPlumbing:
    def test_fingerprints_distinguish_setups(self, tmp_path):
        assert tuning_fingerprint(None) == "heuristic"
        assert tuning_fingerprint(TuningConfig()) == "tuned:ephemeral"
        cache_a = TuningCache(str(tmp_path / "a.json"))
        cache_b = TuningCache(str(tmp_path / "b.json"))
        fp_a = tuning_fingerprint(TuningConfig(cache=cache_a))
        fp_b = tuning_fingerprint(Autotuner(TuningConfig(cache=cache_b)))
        assert fp_a.startswith("tuned:") and fp_b.startswith("tuned:")
        assert fp_a != fp_b
        assert fp_a == tuning_fingerprint(TuningConfig(cache=cache_a))

    def test_plan_cache_keys_differ_by_tuning_setup(self, tmp_path):
        model, shape = build("tiny_convnet")
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        heuristic = PlanCache.key_for(model, export, shape)
        tuned = PlanCache.key_for(
            model, export, shape,
            tuning=TuningConfig(cache=TuningCache(str(tmp_path / "t.json"))),
        )
        assert heuristic[:-1] == tuned[:-1]
        assert heuristic[-1] == "heuristic"
        assert tuned[-1].startswith("tuned:")

    def test_coerce_tuner_accepts_the_three_forms(self):
        assert coerce_tuner(None) is None
        config = TuningConfig()
        tuner = coerce_tuner(config)
        assert isinstance(tuner, Autotuner) and tuner.config is config
        assert coerce_tuner(tuner) is tuner
        with pytest.raises(TypeError, match="tuning must be"):
            coerce_tuner("fast please")

    def test_tuning_scope_nests_and_restores(self):
        assert active_tuning() == (None, None)
        outer = Autotuner(TuningConfig())
        inner = Autotuner(TuningConfig())
        with tuning_scope(outer, "export-a"):
            assert active_tuning() == (outer, "export-a")
            with tuning_scope(inner):
                assert active_tuning() == (inner, None)
            assert active_tuning() == (outer, "export-a")
        assert active_tuning() == (None, None)


class TestTunedCompilation:
    """End-to-end through compile_quantized_plan: persistence + exactness."""

    def _export(self):
        model, shape = build("tiny_convnet")
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        return model, export, shape

    def test_fresh_process_compile_performs_zero_measurements(self, tmp_path):
        model, export, shape = self._export()
        path = str(tmp_path / "tuning.json")

        cold = Autotuner(TuningConfig(cache=TuningCache(path), budget_s=5.0))
        compile_quantized_plan(model, export, shape, tuning=cold)
        assert cold.measurements > 0
        assert cold.outcomes["tuned"] > 0

        # A fresh TuningCache instance over the same file stands in for a
        # fresh process: every selection must come from disk, none re-timed.
        warm = Autotuner(TuningConfig(cache=TuningCache(path), budget_s=5.0))
        compile_quantized_plan(model, export, shape, tuning=warm)
        assert warm.measurements == 0
        assert warm.outcomes["tuned"] == 0
        assert warm.outcomes["cached"] > 0

    def test_tuned_plan_is_byte_identical_to_heuristic(self, tmp_path):
        model, export, shape = self._export()
        tuner = Autotuner(TuningConfig(
            cache=TuningCache(str(tmp_path / "tuning.json")), budget_s=5.0,
        ))
        tuned = compile_quantized_plan(model, export, shape, tuning=tuner)
        heuristic = compile_quantized_plan(model, export, shape)
        x = RNG.normal(size=(4,) + shape)
        np.testing.assert_array_equal(tuned.run(x), heuristic.run(x))

    def test_plan_records_tuning_provenance(self, tmp_path):
        model, export, shape = self._export()
        tuner = Autotuner(TuningConfig(
            cache=TuningCache(str(tmp_path / "tuning.json")), budget_s=5.0,
        ))
        plan = compile_quantized_plan(model, export, shape, tuning=tuner)
        provenances = {p for _, p in plan.kernel_variants().values()}
        assert "tuned" in provenances or "cached" in provenances
