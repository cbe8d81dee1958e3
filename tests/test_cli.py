"""Command-line interface."""

import json

import pytest

from repro import cli
from repro.runtime import blas


class TestTrainCommand:
    def test_apt_training_runs_and_reports(self, capsys):
        exit_code = cli.run_train(
            ["--scale", "smoke", "--strategy", "apt", "--epochs", "2", "--quiet"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "final acc=" in out
        assert "APT" in out

    @pytest.mark.parametrize(
        "scale, environ, threads, ending, counts",
        [
            ("smoke", {}, 1, "capped at one thread)", [4, 1, 4]),
            ("bench", {}, 1, "capped at one thread)", [4, 1, 4]),
            ("smoke", {"OPENBLAS_NUM_THREADS": "4"}, 4,
             "capped at one thread, overridden by OPENBLAS_NUM_THREADS / OMP_NUM_THREADS)", [4]),
        ],
    )
    def test_reports_the_blas_threads_the_fit_ran_at(
        self, capsys, monkeypatch, scale, environ, threads, ending, counts
    ):
        library = [4]  # a 4-thread library on 4 CPUs; each set appends
        budget = blas.ThreadBudget((lambda: library[-1], library.append), cpus=4, environ=environ)
        monkeypatch.setattr(blas, "_BUDGET", budget)
        cli.run_train(["--scale", scale, "--strategy", "apt", "--epochs", "1", "--quiet"])
        lines = [row for row in capsys.readouterr().out.splitlines() if "blas threads=" in row]
        assert len(lines) == 1
        assert lines[0].startswith(f"blas threads={threads}  (forward MACs/step ")
        assert lines[0].endswith(ending)
        assert library == counts

    def test_fixed_strategy_with_bits(self, capsys):
        exit_code = cli.run_train(
            ["--scale", "smoke", "--strategy", "fixed", "--bits", "8", "--epochs", "1", "--quiet"]
        )
        assert exit_code == 0
        assert "fixed 8-bit" in capsys.readouterr().out

    def test_fp32_strategy(self, capsys):
        exit_code = cli.run_train(["--scale", "smoke", "--strategy", "fp32", "--epochs", "1", "--quiet"])
        assert exit_code == 0
        assert "energy=1.000x fp32" in capsys.readouterr().out

    def test_table1_method_strategy(self, capsys):
        exit_code = cli.run_train(
            ["--scale", "smoke", "--strategy", "wage", "--epochs", "1", "--quiet", "--optimizer", "sgd"]
        )
        assert exit_code == 0
        assert "wage" in capsys.readouterr().out

    def test_per_epoch_log_printed_without_quiet(self, capsys):
        cli.run_train(["--scale", "smoke", "--strategy", "fp32", "--epochs", "2"])
        out = capsys.readouterr().out
        assert "epoch   0" in out and "epoch   1" in out

    def test_history_and_checkpoint_written(self, tmp_path, capsys):
        history_path = tmp_path / "history.json"
        checkpoint_path = tmp_path / "model.npz"
        exit_code = cli.run_train(
            [
                "--scale", "smoke", "--strategy", "apt", "--epochs", "2", "--quiet",
                "--history-out", str(history_path),
                "--checkpoint-out", str(checkpoint_path),
            ]
        )
        assert exit_code == 0
        assert history_path.exists()
        payload = json.loads(history_path.read_text())
        assert payload["strategy"] == "apt"
        assert checkpoint_path.exists()

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.run_train(["--scale", "galactic"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            cli.run_train(["--strategy", "alchemy"])


class TestExperimentCommand:
    def test_fig1_prints_rows(self, capsys):
        exit_code = cli.run_experiment(["fig1", "--scale", "smoke", "--epochs", "2"])
        assert exit_code == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_table1_json_output(self, tmp_path, capsys):
        json_path = tmp_path / "table1.json"
        exit_code = cli.run_experiment(
            ["table1", "--scale", "smoke", "--epochs", "1", "--json-out", str(json_path)]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        methods = {row["method"] for row in payload["rows"]}
        assert "apt" in methods

    def test_fig5_json_output(self, tmp_path, capsys):
        json_path = tmp_path / "fig5.json"
        exit_code = cli.run_experiment(
            ["fig5", "--scale", "smoke", "--epochs", "1", "--json-out", str(json_path)]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert len(payload["points"]) > 0

    def test_tune_tmin_command(self, capsys):
        exit_code = cli.run_experiment(["tune-tmin", "--scale", "smoke", "--epochs", "1"])
        assert exit_code == 0
        assert "selected" in capsys.readouterr().out

    def test_schedules_command(self, capsys):
        exit_code = cli.run_experiment(["schedules", "--scale", "smoke", "--epochs", "1"])
        assert exit_code == 0
        assert "open-loop" in capsys.readouterr().out

    def test_report_command_writes_markdown(self, tmp_path, capsys):
        markdown_path = tmp_path / "report.md"
        exit_code = cli.run_experiment(
            ["report", "--scale", "smoke", "--markdown-out", str(markdown_path)]
        )
        assert exit_code == 0
        text = markdown_path.read_text()
        assert text.startswith("# APT reproduction report")
        assert "## Table I" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.run_experiment(["fig9", "--scale", "smoke"])


class TestExperimentOrchestrationFlags:
    def test_cache_dir_populated_and_reused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["fig3", "--scale", "smoke", "--epochs", "2", "--cache-dir", str(cache)]
        assert cli.run_experiment(argv) == 0
        first_out = capsys.readouterr()
        assert list(cache.glob("*.json")), "cache directory should hold the run"
        assert "completed" in first_out.err

        assert cli.run_experiment(argv) == 0
        second_out = capsys.readouterr()
        assert "cached" in second_out.err
        assert second_out.out == first_out.out

    def test_no_cache_flag_retrains(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["fig3", "--scale", "smoke", "--epochs", "1", "--cache-dir", str(cache)]
        assert cli.run_experiment(argv) == 0
        capsys.readouterr()
        assert cli.run_experiment(argv + ["--no-cache"]) == 0
        assert "completed" in capsys.readouterr().err

    def test_workers_flag_matches_serial_output(self, capsys):
        assert cli.run_experiment(["fig2", "--scale", "smoke", "--epochs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            cli.run_experiment(["fig2", "--scale", "smoke", "--epochs", "1", "--workers", "2"])
            == 0
        )
        assert capsys.readouterr().out == serial_out


class TestServeBenchCommand:
    def _argv(self, *extra):
        return [
            "--model", "tiny_convnet", "--requests", "12", "--batch-size", "4",
            "--repeats", "1", *extra,
        ]

    def test_runs_and_prints_rows(self, capsys):
        assert cli.run_serve_bench(self._argv()) == 0
        out = capsys.readouterr().out
        assert "module-forward" in out
        assert "plan-fp32" in out
        assert "plan-8bit" in out and "plan-4bit" in out

    def test_bits_flag_selects_variants(self, capsys):
        assert cli.run_serve_bench(self._argv("--bits", "6")) == 0
        out = capsys.readouterr().out
        assert "plan-6bit" in out
        assert "plan-8bit" not in out

    def test_bad_bits_flag(self, capsys):
        assert cli.run_serve_bench(self._argv("--bits", "eight")) == 2

    def test_device_none_skips_energy(self, capsys):
        assert cli.run_serve_bench(self._argv("--device", "none")) == 0

    def test_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "serve.json"
        assert cli.run_serve_bench(self._argv("--json-out", str(out_path))) == 0
        import json

        payload = json.loads(out_path.read_text())
        assert {row["variant"] for row in payload["rows"]} >= {"module-forward", "plan-fp32"}

    def test_mismatched_export_fails_cleanly(self, tmp_path, capsys):
        import numpy as np

        from repro.models import build_model
        from repro.quant import export_quantized_model, save_export

        conv = build_model("tiny_convnet", num_classes=10, in_channels=1,
                           rng=np.random.default_rng(0))
        export = export_quantized_model(conv, {n: 8 for n, _ in conv.named_parameters()})
        path = save_export(export, tmp_path / "conv.npz")
        argv = ["--model", "mlp", "--in-channels", "8", "--export", str(path),
                "--requests", "8", "--batch-size", "4", "--repeats", "1"]
        assert cli.run_serve_bench(argv) == 2
        assert "serve-bench failed" in capsys.readouterr().err

    def test_missing_checkpoint_fails_cleanly(self, capsys):
        assert cli.run_serve_bench(self._argv("--checkpoint", "/nonexistent.npz")) == 2
        assert "cannot load model artifact" in capsys.readouterr().err

    def test_serves_saved_export(self, tmp_path, capsys):
        import numpy as np

        from repro.models import build_model
        from repro.quant import export_quantized_model, save_export

        model = build_model("tiny_convnet", num_classes=10, in_channels=1,
                            rng=np.random.default_rng(0))
        export = export_quantized_model(model, {n: 5 for n, _ in model.named_parameters()})
        path = save_export(export, tmp_path / "export.npz")
        assert cli.run_serve_bench(self._argv("--export", str(path))) == 0
        assert "plan-5bit" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        assert cli.run_serve_bench(self._argv("--model", "ghost_net")) == 2
        assert "unknown model" in capsys.readouterr().err


class TestServeBenchScalingMode:
    def _argv(self, *extra):
        return [
            "--model", "tiny_convnet", "--requests", "16", "--batch-size", "4",
            "--repeats", "1", "--workers", "1,2", *extra,
        ]

    def test_scaling_mode_prints_worker_rows(self, capsys):
        assert cli.run_serve_bench(self._argv()) == 0
        out = capsys.readouterr().out
        assert "serve-bench scaling" in out
        assert "vs 1 wkr" in out
        assert "blas thr" in out
        assert "variant=fp32" in out

    def test_scaling_bits_selects_quantised_variant(self, capsys):
        assert cli.run_serve_bench(self._argv("--scaling-bits", "8")) == 0
        assert "variant=8bit" in capsys.readouterr().out

    def test_multi_model_scaling(self, capsys):
        argv = ["--model", "tiny_convnet,mlp", "--in-channels", "8", "--requests", "16",
                "--batch-size", "4", "--repeats", "1", "--workers", "2"]
        assert cli.run_serve_bench(argv) == 0
        assert "models=tiny_convnet,mlp" in capsys.readouterr().out

    def test_multi_model_without_workers_rejected(self, capsys):
        argv = ["--model", "tiny_convnet,mlp", "--requests", "8", "--batch-size", "4"]
        assert cli.run_serve_bench(argv) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_workers_and_bits_flags(self, capsys):
        assert cli.run_serve_bench(self._argv()[:-2] + ["--workers", "two"]) == 2
        assert cli.run_serve_bench(self._argv()[:-2] + ["--workers", "0"]) == 2
        assert cli.run_serve_bench(self._argv("--scaling-bits", "wide")) == 2

    def test_out_of_range_scaling_bits_fails_cleanly(self, capsys):
        assert cli.run_serve_bench(self._argv("--scaling-bits", "0")) == 2
        assert "serve-bench failed" in capsys.readouterr().err
        assert cli.run_serve_bench(self._argv("--scaling-bits", "33")) == 2

    def test_ignored_flags_warned_in_scaling_mode(self, capsys):
        assert cli.run_serve_bench(self._argv("--bits", "4")) == 0
        assert "ignored" in capsys.readouterr().err

    def test_scaling_mode_rejects_export_and_checkpoint(self, capsys):
        assert cli.run_serve_bench(self._argv("--export", "model.npz")) == 2
        assert "not supported" in capsys.readouterr().err
        assert cli.run_serve_bench(self._argv("--checkpoint", "ck.npz")) == 2

    def test_scaling_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "scaling.json"
        assert cli.run_serve_bench(self._argv("--json-out", str(out_path))) == 0
        import json

        payload = json.loads(out_path.read_text())
        assert [row["workers"] for row in payload["rows"]] == [1, 2]


class TestAdaptBenchCommand:
    def _argv(self, *extra):
        return [
            "--model", "tiny_convnet", "--requests", "24", "--batch-size", "8",
            "--epochs", "1", "--train-samples", "64", *extra,
        ]

    def test_runs_and_reports_phases(self, capsys):
        assert cli.run_adapt_bench_cli(self._argv()) == 0
        out = capsys.readouterr().out
        assert "baseline (idle host)" in out
        assert "during fine-tune" in out
        assert "after hot-swap" in out
        assert "failed/dropped requests: 0" in out

    def test_json_out(self, tmp_path, capsys):
        out_path = tmp_path / "adapt.json"
        assert cli.run_adapt_bench_cli(self._argv("--json-out", str(out_path))) == 0
        payload = json.loads(out_path.read_text())
        assert payload["failed_requests"] == 0
        assert payload["status"] == "swapped"
        assert payload["generation_after"] == payload["generation_before"] + 1

    def test_bad_bits_rejected(self, capsys):
        assert cli.run_adapt_bench_cli(self._argv("--bits", "99")) == 2
        assert "adapt-bench failed" in capsys.readouterr().err

    def test_mlp_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.run_adapt_bench_cli(self._argv("--model", "mlp"))


class TestPlanInspectCommand:
    @pytest.fixture()
    def export_path(self, tmp_path):
        import numpy as np

        from repro.models import build_model
        from repro.quant import export_quantized_model, save_export

        model = build_model(
            "tiny_convnet", num_classes=10, in_channels=1, rng=np.random.default_rng(0)
        )
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        return str(save_export(export, tmp_path / "tiny"))

    def _argv(self, export_path, *extra):
        return [export_path, "--model", "tiny_convnet", "--in-channels", "1",
                "--image-size", "12", *extra]

    def test_prints_pass_by_pass_summary(self, export_path, capsys):
        assert cli.run_plan_inspect(self._argv(export_path)) == 0
        out = capsys.readouterr().out
        for name in ("fold_constants", "fuse_affine", "select_kernels"):
            assert f"pass {name}:" in out
        assert "trace:" in out and "arena" in out and "steps:" in out

    def test_steps_flag_lists_lowered_steps(self, export_path, capsys):
        assert cli.run_plan_inspect(self._argv(export_path, "--steps")) == 0
        out = capsys.readouterr().out
        assert "conv2d[int" in out and "linear[int" in out

    def test_no_optimize_shows_raw_trace(self, export_path, capsys):
        assert cli.run_plan_inspect(self._argv(export_path, "--no-optimize")) == 0
        assert "passes=[]" in capsys.readouterr().out

    def test_explicit_pass_subset(self, export_path, capsys):
        argv = self._argv(export_path, "--passes", "fold_constants,select_kernels")
        assert cli.run_plan_inspect(argv) == 0
        out = capsys.readouterr().out
        assert "pass fold_constants:" in out and "pass fuse_affine:" not in out

    def test_pass_names_tolerate_whitespace(self, export_path, capsys):
        argv = self._argv(export_path, "--passes", "fold_constants, select_kernels")
        assert cli.run_plan_inspect(argv) == 0
        assert "pass select_kernels:" in capsys.readouterr().out

    def test_unknown_pass_rejected(self, export_path, capsys):
        argv = self._argv(export_path, "--passes", "loop_unrolling")
        assert cli.run_plan_inspect(argv) == 2
        assert "plan-inspect failed" in capsys.readouterr().err

    def test_missing_export_rejected(self, tmp_path, capsys):
        argv = self._argv(str(tmp_path / "absent.npz"))
        assert cli.run_plan_inspect(argv) == 2
        assert "cannot read export" in capsys.readouterr().err

    def test_architecture_mismatch_fails_cleanly(self, export_path, capsys):
        argv = [export_path, "--model", "mlp", "--in-channels", "16"]
        assert cli.run_plan_inspect(argv) == 2
        assert "plan-inspect failed" in capsys.readouterr().err


class TestMetricsCommand:
    def _argv(self, *extra):
        return [
            "--model", "tiny_convnet", "--requests", "16", "--batch-size", "8",
            "--workers", "1", "--bits", "8,4", *extra,
        ]

    def test_text_dump_renders_families(self, capsys):
        assert cli.run_metrics(self._argv()) == 0
        out = capsys.readouterr().out
        assert "metrics: tiny_convnet" in out
        assert "# TYPE serve_queue_wait_seconds histogram" in out
        assert "plan_cache_misses_total" in out

    def test_json_dump_has_nonzero_serving_series(self, capsys):
        assert cli.run_metrics(self._argv("--json", "--max-latency-ms", "50")) == 0
        payload = json.loads(capsys.readouterr().out)

        def total(name):
            return sum(
                series.get("count", series.get("value", 0))
                for series in payload[name]["series"]
            )

        assert total("serve_queue_wait_seconds") == 16
        assert total("serve_kernel_seconds") > 0
        # Two bitwidths compile once each; the replica resolves both from cache.
        assert total("plan_cache_misses_total") == 2
        assert total("plan_cache_hits_total") == 2
        assert total("slo_evaluations_total") >= 1
        # Snapshotted after stop: the pool's release restored the count.
        assert payload["blas_threads"]["kind"] == "gauge"
        assert total("blas_threads") == (blas.current_threads() or 0)

    def test_json_out_writes_snapshot(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert cli.run_metrics(self._argv("--json-out", str(out_path))) == 0
        payload = json.loads(out_path.read_text())
        assert payload["serve_requests_total"]["kind"] == "counter"

    def test_bad_bits_rejected(self, capsys):
        assert cli.run_metrics(self._argv("--bits", "8,oops")) == 2
        assert "--bits" in capsys.readouterr().err
        assert cli.run_metrics(self._argv("--bits", "99")) == 2
        assert "metrics run failed" in capsys.readouterr().err


class TestMainDispatch:
    def test_train_dispatch(self, capsys):
        assert cli.main(["train", "--scale", "smoke", "--strategy", "fp32", "--epochs", "1", "--quiet"]) == 0

    def test_experiment_dispatch(self, capsys):
        assert cli.main(["experiment", "fig3", "--scale", "smoke", "--epochs", "1"]) == 0

    def test_serve_bench_dispatch(self, capsys):
        argv = ["serve-bench", "--model", "mlp", "--in-channels", "8",
                "--requests", "8", "--batch-size", "4", "--repeats", "1", "--bits", "8"]
        assert cli.main(argv) == 0
        assert "plan-8bit" in capsys.readouterr().out

    def test_adapt_bench_dispatch(self, capsys):
        argv = ["adapt-bench", "--requests", "16", "--batch-size", "8",
                "--epochs", "1", "--train-samples", "48"]
        assert cli.main(argv) == 0
        assert "hot-swap latency" in capsys.readouterr().out

    def test_help(self, capsys):
        assert cli.main([]) == 0
        assert "repro-train" in capsys.readouterr().out

    def test_plan_inspect_dispatch(self, tmp_path, capsys):
        import numpy as np

        from repro.models import build_model
        from repro.quant import export_quantized_model, save_export

        model = build_model(
            "tiny_convnet", num_classes=10, in_channels=1, rng=np.random.default_rng(0)
        )
        export = export_quantized_model(model, {n: 8 for n, _ in model.named_parameters()})
        path = str(save_export(export, tmp_path / "tiny"))
        argv = ["plan-inspect", path, "--model", "tiny_convnet",
                "--in-channels", "1", "--image-size", "12"]
        assert cli.main(argv) == 0
        assert "pass fold_constants:" in capsys.readouterr().out

    def test_metrics_dispatch(self, capsys):
        argv = ["metrics", "--requests", "8", "--batch-size", "4",
                "--workers", "1", "--bits", "8"]
        assert cli.main(argv) == 0
        assert "# TYPE serve_requests_total counter" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert cli.main(["deploy"]) == 2


class TestPlanInspectTuning:
    @pytest.fixture()
    def export_path(self, tmp_path):
        import numpy as np

        from repro.models import build_model
        from repro.quant import export_quantized_model, save_export

        model = build_model(
            "tiny_convnet", num_classes=10, in_channels=1, rng=np.random.default_rng(0)
        )
        export = export_quantized_model(
            model, {n: 8 for n, _ in model.named_parameters()}
        )
        return str(save_export(export, tmp_path / "tiny"))

    def _argv(self, export_path, *extra):
        return [export_path, "--model", "tiny_convnet", "--in-channels", "1",
                "--image-size", "12", *extra]

    def test_default_run_lists_heuristic_variants(self, export_path, capsys):
        assert cli.run_plan_inspect(self._argv(export_path)) == 0
        out = capsys.readouterr().out
        assert "kernel variants:" in out
        assert "(heuristic)" in out
        assert "tuning:" not in out

    def test_tune_flag_reports_tuner_summary(self, export_path, capsys):
        assert cli.run_plan_inspect(self._argv(export_path, "--tune", "2.0")) == 0
        out = capsys.readouterr().out
        assert "(tuned)" in out or "(cached)" in out or "(heuristic)" in out
        assert "tuning:" in out and "measurements" in out

    def test_tuning_cache_persists_across_invocations(self, export_path, tmp_path, capsys):
        cache = str(tmp_path / "tuning.json")
        argv = self._argv(export_path, "--tune", "2.0", "--tuning-cache", cache)
        assert cli.run_plan_inspect(argv) == 0
        capsys.readouterr()
        assert cli.run_plan_inspect(argv) == 0
        out = capsys.readouterr().out
        assert "0 measurements" in out  # second run answered from disk


class TestAutotuneCommand:
    def test_cold_then_warm_run(self, tmp_path, capsys):
        cache = str(tmp_path / "tuning.json")
        argv = ["--model", "tiny_convnet", "--cache", cache,
                "--budget", "2.0", "--bits", "8", "--verify"]
        assert cli.run_autotune(argv) == 0
        cold = capsys.readouterr().out
        assert "[fp32]" in cold and "[int8]" in cold
        assert "verify: tuned output bitwise-identical" in cold
        assert "measurements: 0" not in cold

        assert cli.run_autotune(argv) == 0
        warm = capsys.readouterr().out
        assert "measurements: 0" in warm  # every selection came from disk
        assert "retunes=0" in warm

    def test_bad_bits_rejected(self, tmp_path, capsys):
        argv = ["--cache", str(tmp_path / "t.json"), "--bits", "eight"]
        assert cli.run_autotune(argv) == 2
        assert "--bits must be" in capsys.readouterr().err

    def test_unsupported_bitwidth_fails_cleanly(self, tmp_path, capsys):
        argv = ["--cache", str(tmp_path / "t.json"), "--bits", "1"]
        assert cli.run_autotune(argv) == 2
        assert "autotune failed" in capsys.readouterr().err

    def test_main_dispatch(self, tmp_path, capsys):
        argv = ["autotune", "--model", "tiny_convnet",
                "--cache", str(tmp_path / "t.json"), "--budget", "1.0"]
        assert cli.main(argv) == 0
        assert "autotune: tiny_convnet" in capsys.readouterr().out


class TestBudgetValidation:
    """Zero / negative measurement budgets are argparse errors, not hangs."""

    @pytest.mark.parametrize("bad", ["0", "-1.5", "nan"])
    def test_autotune_budget_rejected(self, bad, tmp_path, capsys):
        argv = ["--cache", str(tmp_path / "t.json"), "--budget", bad]
        with pytest.raises(SystemExit) as excinfo:
            cli.run_autotune(argv)
        assert excinfo.value.code == 2
        assert "must be a positive number of seconds" in capsys.readouterr().err

    def test_plan_inspect_tune_rejected(self, tmp_path, capsys):
        argv = [str(tmp_path / "missing.npz"), "--tune", "-2"]
        with pytest.raises(SystemExit) as excinfo:
            cli.run_plan_inspect(argv)
        assert excinfo.value.code == 2
        assert "must be a positive number of seconds" in capsys.readouterr().err


class TestCodegenCommand:
    @pytest.fixture()
    def codegen_tmp(self, tmp_path):
        from repro.runtime import codegen

        codegen.reset()
        yield str(tmp_path / "codegen")
        codegen.reset()

    def test_status_reports_backend(self, codegen_tmp, capsys):
        assert cli.run_codegen(["--status", "--cache-dir", codegen_tmp]) == 0
        out = capsys.readouterr().out
        assert "codegen: enabled=" in out
        assert "compiler:" in out and "cache_dir:" in out

    def test_status_json_is_machine_readable(self, codegen_tmp, capsys):
        assert cli.run_codegen(["--json", "--cache-dir", codegen_tmp]) == 0
        status = json.loads(capsys.readouterr().out)
        assert {"enabled", "compiler", "blas", "cache_dir", "builds"} <= set(status)

    def test_verify_cold_then_warm(self, codegen_tmp, capsys):
        from repro.runtime import codegen

        if codegen.compiler_command() is None:
            pytest.skip("no C compiler on this host")
        assert cli.run_codegen(["--verify", "--cache-dir", codegen_tmp]) == 0
        cold = capsys.readouterr().out
        assert "conv2d: ok" in cold
        assert "linear" not in cold and "elementwise" not in cold
        assert "1 compiled" in cold

        codegen.reset()  # drop in-process kernel memos; disk artifacts stay
        assert cli.run_codegen(["--verify", "--cache-dir", codegen_tmp]) == 0
        warm = capsys.readouterr().out
        assert "0 compiled" in warm and "1 from warm cache" in warm

    def test_clear_cache_removes_artifacts(self, codegen_tmp, capsys):
        from repro.runtime import codegen

        if codegen.compiler_command() is None:
            pytest.skip("no C compiler on this host")
        assert cli.run_codegen(["--verify", "--cache-dir", codegen_tmp]) == 0
        capsys.readouterr()
        assert cli.run_codegen(["--clear-cache", "--cache-dir", codegen_tmp]) == 0
        assert "removed 2 cached artifacts" in capsys.readouterr().out

    def test_main_dispatch(self, codegen_tmp, capsys):
        assert cli.main(["codegen", "--cache-dir", codegen_tmp]) == 0
        assert "codegen: enabled=" in capsys.readouterr().out
