import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rmlbo
from rmlbo import bench
from rmlbo.cli import main
from rmlbo.rml import draw_randomizations
from rmlbo.seeding import STREAM_RANDOMIZE, labeled_stream

BOWL = {
    "problem": {"name": "quadratic-bowl", "D": 12, "d": 2, "seed": 3},
    "n_rml": 3,
    "budget_N": 48,
    "K": 2,
    "d_e": 3,
    "n0": 3,
    "seed": 7,
}

LINEAR = {
    "problem": {"name": "linear-gaussian", "seed": 0},
    "n_rml": 4,
    "budget_N": 40,
    "K": 2,
    "d_e": 4,
    "n0": 3,
    "seed": 1,
}

# problem fields whose matrix is singular (semidefinite)
SINGULAR_PRIOR = {"kind": "gaussian", "mean": [0] * 12, "cov": np.ones((12, 12)).tolist()}
SINGULAR_LIKELIHOOD = {"data": [0, 0, 0], "obs_cov": np.diag([1, 1, 0]).tolist()}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_trace_is_byte_identical_across_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BOWL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--seed", "7", "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()

    def test_override_lands_in_report_snapshot(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOWL)
        out = tmp_path / "o"
        code = main(["run", "--config", cfg, "--set", "budget_N=24", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["budget_N"] == 24
        assert report["n_evals"] == 24
        assert "mean return" in capsys.readouterr().out

    def test_missing_n_rml_exits_2_naming_field(self, tmp_path, capsys):
        cfg = dict(BOWL)
        cfg.pop("n_rml")
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "n_rml" in capsys.readouterr().err

    def test_missing_problem_exits_2(self, tmp_path, capsys):
        cfg = dict(BOWL)
        cfg.pop("problem")
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "problem" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["beta=NaN", "beta=Infinity", "prox_eta=NaN"])
    def test_non_finite_number_exits_2_naming_field(self, tmp_path, capsys, override):
        path = write_config(tmp_path, BOWL)
        code = main(["run", "--config", path, "--set", override, "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{override.split('=')[0]}:" in capsys.readouterr().err

    def test_invalid_budget_type_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BOWL, "budget_N": "lots"})
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "budget_N" in capsys.readouterr().err

    def test_unknown_top_level_field_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BOWL, "buget_N": 100})
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "buget_N" in capsys.readouterr().err

    def test_acq_restarts_is_not_a_run_option(self, tmp_path, capsys):
        # the acquisition's start count is hdbo.ACQ_RESTARTS, like its probe
        # and sweep counts
        path = write_config(tmp_path, {**BOWL, "acq_restarts": 10})
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "unknown field 'acq_restarts'" in capsys.readouterr().err

    def test_simulator_failure_exits_3_with_partial_trace(self, tmp_path, capsys,
                                                          monkeypatch, fail_after):
        real = bench.problem_from_config
        monkeypatch.setattr(bench, "problem_from_config",
                            lambda cfg: fail_after(real(cfg), 10))
        path = write_config(tmp_path, BOWL)
        out = tmp_path / "x"
        assert main(["run", "--config", path, "--out", str(out)]) == 3
        lines = (out / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 10
        assert "partial trace" in capsys.readouterr().err
        assert not list(out.glob("*.tmp.*"))
        report = json.loads((out / "report.json").read_text())
        assert report["aborted"] is True
        assert "simulator failed" in report["error"]
        assert report["method"] == "hdbo-rml"
        assert report["seed"] == BOWL["seed"]
        assert report["n_evals"] == 10
        # the data draw that built the problem, as in a run that completes
        assert report["analysis_evals"] == 1
        assert set(report["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS"}

    def test_aborted_gaussian_run_reports_the_evaluations_the_simulator_counted(
            self, tmp_path, monkeypatch, fail_after):
        # call 7 is slot 4's lifted point and call 8, its refined point,
        # fails: the partial trace holds 3 records (6 evaluations), and the
        # report counts the 7 the simulator answered
        real = bench.problem_from_config
        monkeypatch.setattr(bench, "problem_from_config",
                            lambda cfg: fail_after(real(cfg), 7))
        cfg = {**BOWL, "problem": {**BOWL["problem"], "prior": "gaussian"}}
        out = tmp_path / "g"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        assert len((out / "trace.jsonl").read_text().strip().splitlines()) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["aborted"] is True
        assert report["n_evals"] == 7

    def test_reports_record_the_blas_thread_setting(self, tmp_path):
        # a rerun is byte-identical only at the same BLAS thread count, so
        # run and compare record the variables that set it, null when unset
        src = str(pathlib.Path(rmlbo.__file__).parents[1])
        code = "import sys; from rmlbo.cli import main; sys.exit(main(sys.argv[1:]))"
        path = write_config(tmp_path, {**BOWL, "methods": ["random-design"], "trials": 1})
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            want = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None,
                    "MKL_NUM_THREADS": None}
            for command in ("run", "compare"):
                out = tmp_path / f"{command}{threads}"
                subprocess.run([sys.executable, "-c", code, command, "--config", path,
                                "--out", str(out)], env=env, capture_output=True, check=True)
                report = json.loads((out / "report.json").read_text())
                assert report["blas_threads"] == want

    @pytest.mark.parametrize("method,make", [
        ("random-design", bench.random_design_method),
        ("local-search", bench.local_search_method)])
    def test_baseline_run_matches_its_bench_method(self, tmp_path, method, make):
        path = write_config(tmp_path, {**BOWL, "method": method})
        out = tmp_path / "r"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        problem = bench.problem_from_config(BOWL["problem"])
        instances = draw_randomizations(problem, BOWL["n_rml"],
                                        labeled_stream(BOWL["seed"], STREAM_RANDOMIZE))
        expected = make(BOWL["budget_N"]).run(problem, instances, BOWL["seed"])
        assert report["objective_values"] == expected.values.tolist()

    def test_budget_invariant_holds_for_every_method(self, tmp_path):
        for i, method in enumerate(("hdbo-rml", "random-design", "local-search")):
            path = write_config(tmp_path, {**BOWL, "method": method}, f"c{i}.json")
            out = tmp_path / f"m{i}"
            assert main(["run", "--config", path, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["n_evals"] <= BOWL["budget_N"]

    def test_gaussian_budget_identity(self, tmp_path):
        cfg = {**BOWL, "problem": {**BOWL["problem"], "prior": "gaussian"}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "g"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_evals"] == 2 * 2 * (48 // 4)

    def test_oracle_method_on_linear_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, {**LINEAR, "method": "oracle-rml"})
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_evals"] == 0
        # the oracle simulates nothing, so its trace holds no record, and a
        # compare that adopts the trace has nothing to select from
        trace = out / "trace.jsonl"
        assert trace.exists() and trace.read_bytes() == b""
        entry = json.dumps([{"name": "ext", "trace": str(trace)}])
        assert main(["compare", "--config", path, "--set", "trials=1",
                     "--set", f"methods={entry}", "--out", str(tmp_path / "c")]) == 3
        assert "cannot select maximizers from an empty trace" in capsys.readouterr().err

    def test_failed_oracle_solve_exits_3_in_every_command(self, tmp_path, capsys,
                                                          monkeypatch):
        # a normal system that fails to factor is a runtime failure, not a
        # config error: the config passed every check
        def failing(*args):
            raise ValueError("normal matrix factorization failed: dpotrf failed with info=1")

        monkeypatch.setattr("rmlbo.rml._solve_normal", failing)
        path = write_config(tmp_path, {**LINEAR, "prior_samples": 50})
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--set", 'method="oracle-rml"',
                     "--out", str(out)]) == 3
        assert "runtime failure: normal matrix" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert main(["export-landscape", "--config", path, "--out", str(tmp_path / "e")]) == 3
        assert "runtime failure: normal matrix" in capsys.readouterr().err
        # every projection is computed before the output directory is created
        assert not (tmp_path / "e").exists()

    def test_decreasing_checkpoints_exit_2_before_writing(self, tmp_path, capsys):
        # run never reads checkpoints, but every command checks the whole config
        path = write_config(tmp_path, {**BOWL, "checkpoints": [5, 3]})
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert "checkpoints: expected a strictly increasing list" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_single_cell_csv(self, tmp_path):
        cfg = {**BOWL, "methods": ["random-design"], "trials": 1, "checkpoints": [48]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "c"
        assert main(["compare", "--config", path, "--out", str(out)]) == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "method,budget,trial,neg_mean_return"
        assert len(lines) == 2

    def test_deterministic_csv(self, tmp_path):
        cfg = {**BOWL, "methods": ["random-design", "local-search"], "trials": 2,
               "checkpoints": [24, 48]}
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["compare", "--config", path, "--out", str(out1)]) == 0
        assert main(["compare", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()

    def test_summary_table_printed(self, tmp_path, capsys):
        cfg = {**BOWL, "methods": ["random-design"], "trials": 2, "checkpoints": [48]}
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "s")]) == 0
        text = capsys.readouterr().out
        assert "random-design" in text
        summary = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,final_neg_mean_return_mean,final_neg_mean_return_sd"
        assert len(summary) == 2

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BOWL, "methods": ["simulated-annealing"]})
        assert main(["compare", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "simulated-annealing" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [
        ["random-design", "random-design"],
        ["random-design", {"name": "random-design", "trace": "t.jsonl"}]],
        ids=["built-in-twice", "trace-named-like-a-built-in"])
    def test_repeated_method_name_exits_2_before_writing(self, tmp_path, capsys, methods):
        # curves.csv and summary.csv key their rows by name, so a name may
        # appear once; the trace path is relative to tmp_path, where it exists
        (tmp_path / "t.jsonl").write_text("")
        methods = [{**entry, "trace": str(tmp_path / entry["trace"])}
                   if isinstance(entry, dict) else entry for entry in methods]
        path = write_config(tmp_path, {**BOWL, "methods": methods, "trials": 1})
        out = tmp_path / "c"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        assert ("methods: method name 'random-design' appears more than once"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_sampler_config_error_exits_2_before_any_method_runs(self, tmp_path, capsys,
                                                                  monkeypatch):
        # n0=30 leaves no BO slot of the 24 per embedding; the baselines
        # listed first must not run before the sampler's check fails
        ran = []
        real = bench.random_design
        monkeypatch.setattr(bench, "random_design",
                            lambda *args: ran.append(args) or real(*args))
        cfg = {**BOWL, "n0": 30, "methods": ["random-design", "local-search", "hdbo-rml"]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "c"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        assert "n0=30" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    def test_external_trace_entry_joins_comparison(self, tmp_path):
        # record a run, then compare against its trace as a third-party method
        run_cfg = write_config(tmp_path, BOWL, "run.json")
        out = tmp_path / "donor"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        trace = str(out / "trace.jsonl")
        cmp_cfg = write_config(
            tmp_path,
            {**BOWL, "methods": ["random-design", {"name": "external", "trace": trace}],
             "trials": 1, "checkpoints": [24, 48]},
            "cmp.json")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--config", cmp_cfg, "--out", str(cmp_out)]) == 0
        lines = (cmp_out / "curves.csv").read_text().strip().splitlines()
        assert any(line.startswith("external,") for line in lines)

    def test_external_trace_with_nan_fx_fails_without_inf_row(self, tmp_path, capsys):
        run_cfg = write_config(tmp_path, BOWL, "run.json")
        out = tmp_path / "donor"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        rows[0]["fx"][0] = float("nan")
        trace = tmp_path / "nan.jsonl"
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
        methods = [{"name": "ext", "trace": str(trace)}]
        cmp_cfg = write_config(tmp_path, {**BOWL, "methods": methods, "trials": 1}, "cmp.json")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--config", cmp_cfg, "--out", str(cmp_out)]) != 0
        assert "nan.jsonl:1: fx is not finite" in capsys.readouterr().err
        curves = cmp_out / "curves.csv"
        assert not curves.exists() or "inf" not in curves.read_text()

    @pytest.mark.parametrize("line, message", [
        ("{not json", "bad.jsonl:2: not JSON"),
        ("{}", "bad.jsonl:2: missing key 'emb_index'")], ids=["not-json", "empty-object"])
    def test_external_trace_with_a_malformed_line_exits_3_naming_it(self, tmp_path, capsys,
                                                                    line, message):
        run_cfg = write_config(tmp_path, BOWL, "run.json")
        out = tmp_path / "donor"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        rows = (out / "trace.jsonl").read_text().splitlines()
        rows[1] = line
        trace = tmp_path / "bad.jsonl"
        trace.write_text("".join(row + "\n" for row in rows))
        methods = [{"name": "ext", "trace": str(trace)}]
        cmp_cfg = write_config(tmp_path, {**BOWL, "methods": methods, "trials": 1}, "cmp.json")
        assert main(["compare", "--config", cmp_cfg, "--out", str(tmp_path / "cmp")]) == 3
        assert f"runtime failure: {trace.parent}/{message}" in capsys.readouterr().err

    def test_external_trace_point_of_the_wrong_dimension_exits_3(self, tmp_path, capsys):
        # unchecked, a one-coordinate x would broadcast against the 12-D
        # box bounds and score as feasible
        run_cfg = write_config(tmp_path, BOWL, "run.json")
        out = tmp_path / "donor"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        rows[0]["x"] = [0.0]
        trace = tmp_path / "short.jsonl"
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
        methods = [{"name": "ext", "trace": str(trace)}]
        cmp_cfg = write_config(tmp_path, {**BOWL, "methods": methods, "trials": 1}, "cmp.json")
        assert main(["compare", "--config", cmp_cfg, "--out", str(tmp_path / "cmp")]) == 3
        assert "short.jsonl:1: x has shape (1,), expected (12,)" in capsys.readouterr().err

    def test_runtime_failure_creates_no_directory(self, tmp_path, capsys):
        # compare writes nothing partial, so the directory is created only
        # once every method has run; here random design runs, then the
        # external trace's third line fails to read
        run_cfg = write_config(tmp_path, BOWL, "run.json")
        out = tmp_path / "donor"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        rows[2]["x"] = rows[2]["x"][:-1]
        trace = tmp_path / "short.jsonl"
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
        methods = ["random-design", {"name": "ext", "trace": str(trace)}]
        cmp_cfg = write_config(tmp_path, {**BOWL, "methods": methods, "trials": 1}, "cmp.json")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--config", cmp_cfg, "--out", str(cmp_out)]) == 3
        assert "short.jsonl:3: x has shape (11,), expected (12,)" in capsys.readouterr().err
        assert not cmp_out.exists()

    @pytest.mark.parametrize("prior, field", [("uniform", "fx"), ("gaussian", "f_refined")])
    def test_external_trace_with_a_short_forward_value_exits_3_naming_it(
            self, tmp_path, capsys, prior, field):
        # unchecked, a one-value forward map would broadcast against the
        # problem's 3 data values and score as if the simulator returned it
        cfg = {**BOWL, "problem": {**BOWL["problem"], "prior": prior}}
        out = tmp_path / "donor"
        assert main(["run", "--config", write_config(tmp_path, cfg, "run.json"),
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        rows[1][field] = [0.0]
        trace = tmp_path / "short.jsonl"
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
        methods = [{"name": "ext", "trace": str(trace)}]
        cmp_cfg = write_config(tmp_path, {**cfg, "methods": methods, "trials": 1}, "cmp.json")
        assert main(["compare", "--config", cmp_cfg, "--out", str(tmp_path / "cmp")]) == 3
        assert f"short.jsonl:2: {field} has shape (1,), expected (3,)" in \
            capsys.readouterr().err

    def test_bool_checkpoint_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BOWL, "methods": ["random-design"],
                                       "checkpoints": [True, 48]})
        assert main(["compare", "--config", path, "--out", str(tmp_path / "c")]) == 2
        assert "checkpoints:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"name": "x", "trace": "no.jsonl"}, "trace file not found"),
        ({"name": "x", "trace": "."}, "trace file not found"),
        ({"name": "x", "trace": 0}, "must be strings"),
        ({"name": 5, "trace": "t.jsonl"}, "must be strings"),
        ({"name": "x", "trace": "t.jsonl", "foo": 1},
         "unknown field 'foo' in a trace entry"),
        *[({"name": name, "trace": "t.jsonl"}, "no comma, double quote or line break")
          for name in ("a,b", 'a"b', "a\rb", "a\nb", "")]],
        ids=["missing", "directory", "trace-not-a-string", "name-not-a-string",
             "unknown-key", "name-comma", "name-quote", "name-cr", "name-lf", "name-empty"])
    def test_missing_trace_file_exits_2(self, tmp_path, capsys, entry, message):
        # paths are relative to tmp_path, where t.jsonl exists and . is a directory
        (tmp_path / "t.jsonl").write_text("")
        entry = {key: str(tmp_path / value) if key == "trace" and isinstance(value, str)
                 else value for key, value in entry.items()}
        path = write_config(tmp_path, {**BOWL, "methods": [entry]})
        out = tmp_path / "o"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "methods:" in err and message in err
        assert not out.exists()


class TestOutputKeyOrder:
    """trace.jsonl and report.json take their key order from the field order
    of the dataclasses they serialize; a reordered field would change the
    interchange format, so the order is pinned here."""

    @pytest.mark.parametrize("prior", ["uniform", "gaussian"])
    def test_run_trace_and_report_keys(self, tmp_path, prior):
        cfg = {**BOWL, "problem": {**BOWL["problem"], "prior": prior}}
        out = tmp_path / "r"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        for line in (out / "trace.jsonl").read_text().splitlines():
            assert list(json.loads(line)) == [
                "emb_index", "y", "x", "fx", "refined_z", "f_refined", "iteration",
                "objective_index"]
        report = json.loads((out / "report.json").read_text())
        assert list(report) == [
            "config", "method", "seed", "mean_return", "n_evals", "analysis_evals",
            "objective_values", "maximizers", "instances", "embeddings", "wall_clock_s",
            "blas_threads"]
        assert list(report["instances"][0]) == ["index", "data_n", "prior_mean_n"]
        assert list(report["embeddings"][0]) == ["index", "matrix", "y_lower", "y_upper"]

    def test_compare_report_keys(self, tmp_path):
        cfg = {**BOWL, "methods": ["random-design"], "trials": 1}
        out = tmp_path / "c"
        assert main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["checkpoints", "trials", "seed", "wall_clock_s", "config",
                                "methods", "blas_threads"]
        assert list(report["methods"][0]) == [
            "name", "budgets", "trial_curves", "avg_curve", "final_neg_mean_returns",
            "maximizers", "objective_values", "n_evals", "wall_clock_s", "projections"]


class TestLocalSearchBudget:
    # 20 evaluations cannot give each of 30 objectives one
    @pytest.mark.parametrize("command, override", [
        ("run", 'method="local-search"'), ("compare", 'methods=["local-search"]')])
    def test_budget_below_objective_count_exits_2(self, tmp_path, capsys, command,
                                                  override):
        path = write_config(tmp_path, {**BOWL, "n_rml": 30, "budget_N": 20, "n0": 2})
        out = tmp_path / "o"
        assert main([command, "--config", path, "--set", override, "--out", str(out)]) == 2
        assert "budget_N=20 cannot cover 30 objectives" in capsys.readouterr().err
        assert not out.exists()

    # each error is found after resolve_config, against the problem or the
    # methods; the output directory is created only once they pass
    @pytest.mark.parametrize("command, override, message", [
        ("compare", "problem.D=0", "problem.D: expected a positive integer, got 0"),
        ("run", "n0=30", "n0=30"),
        ("compare", "n0=30", "n0=30"),
        ("compare", 'methods=["oracle-rml"]', "'oracle-rml' is not a budgeted method")],
        ids=["compare-D-0", "run-n0", "compare-n0", "compare-oracle"])
    def test_error_found_after_resolving_creates_no_directory(self, tmp_path, capsys,
                                                              command, override, message):
        path = write_config(tmp_path, BOWL)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--set", override, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestExportLandscape:
    @pytest.mark.parametrize("override, message", [
        ({"n0": 30}, "n0=30"), ({"method": "oracle-rml"}, "oracle RML requires")],
        ids=["n0", "oracle-on-bowl"])
    def test_method_config_error_exits_2_before_writing(self, tmp_path, capsys, override,
                                                        message):
        path = write_config(tmp_path, {**BOWL, **override, "prior_samples": 50})
        out = tmp_path / "e"
        assert main(["export-landscape", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    def test_simulator_failure_mid_run_exits_3_before_writing(self, tmp_path, capsys,
                                                              monkeypatch, fail_after):
        # the 50 prior samples take 50 analysis calls; the method's run
        # fails on its 11th call, after the oracle's projection is computed
        real = bench.problem_from_config
        monkeypatch.setattr(bench, "problem_from_config",
                            lambda cfg: fail_after(real(cfg), 60))
        path = write_config(tmp_path, {**LINEAR, "prior_samples": 50})
        out = tmp_path / "e"
        assert main(["export-landscape", "--config", path, "--out", str(out)]) == 3
        assert "runtime failure: simulator failed mid-run" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_problem_produces_all_three_files(self, tmp_path):
        cfg = {**LINEAR, "prior_samples": 200, "budget_N": 40}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "l"
        assert main(["export-landscape", "--config", path, "--out", str(out)]) == 0
        assert (out / "landscape.csv").exists()
        assert (out / "oracle_samples.csv").exists()
        assert (out / "method_samples.csv").exists()
        rows = (out / "landscape.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 200
        assert rows[0].startswith("sample_id,coord_1")

    def test_nonlinear_problem_skips_oracle_with_warning(self, tmp_path, capsys):
        cfg = {**BOWL, "prior_samples": 100}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "n"
        assert main(["export-landscape", "--config", path, "--out", str(out)]) == 0
        assert not (out / "oracle_samples.csv").exists()
        assert "oracle samples unavailable" in capsys.readouterr().err

    def test_projection_width_matches_active_dimension(self, tmp_path):
        cfg = {**BOWL, "prior_samples": 50}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "w"
        assert main(["export-landscape", "--config", path, "--out", str(out)]) == 0
        header = (out / "landscape.csv").read_text().splitlines()[0]
        assert header == "sample_id,coord_1,coord_2,log_post"


class TestConfigPlumbing:
    def test_config_file_missing_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_dotted_override_reaches_problem_block(self, tmp_path):
        path = write_config(tmp_path, BOWL)
        out = tmp_path / "d"
        assert main(["run", "--config", path, "--set", "problem.D=10",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["problem"]["D"] == 10
        assert all(len(row) == 10 for row in report["maximizers"])

    @pytest.mark.parametrize("field, value", [
        ("prior", [1, 2]), ("prior", 5), ("prior", {"kind": "box"}), ("likelihood", "x"),
        ("D", 12.7), ("D", "12"), ("D", True), ("D", 0), ("d", -1), ("d", 2.0),
        ("m", 4.5), ("m", 0), ("seed", True), ("seed", 3.9), ("seed", -1),
        ("fail_after", -1), ("fail_after", 2.5),
        ("name", ["x"]), ("name", 5), ("name", None),
        ("noise_sd", [1]), ("noise_sd", True), ("noise_sd", "0.1"),
        ("noise_sd", 0), ("noise_sd", -0.5), ("noise_sd", {"sd": 1}),
        ("likelihood", {"data": [float("nan"), 0, 0], "obs_cov": np.eye(3).tolist()}),
        ("likelihood", {"data": [0, 0, 0], "obs_cov": np.diag([1, 1, np.inf]).tolist()}),
        ("prior", {"kind": "box", "lower": [-float("inf")] + [-1] * 11, "upper": [1] * 12}),
        ("prior", {"kind": "box", "lower": [-1] * 12, "upper": [1] * 11 + [float("nan")]}),
        ("prior", {"kind": "gaussian", "mean": [float("nan")] + [0] * 11,
                   "cov": np.eye(12).tolist()}),
        ("prior", {"kind": "gaussian", "mean": [0] * 12,
                   "cov": np.diag([np.inf] * 12).tolist()}),
        ("prior", {"kind": "box", "lower": [[-1] * 12], "upper": [[1] * 12]}),
        ("prior", {"kind": "gaussian", "mean": [[0] * 12], "cov": np.eye(12).tolist()}),
        ("likelihood", {"data": [[0, 0, 0]], "obs_cov": np.eye(3).tolist()}),
        ("prior", SINGULAR_PRIOR), ("likelihood", SINGULAR_LIKELIHOOD)])
    def test_bad_problem_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        base = LINEAR if field == "m" else BOWL
        cfg = {**base, "problem": {**base["problem"], field: value}}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"problem.{field}" in err
        # a singular matrix fails in chol_spd, with its one message
        if value is SINGULAR_PRIOR:
            assert "problem.prior: prior covariance factorization failed: " \
                "dpotrf failed with info=2" in err
        if value is SINGULAR_LIKELIHOOD:
            assert "problem.likelihood: obs_cov factorization failed: " \
                "dpotrf failed with info=3" in err

    @pytest.mark.parametrize("base, field", [(BOWL, "m"), (LINEAR, "d")],
                             ids=["m-on-bowl", "d-on-linear"])
    def test_field_that_does_not_apply_exits_2_naming_it(self, tmp_path, capsys, base, field):
        # a ridge link fixes the output length, and linear-gaussian has no
        # active dimension
        cfg = {**base, "problem": {**base["problem"], field: 5}}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert f"problem.{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("sd", [1e170, 1e-170, 10 ** 400],
                             ids=["1e170", "1e-170", "10**400"])
    def test_noise_sd_without_a_finite_positive_square_exits_2(self, tmp_path, capsys, sd):
        # 1e170 squares to inf and 1e-170 to 0: neither is a noise variance;
        # the JSON integer 10**400 does not fit a float at all
        cfg = {**BOWL, "problem": {**BOWL["problem"], "noise_sd": sd}}
        out = tmp_path / "x"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "problem.noise_sd: " in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_noise_sd_is_accepted(self, tmp_path):
        # a JSON integer is a number too: 1 and 1.0 give the same run
        outs = []
        for i, sd in enumerate((1, 1.0)):
            cfg = {**LINEAR, "problem": {**LINEAR["problem"], "noise_sd": sd}}
            path = write_config(tmp_path, cfg, f"c{i}.json")
            outs.append(tmp_path / f"n{i}")
            assert main(["run", "--config", path, "--out", str(outs[-1])]) == 0
        assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()

    def test_null_problem_fields_keep_their_defaults(self, tmp_path):
        nulls = {"seed": None, "m": None}
        outs = []
        for i, problem in enumerate(({**BOWL["problem"], **nulls},
                                     {**BOWL["problem"], "seed": 0})):
            path = write_config(tmp_path, {**BOWL, "problem": problem}, f"c{i}.json")
            outs.append(tmp_path / f"n{i}")
            assert main(["run", "--config", path, "--out", str(outs[-1])]) == 0
        assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()

    def test_importing_the_cli_loads_no_scipy_stats(self):
        # scipy.stats adds about a quarter second and 20 MiB to start-up,
        # and nothing in rmlbo uses it
        src = str(pathlib.Path(rmlbo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, rmlbo.cli; print(sorted(m for m in sys.modules if 'stats' in m))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert "scipy.stats" not in done.stdout

    def test_sampler_runs_leave_scipy_optimize_unloaded(self, tmp_path):
        # only local search's Nelder-Mead needs scipy.optimize, which costs
        # every process start-up time and memory; the other test modules
        # import it, so a fresh interpreter checks what rmlbo itself loads
        src = str(pathlib.Path(rmlbo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        configs = {m: write_config(tmp_path, {**BOWL, "method": m}, f"{m}.json")
                   for m in ("hdbo-rml", "random-design")}
        code = f"""
import json, sys
loaded = lambda: "scipy.optimize" in sys.modules
import numpy as np
import rmlbo
from rmlbo import bench
from rmlbo.cli import main
from rmlbo.hdbo import HDBOConfig
from rmlbo.rml import draw_randomizations
steps = {{"import": loaded()}}
problem = bench.make_problem("quadratic-bowl", D=6, d=2, seed=0)
instances = draw_randomizations(problem, 2, np.random.default_rng(0))
rmlbo.run_hdbo_rml(problem, instances, HDBOConfig(n_rml=2, budget_N=12, K=2, d_e=2,
                                                  n0=3, seed=0))
steps["run_hdbo_rml"] = loaded()
for method, path in {configs!r}.items():
    assert main(["run", "--config", path, "--out", {str(tmp_path)!r} + "/" + method]) == 0
    steps["cli " + method] = loaded()
rmlbo.per_objective_local_search(problem, instances, 12, np.random.default_rng(0))
steps["local search"] = loaded()
print(json.dumps(steps))
"""
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "import": False, "run_hdbo_rml": False, "cli hdbo-rml": False,
            "cli random-design": False, "local search": True}

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, BOWL)
        out = tmp_path / "s"
        assert main(["run", "--config", path, "--seed", "123", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 123
