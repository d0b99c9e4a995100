"""Command-line interface: routing, config handling, exit codes, output."""

import copy
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cocval
from cocval.cli import (
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_USAGE,
    FIGURE_PRESETS,
    RunConfig,
    _json_text,
    main,
)

GAUSSIAN_CLAIM = '{"kind":"normal","mean":1,"sd":0.3}'
GAUSSIAN_ASSET = '{"kind":"normal","mean":1.05,"sd":0.2}'
SINKING_ASSET = '{"kind":"normal","mean":-0.5,"sd":0.2}'
LOGNORMAL_MARKET = ["--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
                    "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}', "--w", "0.5"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValue:
    def test_gaussian_riskless_record(self, capsys):
        code, out, _ = run(capsys, [
            "value", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET, "--w", "0"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["r0"] == pytest.approx(1.77274879, abs=1e-7)
        assert record["r0_method"] == "closed_form"
        # the program sets v0 = r0 - c0; v0 + c0 need not round back to r0
        assert record["v0"] == record["r0"] - record["c0"]

    @pytest.mark.parametrize("argv", [
        ["--claim", '{"kind":"pareto","mean":1,"beta":1.1}'],
        ["--claim", '{"kind":"lognormal","mean":1,"sd":0.6}',
         "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}', "--w", "1"],
    ], ids=["pareto-riskless", "lognormal-pair"])
    def test_capped_routes_print_the_premium_identity(self, capsys, argv):
        # these two routes compute the premium first; v0 is then set back
        # to r0 - c0, which rounding would otherwise move by one ulp
        code, out, _ = run(capsys, ["value", *argv])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["valuation_method"] == "closed_form"
        assert record["v0"] == record["r0"] - record["c0"]

    def test_pareto_example_route(self, capsys):
        code, out, _ = run(capsys, [
            "value", "--claim", '{"kind":"pareto","mean":1,"beta":2}'])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["r0"] == pytest.approx(7.071, abs=0.005)
        assert record["llo"] == pytest.approx(0.0334, abs=0.0005)
        assert record["v0"] == pytest.approx(1.310, abs=0.005)
        assert record["v0_upper"] == pytest.approx(1.344, abs=0.005)

    def test_lognormal_full_weight_quadrature_route(self, capsys):
        code, out, _ = run(capsys, [
            "value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
            "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}', "--w", "1"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["valuation_method"] == "closed_form"
        assert record["r0"] == pytest.approx(2.2818, abs=1e-3)

    def test_mc_route_small_sample(self, capsys):
        code, out, _ = run(capsys, [
            "value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
            "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
            "--w", "0.5", "--mc-n", "20000", "--seed", "7"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["valuation_method"] == "mc"
        assert record["r0_se"] is not None

    def test_invalid_alpha_is_usage_error(self, capsys):
        code, _, err = run(capsys, [
            "value", "--claim", GAUSSIAN_CLAIM, "--alpha", "0.7"])
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_no_solution_exit_code(self, capsys):
        code, _, err = run(capsys, [
            "value", "--claim", GAUSSIAN_CLAIM,
            "--asset", '{"kind":"normal","mean":0.5,"sd":0.2}', "--w", "1"])
        assert code == EXIT_NO_SOLUTION
        assert "no solution" in err

    @pytest.mark.parametrize("measure", [[], ["--risk-measure", "es", "--alpha", "0.01"]],
                             ids=["var", "es"])
    def test_nonpositive_mean_return_has_no_solution(self, capsys, measure):
        # Z ~ N(-0.2, 0.16^2) at w = 0.8: a mean return at or below zero
        # is an unacceptable market, not a usage error
        code, _, err = run(capsys, [
            "value", "--claim", GAUSSIAN_CLAIM, "--asset", SINKING_ASSET, "--w", "0.8",
            *measure])
        assert code == EXIT_NO_SOLUTION
        assert "no solution" in err

    def test_nonfinite_claim_parameter_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "value", "--claim", '{"kind":"normal","mean":NaN,"sd":0.3}'])
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("claim, message", [
        ('{"kind":"pareto","mean":1,"sd":1e8}', "sd 100000000.0 is too large"),
        ('{"kind":"pareto","mean":1,"sd":6e7}', "sd 60000000.0 is too large"),
        ('{"kind":"pareto","mean":5e-324,"beta":2}', "mean 5e-324 is too small"),
    ], ids=["sd-1e8", "sd-6e7", "mean-5e-324"])
    def test_pareto_claim_out_of_float_range_is_usage_error(self, capsys, claim, message):
        code, out, err = run(capsys, ["value", "--claim", claim])
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_nan_eta_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}', "--eta", "nan"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "eta" in err

    def test_unresolved_var_tail_is_usage_error(self, capsys):
        # alpha * mc_n = 0.005 leaves no scenario in the tail
        code, out, err = run(capsys, ["value", *LOGNORMAL_MARKET, "--mc-n", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "alpha * n < 1" in err

    def test_overflowing_valuation_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "value", *LOGNORMAL_MARKET, "--eta", "1e308", "--mc-n", "1000"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "v0_upper is not finite" in err

    def test_overflowing_moments_fail_before_drawing(self, capsys, monkeypatch, tmp_path):
        # the claim's variance overflows a float: exit 2 before a scenario
        # is drawn, so numpy has no array to warn about
        from cocval import montecarlo

        calls, real = [], montecarlo.sample_scenarios
        monkeypatch.setattr(montecarlo, "sample_scenarios",
                            lambda *args: calls.append(args) or real(*args))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, [
                "sweep", "--claim", '{"kind":"lognormal","mean":1e300,"sd":1e300}',
                "--grid-step", "1", "--mc-n", "1000", "--out", str(tmp_path / "sweep.csv")])
        assert code == EXIT_USAGE
        assert out == ""
        assert "overflow" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert calls == []

    @pytest.mark.parametrize("command", [["value", *LOGNORMAL_MARKET],
                                         ["figure", "fig3b", "--grid-step", "0.5"]])
    def test_sample_beyond_memory_is_usage_error(self, capsys, command):
        # 8 PB per array: refused before anything is allocated
        code, out, err = run(capsys, [*command, "--mc-n", "1000000000000000"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "physical memory" in err

    @pytest.mark.parametrize("command", [["sweep", *LOGNORMAL_MARKET[:4], "--mc-n", "1000"],
                                         ["figure", "fig1b"]])
    def test_grid_beyond_memory_is_usage_error(self, capsys, monkeypatch, command):
        # 10^9 + 1 weights on a machine of 8 GiB: refused before the grid exists
        monkeypatch.setattr("cocval.market._physical_memory", lambda: 8.0 * 2 ** 30)
        code, out, err = run(capsys, [*command, "--grid-step", "1e-9"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "grid step 1e-09" in err and "physical memory" in err

    def test_closed_form_starts_no_thread(self):
        # the sampler's thread pool is made by the first Monte Carlo draw,
        # so importing the program and a closed-form valuation start none
        code = ("import threading, cocval.cli; n = threading.active_count(); "
                f"code = cocval.cli.main(['value', '--claim', {GAUSSIAN_CLAIM!r}, "
                f"'--asset', {GAUSSIAN_ASSET!r}, '--w', '0.5']); "
                "print(n, threading.active_count(), code)")
        src = str(Path(cocval.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == f"1 1 {EXIT_OK}"

    def test_missing_claim_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["value"])
        assert code == EXIT_USAGE
        assert "claim" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["value", "--frobnicate"]) == EXIT_USAGE

    def test_writes_csv_row(self, capsys, tmp_path):
        out_path = tmp_path / "row.csv"
        code, _, _ = run(capsys, [
            "value", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET,
            "--w", "0", "--out", str(out_path)])
        assert code == EXIT_OK
        header, row = out_path.read_text().strip().splitlines()
        assert header.split(",")[0] == "w"
        assert float(row.split(",")[header.split(",").index("r0")]) == pytest.approx(
            1.77274879, abs=1e-7)


class TestUnwritableOutput:
    @pytest.mark.parametrize("flag", ["--out", "--dump-config"])
    @pytest.mark.parametrize("command", [
        ["value", "--claim", GAUSSIAN_CLAIM],
        ["figure", "fig1b", "--grid-step", "0.1"],
        ["pareto-example"],
    ], ids=["value", "figure", "pareto-example"])
    def test_is_usage_error_without_traceback(self, tmp_path, command, flag):
        target = tmp_path / "missing" / "x.csv"
        src = str(Path(cocval.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "cocval.cli", *command, flag, str(target)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", [
    ["value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}'],
    ["figure", "fig1b"],
    ["pareto-example"],
], ids=["value", "figure", "pareto-example"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command):
    # stdout is a pipe whose read end is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cocval.__file__).resolve().parent.parent)
    try:
        done = subprocess.run([sys.executable, "-m", "cocval.cli", *command],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


@pytest.mark.parametrize("argv", [["pareto-example"], ["figure", "fig1b", "--grid-step", "0.5"],
                                  ["value", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET,
                                   "--w", "0.3"],
                                  ["value", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET,
                                   "--w", "0.3", "--dump-config", "run.json"]],
                         ids=["pareto-example", "figure", "value", "dump-config"])
def test_repeated_calls_leave_no_reference_cycles(capsys, tmp_path, monkeypatch, argv):
    # what a call leaves in reference cycles stays in memory until the
    # cyclic collector runs; a process that calls main in a loop builds the
    # parser, whose parts refer to each other, once
    monkeypatch.chdir(tmp_path)
    argv = [*argv, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_OK
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestSweepAndFigures:
    def test_fig1b_summary(self, capsys, tmp_path):
        out_path = tmp_path / "fig1b.csv"
        code, out, _ = run(capsys, ["figure", "fig1b", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("w,r0,c0,v0")
        assert len(lines) == 1 + 1001 + 3
        summary = {ln.split(",")[0]: ln.split(",")[1] for ln in lines if ln.startswith("#")}
        assert list(summary) == ["# w_star", "# w_hat_numeric", "# w_hat_closed"]
        assert float(summary["# w_star"]) == pytest.approx(0.083, abs=1e-3)
        # stdout carries the same summary, cell for cell
        assert out.splitlines() == [f"wrote {out_path}",
                                    *(f"{key[2:]} = {cell}" for key, cell in summary.items())]

    def test_unknown_figure(self, capsys):
        code, _, err = run(capsys, ["figure", "fig99"])
        assert code == EXIT_USAGE
        assert "unknown figure" in err

    def test_figure_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["figure", "fig3b", "--grid-step", "0.5", "--mc-n", "20000",
                     "--seed", "11", "--out", str(a)])
        run(capsys, ["figure", "fig3b", "--grid-step", "0.5", "--mc-n", "20000",
                     "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_figure_presets_cover_documented_panels(self):
        for fid in ("fig1b", "fig3b", "fig8b", "fig15b", "fig7bb"):
            assert fid in FIGURE_PRESETS
        assert FIGURE_PRESETS["fig8b"]["risk_measure"] == {"kind": "es", "alpha": 0.01}
        assert FIGURE_PRESETS["fig9b"]["asset"]["mean"] == 1.02
        assert FIGURE_PRESETS["fig15b"]["claim"]["beta"] == 1.1
        # the premium-bound views alias the sweep data of fig3 / fig4
        for panel in "abc":
            assert FIGURE_PRESETS[f"fig5{panel}"] is FIGURE_PRESETS[f"fig3{panel}"]
            assert FIGURE_PRESETS[f"fig6{panel}"] is FIGURE_PRESETS[f"fig4{panel}"]

    def test_measure_flags_override_preset_fields(self, capsys, tmp_path):
        # fig8b and fig3b share the market and differ only in the
        # measure, so overriding it must reproduce fig3b exactly
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["--grid-step", "0.5", "--mc-n", "5000", "--seed", "1"]
        run(capsys, ["figure", "fig8b", "--risk-measure", "var",
                     "--alpha", "0.005", "--out", str(a)] + common)
        run(capsys, ["figure", "fig3b", "--out", str(b)] + common)
        assert a.read_bytes() == b.read_bytes()

    def test_measure_flags_leave_the_presets_unchanged(self, capsys, tmp_path):
        # fig5b aliases fig3b's preset; a run must change neither
        before = copy.deepcopy(FIGURE_PRESETS)
        code, _, _ = run(capsys, ["figure", "fig5b", "--risk-measure", "es", "--alpha", "0.02",
                                  "--grid-step", "0.5", "--mc-n", "5000",
                                  "--out", str(tmp_path / "fig5b.csv")])
        assert code == EXIT_OK
        assert FIGURE_PRESETS == before
        assert FIGURE_PRESETS["fig5b"] is FIGURE_PRESETS["fig3b"]

    def test_every_preset_runs(self, capsys, tmp_path):
        # tiny smoke sweep through each preset id
        for fid in FIGURE_PRESETS:
            out_path = tmp_path / f"{fid}.csv"
            code, _, _ = run(capsys, ["figure", fid, "--grid-step", "0.5",
                                      "--mc-n", "4000", "--seed", "1",
                                      "--out", str(out_path)])
            assert code == EXIT_OK, fid
            lines = out_path.read_text().strip().splitlines()
            assert len(lines) == 1 + 3 + 3, fid

    def test_sweep_with_inline_distributions(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, [
            "sweep", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET,
            "--grid-step", "0.25", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 + 3

    @pytest.mark.parametrize("claim", [GAUSSIAN_CLAIM, '{"kind":"lognormal","mean":1,"sd":0.3}'],
                             ids=["normal", "lognormal"])
    def test_nonpositive_mean_returns_are_gap_rows(self, capsys, tmp_path, claim):
        # the normal model and Monte Carlo agree on where the sinking
        # asset's sweep has no solution: from w = 0.5 on
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, [
            "sweep", "--claim", claim, "--asset", SINKING_ASSET, "--grid-step", "0.1",
            "--mc-n", "20000", "--seed", "1", "--out", str(out_path)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:12]]
        gaps = [row[0] for row in rows if all(cell == "" for cell in row[1:])]
        assert gaps == ["0.5", "0.6", "0.7", "0.8", "0.9", "1"]


class TestParetoExample:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, ["pareto-example"])
        assert code == EXIT_OK
        rows = [ln.split() for ln in out.strip().splitlines()[1:]]
        by_beta = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
        assert by_beta[2.0] == pytest.approx([7.071068, 0.033354, 1.343645, 1.310291], abs=1e-5)
        assert by_beta[1.1] == pytest.approx([11.231888, 0.529806, 1.579163, 1.049357], abs=1e-5)

    @staticmethod
    def _parse_table(text):
        rows = [ln.split() for ln in text.strip().splitlines()[1:]]
        return {float(r[0]): [float(v) for v in r[1:]] for r in rows}

    def test_mean_scaling(self, capsys):
        _, base_out, _ = run(capsys, ["pareto-example"])
        _, scaled_out, _ = run(capsys, ["pareto-example", "--mean", "2"])
        base = self._parse_table(base_out)
        scaled = self._parse_table(scaled_out)
        for beta in (2.0, 1.1):
            for b, s in zip(base[beta], scaled[beta]):
                assert s == pytest.approx(2 * b, rel=1e-6)

    def test_rejects_a_mean_whose_scale_underflows(self, capsys):
        code, out, err = run(capsys, ["pareto-example", "--mean", "5e-324"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "mean 5e-324 is too small" in err and "x_m" in err

    @pytest.mark.parametrize("mean", ["0", "-1", "nan", "inf"])
    def test_rejects_non_positive_or_non_finite_mean(self, capsys, mean):
        code, out, err = run(capsys, ["pareto-example", "--mean", mean])
        assert code == EXIT_USAGE
        assert out == ""
        assert "mean must be positive and finite" in err

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "pareto.csv"
        code, _, _ = run(capsys, ["pareto-example", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "beta,r0,llo,v0_upper,v0"
        assert len(lines) == 3


class TestConfig:
    def test_config_file_with_flag_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "claim": {"kind": "normal", "mean": 1.0, "sd": 0.3},
            "asset": {"kind": "normal", "mean": 1.05, "sd": 0.2},
            "risk_measure": {"kind": "var", "alpha": 0.01},
            "eta": 0.08,
            "w": 0.5,
        }))
        code, out, _ = run(capsys, ["value", "--config", str(cfg), "--eta", "0.06"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["alpha"] == 0.01  # from file
        assert record["eta"] == 0.06  # flag wins
        assert record["w"] == 0.5

    def test_dump_config_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "resolved.json"
        argv = ["value", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET,
                "--w", "0.25", "--alpha", "0.01", "--seed", "5",
                "--dump-config", str(dump)]
        code, first, _ = run(capsys, argv)
        assert code == EXIT_OK
        code, second, _ = run(capsys, ["value", "--config", str(dump)])
        assert code == EXIT_OK
        assert json.loads(first) == json.loads(second)
        reparsed = RunConfig.from_dict(json.loads(dump.read_text()))
        assert reparsed.w == 0.25 and reparsed.seed == 5

    FIG8B = ["figure", "fig8b", "--grid-step", "0.5", "--mc-n", "20000"]
    # a config file with another market and measure than fig8b's, and eta 0.08
    OTHER_RUN = {"claim": {"kind": "normal", "mean": 2.0, "sd": 0.5}, "asset": None,
                 "risk_measure": {"kind": "var", "alpha": 0.1}, "eta": 0.08}

    def test_figure_dump_config_reruns_the_figure(self, capsys, tmp_path):
        dump, a, b = tmp_path / "fig8b.json", tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, _ = run(capsys, [*self.FIG8B, "--dump-config", str(dump), "--out", str(a)])
        assert code == EXIT_OK
        code, _, _ = run(capsys, ["sweep", "--config", str(dump), "--out", str(b)])
        assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, measure", [
        ([], {"kind": "es", "alpha": 0.01}),
        (["--alpha", "0.02"], {"kind": "es", "alpha": 0.02}),
        (["--risk-measure", "var"], {"kind": "var", "alpha": 0.01})],
        ids=["preset", "alpha-flag", "measure-flag"])
    def test_figure_dump_config_holds_the_preset(self, capsys, tmp_path, flags, measure):
        # file < preset < flags: the file's market and measure give way to
        # the preset's, its eta stays, and each measure flag sets its field
        cfg, dump = tmp_path / "run.json", tmp_path / "dump.json"
        cfg.write_text(json.dumps(self.OTHER_RUN))
        code, _, _ = run(capsys, [*self.FIG8B, "--config", str(cfg), *flags,
                                  "--dump-config", str(dump), "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_OK
        dumped = json.loads(dump.read_text())
        preset = FIGURE_PRESETS["fig8b"]
        assert (dumped["claim"], dumped["asset"]) == (preset["claim"], preset["asset"])
        assert (dumped["risk_measure"], dumped["eta"]) == (measure, 0.08)
        assert (dumped["grid_step"], dumped["mc_n"]) == (0.5, 20000)

    def test_preset_replaces_the_config_file(self, capsys, tmp_path):
        cfg, a, b = tmp_path / "run.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps(self.OTHER_RUN))
        assert run(capsys, [*self.FIG8B, "--config", str(cfg), "--out", str(a)])[0] == EXIT_OK
        assert run(capsys, [*self.FIG8B, "--eta", "0.08", "--out", str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"claim": {"kind": "normal", "mean": 1, "sd": 0.3},
                                   "surprise": 1}))
        code, _, err = run(capsys, ["value", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "surprise" in err

    def test_config_scalars_coerced_to_their_types(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        base = {"claim": {"kind": "lognormal", "mean": 1.0, "sd": 0.3},
                "asset": {"kind": "lognormal", "mean": 1.05, "sd": 0.2}}
        cfg.write_text(json.dumps({**base, "mc_n": "1000", "w": "0.5", "seed": 4.0}))
        code, out, _ = run(capsys, ["value", "--config", str(cfg)])
        assert code == EXIT_OK
        record = json.loads(out)
        assert (record["mc_n"], record["w"], record["seed"]) == (1000, 0.5, 4)
        for key, bad in (("mc_n", "many"), ("mc_n", 100.5), ("eta", None), ("seed", "1e3")):
            cfg.write_text(json.dumps({**base, key: bad}))
            code, _, err = run(capsys, ["value", "--config", str(cfg)])
            assert code == EXIT_USAGE
            assert key in err

    @pytest.mark.parametrize("out", [True, 5], ids=["true", "integer"])
    def test_value_out_must_be_a_path(self, tmp_path, out):
        # open() takes a boolean or an integer as a file descriptor: true
        # would write the CSV to stdout and close it, 5 would open fd 5
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"claim": json.loads(GAUSSIAN_CLAIM), "out": out}))
        src = str(Path(cocval.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "cocval.cli", "value", "--config", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr == (f"error: config key 'out' must be a path string or null, "
                               f"got {out!r}\n")

    @pytest.mark.parametrize("command", [
        ["figure", "fig1b", "--grid-step", "0.5"],
        ["sweep", "--claim", GAUSSIAN_CLAIM, "--asset", GAUSSIAN_ASSET, "--grid-step", "0.5"],
    ], ids=["figure", "sweep"])
    def test_sweep_out_must_be_a_path(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.json"
        for out in (7, True, ["a.csv"]):
            cfg.write_text(json.dumps({"out": out}))
            code, stdout, err = run(capsys, [*command, "--config", str(cfg)])
            assert (code, stdout) == (EXIT_USAGE, ""), out
            assert "config key 'out' must be a path string" in err, err

    @pytest.mark.parametrize("flags", [[], ["--risk-measure", "es"], ["--alpha", "0.01"]],
                             ids=["file", "measure-flag", "alpha-flag"])
    def test_risk_measure_must_be_an_object(self, capsys, tmp_path, flags):
        cfg = tmp_path / "run.json"
        for measure in (1, "var", None):
            cfg.write_text(json.dumps({"claim": json.loads(GAUSSIAN_CLAIM),
                                       "risk_measure": measure}))
            code, out, err = run(capsys, ["value", "--config", str(cfg), *flags])
            assert (code, out) == (EXIT_USAGE, ""), measure
            assert "config key 'risk_measure' must be an object" in err, err

    def test_config_numbers_are_not_booleans(self, capsys, tmp_path):
        # Python takes true for 1 and false for 0; a config file may not
        cfg = tmp_path / "run.json"
        for key in ("eta", "w", "grid_step", "mc_n", "seed"):
            cfg.write_text(json.dumps({"claim": json.loads(GAUSSIAN_CLAIM), key: True}))
            code, out, err = run(capsys, ["value", "--config", str(cfg)])
            assert (code, out) == (EXIT_USAGE, ""), key
            assert f"config key {key!r} must be" in err, err

    @pytest.mark.parametrize("flag, spec, message", [
        ("--claim", '{"kind":"pareto","mean":true,"beta":2}',
         "pareto parameter 'mean' must be a number, got True"),
        ("--asset", '{"kind":"normal","mean":1.05,"sd":false}',
         "normal parameter 'sd' must be a number, got False")], ids=["claim", "asset"])
    def test_distribution_parameters_are_not_booleans(self, capsys, flag, spec, message):
        # Python takes true for 1 and false for 0; a distribution may not
        code, out, err = run(capsys, ["value", "--claim", GAUSSIAN_CLAIM, "--w", "0.5",
                                      flag, spec])
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err, err

    def test_distributions_must_be_objects_or_null(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        for key in ("claim", "asset"):
            cfg.write_text(json.dumps({"claim": json.loads(GAUSSIAN_CLAIM), key: "normal"}))
            code, out, err = run(capsys, ["value", "--config", str(cfg)])
            assert (code, out) == (EXIT_USAGE, ""), key
            assert f"config key {key!r} must be an object or null" in err, err

    def test_negative_seed_names_the_flag(self, capsys, tmp_path):
        # Monte Carlo and closed-form commands alike, from the flag or a file
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": -1}))
        claim = ["--claim", '{"kind":"lognormal","mean":1,"sd":0.3}']
        for argv in (["value", *LOGNORMAL_MARKET, "--mc-n", "1000"], ["value", *claim],
                     ["sweep", *claim, "--grid-step", "0.5"],
                     ["figure", "fig3b", "--grid-step", "0.5", "--mc-n", "1000"],
                     ["figure", "fig1b", "--grid-step", "0.5"], ["pareto-example"]):
            for seed in (["--seed", "-1"], ["--config", str(cfg)]):
                code, out, err = run(capsys, [*argv, *seed])
                assert (code, out) == (EXIT_USAGE, ""), (argv, seed)
                assert "--seed" in err and "Traceback" not in err, err

    def test_zero_config_mc_n_names_the_flag(self, capsys, tmp_path):
        # refused where Monte Carlo would run and where a closed form needs no sample
        cfg = tmp_path / "mc_n.json"
        cfg.write_text(json.dumps({"mc_n": 0}))
        normal = ["--claim", '{"kind":"normal","mean":1,"sd":0.3}',
                  "--asset", '{"kind":"normal","mean":1.05,"sd":0.2}', "--w", "0.3"]
        for argv in (["value", *LOGNORMAL_MARKET], ["value", *normal],
                     ["figure", "fig1b", "--grid-step", "0.5"], ["pareto-example"]):
            code, out, err = run(capsys, [*argv, "--config", str(cfg)])
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert "--mc-n must be a positive integer, got 0" in err, err

    def test_config_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COC_SEED", "321")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"claim": {"kind": "lognormal", "mean": 1.0, "sd": 0.3},
                                   "asset": {"kind": "lognormal", "mean": 1.05, "sd": 0.2},
                                   "w": 0.5, "mc_n": 10000, "seed": 5}))
        code, out, _ = run(capsys, ["value", "--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 5

    def test_seed_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COC_SEED", "321")
        code, out, _ = run(capsys, [
            "value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
            "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
            "--w", "0.5", "--mc-n", "10000"])
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 321

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COC_SEED", "321")
        code, out, _ = run(capsys, [
            "value", "--claim", '{"kind":"lognormal","mean":1,"sd":0.3}',
            "--asset", '{"kind":"lognormal","mean":1.05,"sd":0.2}',
            "--w", "0.5", "--mc-n", "10000", "--seed", "9"])
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 9


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@given(st.recursive(JSON_LEAVES, lambda inner: st.dictionaries(st.text(), inner)
                    | st.lists(inner), max_leaves=40))
@settings(max_examples=300, deadline=None)
def test_json_text_is_indented_json(obj):
    # the printer of the value record and --dump-config, against the
    # indenting encoder it stands in for: nested, empty and flat dicts
    assert _json_text(obj) == json.dumps(obj, indent=2)
