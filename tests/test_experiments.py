import contextlib
import csv
import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from leoiot import backhaul_sim as bs
from leoiot import experiments as ex
from leoiot import ra_analytic as ra
from leoiot.experiments import (ExperimentSpec, main, report,
                                run_analytic, run_backhauling, run_offloading)
from leoiot.experiments import READS
from leoiot.scenario import (SETTABLE, RaConfig, apply_overrides,
                             config_hash, dump_config, load_config, validate)


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def offload_spec(tmp_path, horizon=4.0e5):
    cfg = replace(load_config("offloading"), horizon=horizon)
    return ExperimentSpec(config=cfg, figure="fig4", out_dir=tmp_path,
                          attempts=(1, 10))


def backhaul_spec(tmp_path, **kw):
    cfg = load_config("backhauling")
    defaults = dict(config=cfg, figure="fig6", rhos=(0.3, 0.5),
                    hops=(2,), erasures=(0.0,), modes=("no-ra",),
                    replications=2, packets=20_000, workers=1,
                    out_dir=tmp_path)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestOffloading:
    def test_produces_all_files(self, tmp_path):
        files = run_offloading(offload_spec(tmp_path))
        names = {f.name for f in files}
        assert {"offload_pmf_a1.csv", "offload_pmf_a10.csv",
                "offload_summary.csv"} <= names
        # four curves per attempt budget: ground k=1, ground/space k=0.5
        assert sum(1 for n in names if n.startswith("offload_cdf")) == 6
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["seed"] == load_config("offloading").seed
        assert "config_sha256_16" in meta

    def test_pmf_files_are_distributions(self, tmp_path):
        run_offloading(offload_spec(tmp_path))
        for a in (1, 10):
            rows = read_rows(tmp_path / f"offload_pmf_a{a}.csv")
            for col in ("p_total", "p_collided", "p_successful"):
                total = sum(float(r[col]) for r in rows)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_attempt_plateau_bounded(self, tmp_path):
        run_offloading(offload_spec(tmp_path))
        rows = read_rows(tmp_path / "offload_summary.csv")
        eps = load_config("offloading").ground_ra.erasure_prob
        for r in rows:
            if r["attempts"] == "1":
                assert float(r["success_probability"]) <= 1 - eps + 1e-12

    def test_space_floor_exceeds_ground_floor(self, tmp_path):
        run_offloading(offload_spec(tmp_path))
        ground = read_rows(tmp_path / "offload_cdf_ground_k50_a1.csv")
        space = read_rows(tmp_path / "offload_cdf_space_k50_a1.csv")
        # repetitions, prefix and propagation push the space floor up
        assert float(space[0]["latency_ms"]) > float(ground[0]["latency_ms"])
        assert float(ground[0]["latency_ms"]) == pytest.approx(22.1, abs=1e-6)
        assert float(space[0]["latency_ms"]) == pytest.approx(58.4, abs=1e-6)

    def test_requires_space_path(self, tmp_path):
        spec = replace(offload_spec(tmp_path),
                       config=replace(load_config("offloading"),
                                      space_ra=None))
        with pytest.raises(ValueError):
            run_offloading(spec)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_offloading(offload_spec(a))
        run_offloading(offload_spec(b))
        for name in ("offload_pmf_a1.csv", "offload_cdf_ground_k100_a10.csv",
                     "offload_summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestBackhauling:
    def test_files_and_report_pass(self, tmp_path):
        files, ok = run_backhauling(backhaul_spec(tmp_path))
        assert ok
        names = {f.name for f in files}
        assert {"backhaul_rows.csv", "backhaul_summary.csv",
                "analytic_overlay.csv", "report.txt"} <= names
        rows = read_rows(tmp_path / "backhaul_rows.csv")
        assert len(rows) == 2 * 2  # two loads x two replications
        report_text = (tmp_path / "report.txt").read_text()
        assert "all tolerances met" in report_text

    def test_summary_rows_carry_stderr(self, tmp_path):
        run_backhauling(backhaul_spec(tmp_path))
        rows = read_rows(tmp_path / "backhaul_summary.csv")
        sim = [r for r in rows if r["mode"] == "no-ra"
               and r["metric"] == "mean_system_time"]
        assert sim and all(r["stderr"] not in ("", "nan") for r in sim)
        overlay = read_rows(tmp_path / "analytic_overlay.csv")
        assert overlay and all("stderr" not in r for r in overlay)

    def test_full_parameter_tuple_on_every_row(self, tmp_path):
        run_backhauling(backhaul_spec(tmp_path))
        for r in read_rows(tmp_path / "backhaul_summary.csv"):
            for key in ("mode", "rho", "hops", "link_erasure", "metric",
                        "value"):
                assert r[key] != ""

    def test_byte_reproducible_across_workers(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_backhauling(backhaul_spec(a, workers=1))
        run_backhauling(backhaul_spec(b, workers=4))
        for name in ("backhaul_rows.csv", "backhaul_summary.csv",
                     "analytic_overlay.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        # every file the run writes, the report and the metadata included
        a, b = tmp_path / "a", tmp_path / "b"
        run_backhauling(backhaul_spec(a))
        run_backhauling(backhaul_spec(b))
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        assert {"report.txt", "metadata.json"} <= set(names)
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_backhauling(backhaul_spec(a))
        spec = backhaul_spec(b, config=replace(load_config("backhauling"),
                                               seed=2))
        run_backhauling(spec)
        assert ((a / "backhaul_rows.csv").read_bytes()
                != (b / "backhaul_rows.csv").read_bytes())


class TestReport:
    # the closed-form mean delay of the one cell these rows sit in
    CLOSED = {(0.5, 2, 0.0, "mean_system_time"): 4.0}

    @staticmethod
    def rows(delays, mode="no-ra", rho=0.5):
        """Sweep rows of one cell at 2 hops, one replication per delay."""
        return [bs.SweepRow(
            mode=mode, rho=rho, hops=2, link_erasure=0.0, replication=k,
            n_offered=1000, n_delivered=1000, delivered_fraction=1.0,
            mean_system_time=t, mean_aoi=5.0, peak_aoi_mean=6.0,
            ra_success_prob=None if mode == "no-ra" else 0.9)
            for k, t in enumerate(delays)]

    def verdict(self, tmp_path, value, stderr, mode="no-ra"):
        """The last column of the mean-delay report line of a cell whose
        replications read value -+ stderr (one replication when stderr is
        NaN), and the exit flag."""
        delays = ([value] if math.isnan(stderr)
                  else [value - stderr, value + stderr])
        checks = ex._checks(self.rows(delays, mode), self.CLOSED)
        text, ok = report(checks, backhaul_spec(tmp_path))
        line, = (l for l in text.splitlines()
                 if l.startswith(mode) and "mean_system_time" in l)
        last = line.split()[-1]
        return (last if last in ("pass", "noisy", "FAIL") else ""), ok

    def test_replications_collapse_to_mean_and_standard_error(self):
        checks = ex._checks(self.rows([4.51, 4.49], mode="ra-a1"),
                            self.CLOSED)
        # one check per metric, in the summary's order
        assert [c.metric for c in checks] == [
            "mean_system_time", "mean_aoi", "delivered_fraction",
            "ra_success_prob"]
        delay = checks[0]
        assert delay.value == pytest.approx(4.5)
        assert delay.stderr == pytest.approx(0.01)
        # an ra cell shows the closed form but is not gated
        assert delay.analytic == 4.0 and math.isnan(delay.tolerance)
        no_ra, = (c for c in ex._checks(self.rows([4.51, 4.49]), self.CLOSED)
                  if c.metric == "mean_system_time")
        assert no_ra.tolerance == ex.TOLERANCES["mean_system_time"]
        # a single replication has no standard error
        assert math.isnan(ex._checks(self.rows([4.5]), self.CLOSED)[0].stderr)

    def test_empty_grid_rejected(self, tmp_path):
        # the CLI's nargs="+" already stops an empty grid; a library call
        # meets one error line per empty grid before any file is written
        for field, name in (("rhos", "rho"), ("hops", "hops"),
                            ("erasures", "link erasure"), ("modes", "mode")):
            with pytest.raises(ex.SpecError) as info:
                run_backhauling(backhaul_spec(tmp_path, **{field: ()}))
            assert info.value.problems == [
                f"{name}: the grid needs at least one value"]
        assert not any(tmp_path.iterdir())

    def test_tolerance_failure_flips_exit(self, tmp_path):
        assert self.verdict(tmp_path, 4.5, 0.01) == ("FAIL", False)

    def test_within_tolerance_passes(self, tmp_path):
        assert self.verdict(tmp_path, 4.05, 0.01) == ("pass", True)

    def test_within_three_standard_errors_is_noisy(self, tmp_path):
        # 2.5% over a 2% tolerance, but 2 standard errors off
        assert self.verdict(tmp_path, 4.1, 0.05) == ("noisy", True)

    def test_nan_standard_error_fails(self, tmp_path):
        # one replication has no standard error, so no noise escape
        assert self.verdict(tmp_path, 4.1, float("nan")) == ("FAIL", False)

    def test_access_feed_rows_get_no_verdict(self, tmp_path):
        assert self.verdict(tmp_path, 4.5, 0.01, mode="ra-a1") == ("", True)

    def test_report_reads_the_overlay(self, tmp_path):
        run_backhauling(backhaul_spec(tmp_path, erasures=(0.0, 0.1)))
        overlay = {(r["rho"], r["hops"], r["link_erasure"], r["metric"]):
                   float(r["value"])
                   for r in read_rows(tmp_path / "analytic_overlay.csv")}
        lines = [w for w in map(str.split, (tmp_path / "report.txt")
                                .read_text().splitlines())
                 if w[0] == "no-ra" and w[4] in ex.TOLERANCES]
        assert len(lines) == len(overlay) == 8
        for mode, rho, hops, eps, metric, value, analytic, *_ in lines:
            ref = overlay[f"{float(rho):g}", hops, f"{float(eps):g}", metric]
            assert float(analytic) == pytest.approx(ref, rel=1e-4)

    def test_report_prints_the_summary(self, tmp_path):
        run_backhauling(backhaul_spec(tmp_path, rhos=(0.5, 1.2),
                                      packets=5_000))
        summary = {(r["mode"], float(r["rho"]), r["hops"],
                    float(r["link_erasure"]), r["metric"]): float(r["value"])
                   for r in read_rows(tmp_path / "backhaul_summary.csv")}
        lines = [l.split() for l in (tmp_path / "report.txt").read_text()
                 .splitlines() if l.startswith("no-ra")]
        assert len(lines) == len(summary) == 6
        for mode, rho, hops, eps, metric, value, *_ in lines:
            assert float(value) == pytest.approx(
                summary[mode, float(rho), hops, float(eps), metric], rel=1e-4)
        # the unstable load has no closed form and gets no verdict
        unstable = [w for w in lines if w[1] == "1.20"]
        assert len(unstable) == 3
        assert all(len(w) == 7 and w[-1] == "nan" for w in unstable)

    def test_unstable_points_flagged(self, tmp_path):
        spec = backhaul_spec(tmp_path, rhos=(0.5, 1.0))
        text, _ = report([], spec)
        assert "flagged" in text and "1.0" in text


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--preset", "offloading"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_catches_violation(self, capsys):
        code = main(["validate", "--preset", "offloading",
                     "--set", "traffic.ground_ratio=1.2"])
        assert code == 1
        assert "ground_ratio" in capsys.readouterr().out
        assert main(["validate", "--set", "seed=-1"]) == 1
        assert capsys.readouterr().out == "violation: seed: -1 must be >= 0\n"

    def test_analytic_subcommand(self, tmp_path, capsys):
        code = main(["analytic", "--preset", "backhauling",
                     "--rho", "0.3", "0.5", "--hops", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "analytic.csv")
        metrics = {(r["subject"], r["metric"]) for r in rows}
        assert ("ground", "min_access_delay_ms") in metrics
        assert any(m == "mean_aoi" for _, m in metrics)

    def test_backhaul_subcommand_exit_zero(self, tmp_path):
        # sample large enough that the 2% agreement gate sits well above
        # the Monte Carlo noise floor
        code = main(["backhaul", "--preset", "backhauling",
                     "--figure", "custom", "--rho", "0.4",
                     "--hops", "2", "--mode", "no-ra",
                     "--replications", "1", "--packets", "100000",
                     "--out", str(tmp_path), "--seed", "5"])
        assert code == 0
        assert (Path(tmp_path) / "report.txt").exists()

    def test_offload_subcommand(self, tmp_path):
        code = main(["offload", "--preset", "offloading",
                     "--set", "horizon=4e5", "--attempts", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (Path(tmp_path) / "offload_pmf_a1.csv").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--rho", "0"], "rho"),
        (["--rho", "nan"], "rho"),
        (["--hops", "0"], "hops"),
        (["--packets", "1"], "packets"),
        (["--link-erasure", "1.0"], "erasure"),
        (["--replications", "0"], "replications"),
        (["--workers", "0"], "workers"),
        # a repeated grid value would pose as a second replication
        (["--rho", "0.5", "0.5"], "rho"),
        (["--hops", "2", "2"], "hops"),
        (["--link-erasure", "0.1", "0.1"], "erasure"),
        (["--mode", "no-ra", "no-ra"], "mode"),
    ])
    def test_backhaul_rejects_bad_sweep(self, tmp_path, capsys, flags, field):
        out = tmp_path / "out"
        code = main(["backhaul", "--figure", "custom", "--mode", "no-ra",
                     "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and field in err[0]
        assert not out.exists()          # rejected before any work

    @pytest.mark.parametrize("command", ["validate", "offload", "backhaul",
                                         "analytic"])
    @pytest.mark.parametrize("flags, text", [
        (["--set", "nowhere.key=1"], "unknown section 'nowhere'"),
        (["--set", "ground_ra.bogus=1"], "unknown key 'bogus'"),
        (["--set", "traffic.users=abc"], "traffic.users"),
        (["--set", "backhaul.buffer_size=3"], "unknown section 'backhaul'"),
        (["--config", "{missing}"], "No such file"),
        (["--config", "{stale}"], "unknown section(s) ['backhaul']"),
        (["--set", "traffic.total_rate=abc"], "not a number"),
        # alone it read as the default config: a run on seed 1
        (["--config", "{default_alone}"], "unknown section(s) ['DEFAULT']"),
        # beside other sections its keys went into each of them
        (["--config", "{default_beside}"], "unknown section(s) ['DEFAULT']"),
    ])
    def test_bad_config_fails_at_boundary(self, tmp_path, capsys, command,
                                          flags, text):
        files = {"stale": "[traffic]\nusers = 10\n\n[backhaul]\nhops = 2\n",
                 "default_alone": "[DEFAULT]\nseed = 7\nbogus = 1\n",
                 "default_beside": "[DEFAULT]\ntotal_rate = 5\n\n"
                                   "[ground_ra]\npreambles = 36\n"}
        for name, body in files.items():
            (tmp_path / f"{name}.ini").write_text(body)
        flags = [f.format(missing=tmp_path / "missing.ini",
                          **{name: tmp_path / f"{name}.ini" for name in files})
                 for f in flags]
        out = tmp_path / "out"
        if command != "validate":        # validate writes nothing
            flags += ["--out", str(out)]
        code = main([command, *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and text in err[0]
        assert not out.exists()          # rejected before any work

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "traffic.total_rate", "horizon",
        *(f"{path}.{name}" for path in ("ground_ra", "space_ra")
          for name in ("max_backoff", "extended_prefix", "max_prop_delay",
                       "t_preamble_base", "t_rar_base", "t_msg3", "t_msg4",
                       "t_proc1", "t_proc2", "t_proc3"))])
    def test_non_finite_value_fails_at_boundary(self, tmp_path, capsys, key,
                                                value):
        line = f"{key}: {value} is not finite"
        sets = ["--preset", "offloading", "--set", f"{key}={value}"]
        assert main(["validate", *sets]) == 1
        assert capsys.readouterr().out.splitlines() == [f"violation: {line}"]
        out = tmp_path / "out"
        assert main(["offload", *sets, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
        assert not out.exists()          # rejected before any work

    def test_offload_needs_space_path(self, tmp_path, capsys):
        code = main(["offload", "--preset", "backhauling",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: space_ra")

    def test_fig6_keeps_link_erasure(self, tmp_path):
        main(["backhaul", "--figure", "fig6", "--link-erasure", "0.5",
              "--mode", "no-ra", "--rho", "0.5", "--hops", "1",
              "--replications", "1", "--packets", "2000",
              "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "backhaul_rows.csv")
        assert [r["link_erasure"] for r in rows] == ["0.5"]

    @pytest.mark.parametrize("flags, cells", [
        ([], {("no-ra", "4", e) for e in ("0", "0.01", "0.1")}),
        (["--hops", "2", "--link-erasure", "0.2", "--mode", "ra-a1"],
         {("ra-a1", "2", "0.2")}),
    ])
    def test_fig7_defaults_yield_to_flags(self, tmp_path, flags, cells):
        main(["backhaul", "--figure", "fig7", "--rho", "0.5",
              "--replications", "1", "--packets", "2000",
              "--out", str(tmp_path), *flags])
        rows = read_rows(tmp_path / "backhaul_rows.csv")
        assert {(r["mode"], r["hops"], r["link_erasure"]) for r in rows} \
            == cells

    @pytest.mark.parametrize("seed, code", [("4", 2), ("3", 0)])
    def test_short_ra_feed_horizon(self, tmp_path, capsys, monkeypatch,
                                   seed, code):
        horizons = []
        real = bs.ra_sim.run

        def recording(cfg, attempts, rate, horizon, rng):
            horizons.append(horizon)
            return real(cfg, attempts, rate, horizon, rng)

        monkeypatch.setattr(bs.ra_sim, "run", recording)
        got = main(["backhaul", "--figure", "custom", "--mode", "ra-a10",
                    "--rho", "0.5", "--hops", "1", "--replications", "1",
                    "--packets", "10", "--set", "ground_ra.rao_period=320",
                    "--seed", seed, "--out", str(tmp_path)])
        assert horizons[0] == 320.0      # the first pass holds one RAO
        # 275 updates/s on 36 preambles every 320 ms is past the channel's
        # collapse: on some seeds the feed is still short after two passes
        assert got == code
        err = capsys.readouterr().err.splitlines()
        if code == 2:
            assert len(horizons) == 2
            assert len(err) == 1 and err[0].startswith("error: ra-a10 feed")
        else:
            assert len(read_rows(tmp_path / "backhaul_rows.csv")) == 1

    @pytest.mark.parametrize("argv, field", [
        (["analytic", "--set", "ground_ra.rao_period=0"],
         "ground_ra.rao_period"),
        (["analytic", "--set", "traffic.total_rate=-5"], "traffic.total_rate"),
        # a config that ``leoiot validate`` rejects
        (["analytic", "--preset", "offloading",
          "--set", "ground_ra.preambles=1"], "ground_ra.preambles"),
        (["offload", "--attempts", "0"], "attempts"),
        (["offload", "--attempts", "-3"], "attempts"),
        # shorter than the 320 ms RAO period of the terrestrial path
        (["offload", "--set", "horizon=100"], "horizon"),
        (["offload", "--attempts", "1", "1"], "attempts"),
        (["offload", "--seed", "-1"], "seed: -1 must be >= 0"),
        (["offload", "--set", "seed=-1"], "seed: -1 must be >= 0"),
        (["backhaul", "--seed", "-1"], "seed: -1 must be >= 0"),
    ])
    def test_unusable_run_rejected(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {field}")
        assert not out.exists()          # rejected before any work

    def test_library_analytic_rejects_bad_config(self, tmp_path):
        config = load_config("backhauling")
        config = replace(config, traffic=replace(config.traffic,
                                                 total_rate=-1.0))
        with pytest.raises(ValueError, match="traffic.total_rate"):
            run_analytic(backhaul_spec(tmp_path, config=config))

    def test_analytic_rejects_bad_grid(self, tmp_path, capsys):
        code = main(["analytic", "--preset", "backhauling", "--hops", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: hops")

    def test_library_sweep_rejects_bad_grid(self, tmp_path):
        with pytest.raises(ValueError, match="rho"):
            run_backhauling(backhaul_spec(tmp_path, rhos=(0.0, 0.5)))

    @pytest.mark.parametrize("flag", ["--replications", "--workers"])
    def test_offload_has_no_sweep_flags(self, flag):
        with pytest.raises(SystemExit):
            main(["offload", flag, "2"])

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ex.OUTPUT_ENV_VAR, str(tmp_path / "envdir"))
        code = main(["analytic", "--preset", "backhauling",
                     "--rho", "0.5", "--hops", "2"])
        assert code == 0
        assert (tmp_path / "envdir" / "analytic.csv").exists()

    def test_config_file_feeds_metadata(self, tmp_path):
        config = replace(load_config("offloading"),
                         traffic=replace(load_config("offloading").traffic,
                                         total_rate=99.0))
        ini = tmp_path / "my.ini"
        ini.write_text(dump_config(config))
        assert main(["analytic", "--config", str(ini),
                     "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["config_sha256_16"] == config_hash(config,
                                                       READS["analytic"])
        assert meta["config_sha256_16"] != config_hash(
            load_config("offloading"), READS["analytic"])

    @pytest.mark.parametrize("name", ["offloading", "./offloading",
                                      "backhauling", "./backhauling"])
    def test_config_opens_file_named_like_preset(self, tmp_path, monkeypatch,
                                                 name):
        # --config reads the file it names, never the packaged preset
        monkeypatch.chdir(tmp_path)
        preset = load_config(Path(name).name)
        config = replace(preset, traffic=replace(preset.traffic,
                                                 total_rate=99.0))
        Path(name).write_text(dump_config(config))
        assert main(["analytic", "--config", name, "--out", "out"]) == 0
        meta = json.loads(Path("out", "metadata.json").read_text())
        assert meta["config_sha256_16"] == config_hash(config,
                                                       READS["analytic"])
        assert meta["config_sha256_16"] != config_hash(preset,
                                                       READS["analytic"])

    @pytest.mark.parametrize("flags, text", [
        # one scenario source: a preset would silently win over the file
        (["--preset", "offloading", "--config", "{ini}"], "not allowed"),
        # a preset is a packaged name, a file goes through --config
        (["--preset", "{ini}"], "invalid choice"),
        # also when the preset named is the subcommand's default
        (["--preset", "backhauling", "--config", "{ini}"], "not allowed"),
    ])
    def test_scenario_source_flags(self, tmp_path, capsys, flags, text):
        ini = tmp_path / "my.ini"
        ini.write_text(dump_config(load_config("offloading")))
        flags = [f.format(ini=ini) for f in flags]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["analytic", *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_feeds_metadata(self, tmp_path):
        main(["backhaul", "--figure", "custom", "--mode", "no-ra",
              "--rho", "0.5", "--hops", "1", "--replications", "1",
              "--packets", "2000", "--seed", "777", "--out", str(tmp_path)])
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["seed"] == 777


def _changed(config, key):
    """A valid value of ``key`` other than the one ``config`` holds (or
    the default holds, for a path ``config`` leaves unconfigured)."""
    section, _, name = key.rpartition(".")
    holder = (config if section == "run"
              else getattr(config, section) or RaConfig())
    value = getattr(holder, name)
    if name == "preambles":
        return 24
    if name == "rao_period":
        return 2 * value
    return value + 1 if isinstance(value, int) else value / 2 or 0.5


def _csv_bytes(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}


# subcommand -> (preset, its overrides, the other flags) of a small run;
# on 48 preambles the ten-attempt feed stays clear of collapse at twice
# its RAO period
GUARD_RUNS = {
    "offload": ("offloading", ["horizon=32000"], ["--attempts", "2"]),
    "backhaul": ("backhauling", ["ground_ra.preambles=48"],
                 ["--figure", "custom", "--mode", "ra-a10", "--rho", "0.5",
                  "--hops", "1", "--replications", "1", "--packets", "200"]),
    "analytic": ("offloading", [], ["--rho", "0.5", "--hops", "1"]),
}


def _guard_run(command):
    """The base config and argv of the small run of ``command``."""
    preset, overrides, flags = GUARD_RUNS[command]
    config = apply_overrides(load_config(preset), overrides)
    sets = [a for item in overrides for a in ("--set", item)]
    return config, [command, "--preset", preset, *sets, *flags]


class TestKeyTable:
    """Each subcommand takes the keys it reads (``experiments.READS``) and
    rejects the rest."""

    def test_key_counts(self):
        assert {command: len(keys) for command, keys in READS.items()} == {
            "offload": 36, "backhaul": 17, "analytic": 26, "validate": 36}
        assert all(keys <= SETTABLE for keys in READS.values())
        assert READS["validate"] == SETTABLE

    def test_analytic_reads_the_tabled_ra_fields(self, tmp_path,
                                                 monkeypatch):
        # every RaConfig field the closed forms touch, recorded as read;
        # validate and the config hash read fields of their own
        seen = set()

        class Recording(RaConfig):
            def __getattribute__(self, name):
                seen.add(name)
                return object.__getattribute__(self, name)

        monkeypatch.setattr(ex, "validate", lambda config, keys: [])
        monkeypatch.setattr(ex, "config_hash", lambda config, keys: "")
        config = load_config("offloading")
        config = replace(config,
                         ground_ra=Recording(**asdict(config.ground_ra)),
                         space_ra=Recording(**asdict(config.space_ra)))
        run_analytic(backhaul_spec(tmp_path, config=config))
        names = {f.name for f in fields(RaConfig)}
        assert seen & names == set(ra.FIELDS_READ)
        assert READS["analytic"] == {
            "traffic.total_rate", "traffic.ground_ratio",
            *(f"{p}.{k}" for k in ra.FIELDS_READ
              for p in ("ground_ra", "space_ra"))}

    @pytest.mark.parametrize("command", sorted(GUARD_RUNS))
    def test_every_key_changes_a_data_file_or_is_rejected(self, tmp_path,
                                                          capsys, command):
        config, argv = _guard_run(command)
        assert main([*argv, "--out", str(tmp_path / "base")]) == 0
        base = _csv_bytes(tmp_path / "base")
        for key in sorted(SETTABLE):
            out = tmp_path / key
            capsys.readouterr()
            item = f"{key}={_changed(config, key)!r}"
            code = main([*argv, "--set", item, "--out", str(out)])
            err = capsys.readouterr().err.splitlines()
            if key in READS[command]:
                assert code in (0, 1), (key, err)
                assert _csv_bytes(out) != base, key
            else:
                assert code == 2, key
                assert len(err) == 1 and err[0].startswith("error: "), key
                assert key in err[0] and f"leoiot {command}" in err[0], key
                assert not out.exists(), key

    def test_validate_checks_every_key_it_reads(self, capsys):
        for key in sorted(SETTABLE):
            capsys.readouterr()
            code = main(["validate", "--preset", "offloading",
                         "--set", f"{key}=-1"])
            out, err = capsys.readouterr()
            if key in READS["validate"]:
                assert code == 1, key
                assert f"violation: {key.removeprefix('run.')}:" in out, key
            else:
                assert code == 2, key
                assert err.splitlines() == [
                    f"error: leoiot validate: cannot override '{key}': the "
                    f"run does not read it"]

    @pytest.mark.parametrize("command", ["analytic", "backhaul"])
    def test_unread_keys_leave_the_hash(self, tmp_path, command):
        config, argv = _guard_run(command)
        unread = [f"{key}={_changed(config, key)!r}"
                  for key in sorted(SETTABLE - READS[command])
                  if config.space_ra or not key.startswith("space_ra.")]
        changed = apply_overrides(config, unread)
        metas = []
        for name, cfg in (("a", config), ("b", changed)):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(dump_config(cfg))
            out = tmp_path / name
            main([command, "--config", str(ini), "--out", str(out),
                  *argv[argv.index("--preset") + 2:]])
            metas.append(json.loads((out / "metadata.json").read_text()))
            assert _csv_bytes(out) == _csv_bytes(tmp_path / "a")
        assert metas[0] == metas[1]
        assert ("seed" in metas[0]) == (command == "backhaul")

    @pytest.mark.parametrize("command, bad", [
        ("backhaul", ["run.horizon=0", "traffic.total_rate=-1"]),
        ("analytic", ["run.horizon=0", "ground_ra.rar_window=0",
                      "space_ra.max_backoff=-1"]),
    ])
    def test_unread_bad_values_leave_the_run(self, tmp_path, command, bad):
        # each value alone fails the full check, but the run reads none
        config, argv = _guard_run(command)
        assert all(validate(apply_overrides(config, [b])) for b in bad)
        config = apply_overrides(config, bad)
        assert not validate(config, READS[command])
        ini = tmp_path / "bad.ini"
        ini.write_text(dump_config(config))
        assert main([command, "--config", str(ini),
                     "--out", str(tmp_path / "out"),
                     *argv[argv.index("--preset") + 2:]]) == 0

    @pytest.mark.parametrize("command", ["offload", "analytic", "backhaul"])
    def test_metadata_holds_only_what_the_run_reads(self, tmp_path, command):
        _, argv = _guard_run(command)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        sweep = {"replications", "workers", "packets_per_point"}
        assert sweep & set(meta) == (sweep if command == "backhaul" else set())

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "7"], ["validate", "--out", "{out}"],
        ["analytic", "--seed", "7", "--out", "{out}"],
    ])
    def test_flags_the_run_does_not_read_are_rejected(self, tmp_path, capsys,
                                                      argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestSpecRules:
    """The spec's own fields are checked by one table, ``SPEC_RULES``, and
    each subcommand checks the fields it reads (``SPEC_READS``)."""

    def test_every_rule_is_a_field_some_subcommand_reads(self):
        assert set(ex.SPEC_RULES) <= {f.name for f in fields(ExperimentSpec)}
        assert set().union(*ex.SPEC_READS.values()) == set(ex.SPEC_RULES)

    def test_checks_go_by_kind_across_fields(self, tmp_path):
        spec = backhaul_spec(tmp_path, rhos=(0.0, 0.5, 0.5), hops=(0,),
                             erasures=(), modes=("no-ra", "no-ra"),
                             replications=0, workers=0)
        with pytest.raises(ex.SpecError) as info:
            run_backhauling(spec)
        assert info.value.problems == [
            "link erasure: the grid needs at least one value",
            "rho [0.0]: every load must be > 0",
            "hops [0]: every hop count must be >= 1",
            "rho [0.5]: each value may appear once",
            "mode ['no-ra']: each value may appear once",
            "replications 0: must be >= 1", "workers 0: must be >= 1"]
        assert not any(tmp_path.iterdir())

    def test_unknown_mode_rejected_before_any_file(self, tmp_path):
        with pytest.raises(ex.SpecError) as info:
            run_backhauling(backhaul_spec(tmp_path, modes=("no-ra", "ra")))
        assert info.value.problems == [
            "mode ['ra']: every mode must be in ('no-ra', 'ra-a1', 'ra-a10')"]
        assert not any(tmp_path.iterdir())

    def test_analytic_checks_only_the_grid_it_takes(self, tmp_path):
        # no sweep runs, so the sweep's own fields cannot stop the tables
        spec = backhaul_spec(tmp_path, modes=(), replications=0, workers=0,
                             packets=10**30)
        assert run_analytic(spec) == [tmp_path / "analytic.csv"]

    def test_pool_capped_while_metadata_keeps_the_request(self, tmp_path,
                                                          monkeypatch):
        # the stand-in records the pool's size and maps in process, so no
        # worker process starts however many the flag asks for
        opened = []

        def in_process(max_workers, mp_context):
            opened.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=map))

        monkeypatch.setattr(bs, "ProcessPoolExecutor", in_process)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        argv = ["backhaul", "--figure", "custom", "--mode", "no-ra", "ra-a1",
                "--rho", "0.3", "0.6", "--hops", "1", "--replications", "2",
                "--packets", "2000"]
        for workers in ("1000000", "1"):
            main([*argv, "--workers", workers,
                  "--out", str(tmp_path / workers)])
        assert opened == [2]
        assert _csv_bytes(tmp_path / "1000000") == _csv_bytes(tmp_path / "1")
        meta = json.loads((tmp_path / "1000000" / "metadata.json").read_text())
        assert meta["workers"] == 1_000_000


class TestShortCells:
    @pytest.mark.parametrize("flags", [
        ["--rho", "0.5", "--hops", "6", "--link-erasure", "0.9"],
        ["--link-erasure", "0.85"],
    ])
    def test_analytic_simulates_no_cell(self, tmp_path, flags):
        # the closed forms hold for any erasure in [0, 1), whatever the
        # packet count a sweep of the same grid would need
        out = tmp_path / "out"
        assert main(["analytic", "--preset", "backhauling", *flags,
                     "--out", str(out)]) == 0
        assert (out / "analytic.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--rho", "0.5", "--hops", "2000", "--link-erasure", "0.5"],
        ["--hops", "7000", "--link-erasure", "0.1"],
    ])
    def test_diverging_closed_form_ends_in_one_error_line(self, tmp_path,
                                                          capsys, flags):
        # survival 0.5^2000 underflows to 0, 0.9^7000 to a subnormal whose
        # age overflows: neither has a finite closed-form age
        out = tmp_path / "out"
        code = main(["analytic", "--preset", "backhauling", *flags,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: closed-form age diverges over {flags[-3]} "
                       f"links erasing {flags[-1]} each"]
        assert not (out / "analytic.csv").exists()

    @pytest.mark.parametrize("rho", ["1e-160", "1e-200"])
    def test_tiny_load_ends_in_one_error_line(self, tmp_path, capsys, rho):
        # 1/lam^2 underflows to 0 at 1e-200, and E[WY] overflows at 1e-160
        out = tmp_path / "out"
        code = main(["analytic", "--preset", "backhauling", "--rho", rho,
                     "--hops", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: closed forms overflow at load rho={rho} "
                       f"over 2 links"]
        assert not (out / "analytic.csv").exists()

    def test_tiny_load_fails_before_any_simulation(self, tmp_path, capsys,
                                                   monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("simulated a grid with no closed form")

        monkeypatch.setattr(bs, "sweep", sweep)
        out = tmp_path / "out"
        code = main(["backhaul", "--figure", "custom", "--mode", "no-ra",
                     "--rho", "1e-200", "--hops", "1", "--replications", "1",
                     "--packets", "2000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: closed forms overflow at load rho=1e-200 "
                       "over 1 links"]
        assert not out.exists()

    def test_grid_that_delivers_too_few_rejected(self, tmp_path, capsys):
        # 1000 packets over 3 links that each erase 90% deliver 1
        out = tmp_path / "out"
        code = main(["backhaul", "--figure", "custom", "--mode", "no-ra",
                     "--rho", "0.5", "--hops", "1", "3",
                     "--link-erasure", "0.9", "--replications", "1",
                     "--packets", "1000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: packets 1000")
        assert "3 hops" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("pipeline, argv", [
        ("run_offloading", ["offload", "--set", "horizon=1e12"]),
        ("run_backhauling", ["backhaul", "--figure", "custom", "--mode",
                             "ra-a1", "--rho", "0.5", "--hops", "1",
                             "--packets", "100000000000"]),
    ])
    def test_out_of_memory_ends_in_one_error_line(self, tmp_path, capsys,
                                                  monkeypatch, pipeline,
                                                  argv):
        # exit 1 means tolerance failures, so a run that memory cannot hold
        # ends in one error line and exit 2; the stand-in allocates nothing
        def allocate(spec):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(ex, pipeline, allocate)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: leoiot {argv[0]}: Unable to allocate 745. GiB "
                       f"for an array"]

    @pytest.mark.parametrize("argv", [
        ["offload", "--set", "horizon=1e300"],
        ["offload", "--set", "traffic.total_rate=1e300"],
        # an expected count of inf
        ["offload", "--set", "horizon=1e300", "--set",
         "traffic.total_rate=1e300"],
        # past an array's byte size, though under its largest index
        ["offload", "--set", "horizon=1e20"],
        # under the packets bound, but over the arrivals a feed can hold
        ["backhaul", "--figure", "custom", "--mode", "ra-a1", "--rho", "0.5",
         "--hops", "1", "--replications", "1",
         "--packets", "1000000000000000000"],
    ])
    def test_run_too_large_to_index_ends_in_one_error_line(self, tmp_path,
                                                           capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: leoiot {argv[0]}: ")
        assert err[0].endswith("arrivals: too many for an array")

    @pytest.mark.parametrize("mode", ["no-ra", "ra-a1"])
    def test_packets_past_an_array_index_rejected(self, tmp_path, capsys,
                                                  mode):
        out = tmp_path / "out"
        packets = 10**30
        code = main(["backhaul", "--figure", "custom", "--mode", mode,
                     "--rho", "0.5", "--hops", "1", "--replications", "1",
                     "--packets", str(packets), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: packets {packets}: must be <= "
                       f"{np.iinfo(np.intp).max}, the largest array index"]
        assert not out.exists()          # rejected before any work

    @pytest.mark.parametrize("replications", [250_001, 10**18])
    def test_replications_past_the_cell_bound_rejected(
            self, tmp_path, capsys, monkeypatch, replications):
        # the sweep would build a task per (mode, rho, replication) first
        def sweep(*args, **kwargs):
            raise AssertionError("built the sweep of an oversized grid")

        monkeypatch.setattr(bs, "sweep", sweep)
        out = tmp_path / "out"
        code = main(["backhaul", "--figure", "custom", "--mode", "no-ra",
                     "--rho", "0.5", "--hops", "1", "2", "4", "6",
                     "--replications", str(replications), "--packets",
                     "2000", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: replications {replications}: the grid makes "
            f"{4 * replications} cells (4 per replication), more than the "
            f"{ex.MAX_CELLS} a sweep runs"]
        assert not out.exists()
        # the bound itself is a grid a sweep can run
        spec = backhaul_spec(tmp_path, rhos=(0.5,), hops=(1, 2, 4, 6),
                             replications=ex.MAX_CELLS // 4)
        assert ex.backhaul_problems(spec) == []

    def test_cell_short_by_chance_ends_in_one_error_line(self, tmp_path,
                                                         capsys):
        # 1000 packets at erasure 0.99 deliver 10 on average; at seed 1062
        # fewer than two get through, too few for an age average
        code = main(["backhaul", "--figure", "custom", "--mode", "no-ra",
                     "--rho", "0.5", "--hops", "1", "--link-erasure", "0.99",
                     "--replications", "1", "--packets", "1000",
                     "--seed", "1062", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no-ra cell rho=0.5 hops=1 link erasure=0.99 "
                       "replication=0: need at least two deliveries for an "
                       "age average"]
