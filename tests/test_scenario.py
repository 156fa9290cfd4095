import configparser
import math
from dataclasses import fields, replace
from importlib import resources

import pytest

from leoiot.scenario import (SETTABLE, RaConfig, ScenarioConfig,
                             TrafficConfig, apply_overrides, config_hash,
                             dump_config, load_config, split_rates, validate)


def make_traffic(total_rate=50.0, kappa=0.5):
    return TrafficConfig(total_rate=total_rate, ground_ratio=kappa)


class TestSplitRates:
    def test_half_split(self):
        earth, space = split_rates(make_traffic(50.0, 0.5))
        assert earth == pytest.approx(25.0)
        assert space == pytest.approx(25.0)

    def test_all_ground(self):
        earth, space = split_rates(make_traffic(50.0, 1.0))
        assert (earth, space) == (50.0, 0.0)

    def test_uneven(self):
        earth, space = split_rates(make_traffic(250.0, 0.3))
        assert earth == pytest.approx(75.0)
        assert space == pytest.approx(175.0)
        assert earth + space == pytest.approx(250.0)

    def test_sum_is_total_everywhere(self):
        for kappa in (0.0, 0.125, 0.2, 0.5, 0.77, 1.0):
            earth, space = split_rates(make_traffic(123.4, kappa))
            assert earth + space == pytest.approx(123.4, abs=1e-12)


class TestValidate:
    def test_presets_are_clean(self):
        assert validate(load_config("offloading")) == []
        assert validate(load_config("backhauling")) == []

    def test_bad_preamble_count(self):
        cfg = replace(load_config("offloading"),
                      ground_ra=replace(load_config("offloading").ground_ra,
                                        preambles=13))
        problems = validate(cfg)
        assert any("preambles" in p for p in problems)

    def test_bad_kappa(self):
        cfg = replace(load_config("offloading"),
                      traffic=replace(load_config("offloading").traffic,
                                      ground_ratio=1.2))
        problems = validate(cfg)
        assert any("ground_ratio" in p for p in problems)

    def test_bad_rao_period(self):
        cfg = replace(load_config("backhauling"),
                      ground_ra=replace(load_config("backhauling").ground_ra,
                                        rao_period=100.0))
        assert any("rao_period" in p for p in validate(cfg))

    def test_erasure_range(self):
        cfg = replace(load_config("backhauling"),
                      ground_ra=replace(load_config("backhauling").ground_ra,
                                        erasure_prob=1.0))
        assert any("erasure_prob" in p for p in validate(cfg))

    def test_whole_report_in_rule_order(self):
        # every checked key of the offloading column bad, each finite
        times = ("max_backoff", "extended_prefix", "max_prop_delay",
                 "t_preamble_base", "t_rar_base", "t_msg3", "t_msg4",
                 "t_proc1", "t_proc2", "t_proc3")
        bad_ra = dict(preambles=13, rao_period=100.0, repetitions=0,
                      rar_window=0, grants_per_subframe=0, erasure_prob=1.0,
                      **dict.fromkeys(times, -1.0))
        config = load_config("offloading")
        config = replace(
            config, seed=-1, horizon=0.0,
            traffic=TrafficConfig(total_rate=0.0, ground_ratio=1.5),
            ground_ra=replace(config.ground_ra, **bad_ra),
            space_ra=replace(config.space_ra, **bad_ra))
        ra_lines = ["preambles: 13 not in (12, 24, 36, 48)",
                    "rao_period: 100.0 not a valid period "
                    "(40, 80, 160, 320, 640, 1280, 2560, 5120)",
                    "repetitions: must be >= 1", "rar_window: must be >= 1",
                    "grants_per_subframe: must be >= 1",
                    "erasure_prob: 1.0 outside [0, 1)",
                    *(f"{name}: must be >= 0" for name in times)]
        expected = ["traffic.total_rate: 0.0 must be > 0",
                    "traffic.ground_ratio: 1.5 outside [0, 1]",
                    *(f"{path}.{line}" for path in ("ground_ra", "space_ra")
                      for line in ra_lines),
                    "seed: -1 must be >= 0", "horizon: 0.0 must be > 0"]
        assert len(expected) == 36
        assert validate(config) == expected
        # given keys, the same lines of only those keys
        keys = {"space_ra.t_msg4", "run.horizon", "traffic.ground_ratio"}
        assert validate(config, keys) == [
            "traffic.ground_ratio: 1.5 outside [0, 1]",
            "space_ra.t_msg4: must be >= 0", "horizon: 0.0 must be > 0"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", [
        *(f"{section}.{f.name}" for section, obj in (
            ("traffic", TrafficConfig()), ("ground_ra", RaConfig()),
            ("space_ra", RaConfig()))
          for f in fields(obj) if isinstance(getattr(obj, f.name), float)),
        "run.horizon"])
    def test_non_finite_float_is_one_line(self, key, value):
        section, _, name = key.rpartition(".")
        config = load_config("offloading")
        config = (replace(config, **{name: value}) if section == "run" else
                  replace(config, **{section: replace(
                      getattr(config, section), **{name: value})}))
        assert validate(config) == [
            f"{key.removeprefix('run.')}: {value} is not finite"]


class TestPresets:
    def test_offloading_column(self):
        cfg = load_config("offloading")
        assert cfg.traffic.ground_ratio == 0.5
        assert cfg.space_ra is not None
        assert cfg.space_ra.repetitions == 4
        assert cfg.space_ra.extended_prefix == 2.0
        assert cfg.space_ra.max_prop_delay == 4.0
        assert cfg.ground_ra.rao_period == 320.0
        assert cfg.space_ra.rao_period == 160.0

    def test_backhauling_column(self):
        cfg = load_config("backhauling")
        assert cfg.traffic.ground_ratio == 1.0
        assert cfg.space_ra is None
        assert cfg.ground_ra.rao_period == 40.0

    def test_grant_capacity_is_36_on_both_paths(self):
        off = load_config("offloading")
        assert off.ground_ra.grant_capacity == 36
        assert off.space_ra.grant_capacity == 36
        # the window stretches with repetitions but holds the same grants
        assert off.space_ra.rar_window_ms == 48.0
        assert off.ground_ra.rar_window_ms == 12.0

    def test_derived_durations(self):
        sp = load_config("offloading").space_ra
        assert sp.preamble_duration == pytest.approx(5.6 * 4 + 2.0)
        assert sp.rar_duration == pytest.approx(2.0)

    def test_load_config_resolves_preset_names(self):
        for name in ("offloading", "backhauling"):
            path = resources.files("leoiot.presets") / f"{name}.ini"
            assert load_config(name) == load_config(str(path))


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = load_config("offloading")
        path = tmp_path / "scenario.ini"
        path.write_text(dump_config(cfg))
        assert load_config(str(path)) == cfg

    def test_round_trip_backhauling(self, tmp_path):
        # no [space_ra] section: the path stays unconfigured
        cfg = replace(load_config("backhauling"), seed=9, horizon=1.25e5)
        path = tmp_path / "scenario.ini"
        path.write_text(dump_config(cfg))
        assert load_config(str(path)) == cfg
        assert "space_ra" not in dump_config(cfg)

    @pytest.mark.parametrize("text, match", [
        # a stale section of a field that no run read
        ("[backhaul]\nhops = 2\n", "unknown section"),
        ("[run]\nseed = 1\nreplications = 5\n", "unknown key 'replications'"),
        ("[traffic]\nground_core_link = true\n", "unknown key"),
        # the device count no run read is a stale key
        ("[traffic]\nusers = many\n", "traffic.users"),
        ("[traffic]\nusers = 1000\n", "unknown key 'users'"),
        ("[traffic]\ntotal_rate = many\n",
         "traffic.total_rate: 'many' is not"),
        ("users = 5\n", "no section headers"),
        # alone it read as the default config, keys and all
        ("[DEFAULT]\nseed = 7\nbogus = 1\n",
         r"unknown section\(s\) \['DEFAULT'\]"),
        # beside other sections its keys went into each of them
        ("[DEFAULT]\ntotal_rate = 5\n\n[traffic]\nground_ratio = 1.0\n",
         r"unknown section\(s\) \['DEFAULT'\]"),
    ])
    def test_bad_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "missing.ini"))

    def test_hash_stable_and_sensitive(self):
        a = config_hash(load_config("offloading"), SETTABLE)
        b = config_hash(load_config("offloading"), SETTABLE)
        c = config_hash(load_config("backhauling"), SETTABLE)
        assert a == b
        assert a != c


class TestOverrides:
    def test_nested_override(self):
        cfg = apply_overrides(load_config("offloading"),
                              ["traffic.total_rate=250", "ground_ra.rar_window=10"])
        assert cfg.traffic.total_rate == 250.0
        assert cfg.ground_ra.rar_window == 10

    def test_top_level_override(self):
        cfg = apply_overrides(load_config("offloading"),
                              ["seed=99", "horizon=1e5"])
        assert cfg.seed == 99
        assert cfg.horizon == 1e5

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(load_config("offloading"), ["nonsense"])
        with pytest.raises(ValueError):
            apply_overrides(load_config("offloading"), ["nowhere.key=1"])
        with pytest.raises(ValueError):
            apply_overrides(load_config("backhauling"),
                            ["space_ra.repetitions=2"])

    @pytest.mark.parametrize("item, match", [
        ("ground_ra.bogus=1", "unknown key 'bogus'"),
        ("traffic.users=abc", "traffic.users"),
        ("traffic.users=1000", "unknown key 'users'"),
        ("traffic.total_rate=abc", "traffic.total_rate: 'abc' is not"),
        # the attempt budget is an argument of each run, not a config key
        ("ground_ra.max_attempts=2.5", "unknown key 'max_attempts'"),
        ("ground_ra.preambles=2.5", "not an integer"),
        ("horizon=long", "not a number"),
        ("replications=3", "unknown key 'replications'"),
        ("backhaul.buffer_size=3", "unknown section 'backhaul'"),
    ])
    def test_unknown_key_or_bad_value_rejected(self, item, match):
        with pytest.raises(ValueError, match=match):
            apply_overrides(load_config("offloading"), [item])


def _dumped_keys(config) -> dict:
    parser = configparser.ConfigParser()
    parser.read_string(dump_config(config))
    return {name: set(parser[name]) for name in parser.sections()}


class TestConfigSurface:
    """Every config field takes the one configuration path: it is
    dumped, read back and settable with ``--set``."""

    def test_every_field_is_dumped(self):
        dumped = _dumped_keys(load_config("offloading"))
        sub = {"traffic": TrafficConfig, "ground_ra": RaConfig,
               "space_ra": RaConfig}
        assert set(dumped) == set(sub) | {"run"}
        for section, cls in sub.items():
            assert dumped[section] == {f.name for f in fields(cls)}
        assert ({f.name for f in fields(ScenarioConfig)}
                == set(sub) | dumped["run"])

    def test_every_field_can_be_set_and_round_trips(self, tmp_path):
        config = load_config("offloading")
        changes = []
        for section, obj in (("traffic", config.traffic),
                             ("ground_ra", config.ground_ra),
                             ("space_ra", config.space_ra), ("run", config)):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if section == "run" and f.name in ("traffic", "ground_ra",
                                                   "space_ra"):
                    continue
                new = value + 1 if isinstance(value, int) else value + 0.5
                key = f.name if section == "run" else f"{section}.{f.name}"
                changes.append((section, f.name, key, new))
        changed = apply_overrides(config, [f"{key}={new!r}"
                                           for _, _, key, new in changes])
        for section, name, key, new in changes:
            holder = changed if section == "run" else getattr(changed, section)
            assert getattr(holder, name) == new, key
        path = tmp_path / "every_field.ini"
        path.write_text(dump_config(changed))
        assert load_config(str(path)) == changed

    @pytest.mark.parametrize("name", ["offloading", "backhauling"])
    def test_packaged_presets_hold_exactly_the_dumped_keys(self, name):
        text = resources.files("leoiot.presets").joinpath(
            f"{name}.ini").read_text()
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        packaged = {s: set(parser[s]) for s in parser.sections()}
        assert packaged == _dumped_keys(load_config(name))


class TestKeySets:
    """``apply_overrides`` and ``config_hash`` given the keys a run reads."""

    def test_settable_key_count(self):
        assert len(SETTABLE) == 36

    def test_hash_covers_exactly_the_given_keys(self):
        config = load_config("offloading")
        keys = frozenset({"ground_ra.t_msg3", "run.seed"})
        base = config_hash(config, keys)
        for key in sorted(SETTABLE):
            section, _, name = key.rpartition(".")
            holder = config if section == "run" else getattr(config, section)
            value = getattr(holder, name)
            new = value + 1 if isinstance(value, int) else value + 0.5
            changed = apply_overrides(config, [f"{key}={new!r}"])
            assert (config_hash(changed, keys) != base) == (key in keys), key

    def test_override_outside_the_keys_rejected(self):
        config = load_config("backhauling")
        keys = frozenset({"ground_ra.t_msg3", "run.seed"})
        assert apply_overrides(config, ["ground_ra.t_msg3=2", "seed=3"],
                               keys).seed == 3
        for key in ("horizon=1", "traffic.total_rate=9", "run.horizon=1"):
            with pytest.raises(ValueError, match="the run does not read it"):
                apply_overrides(config, [key], keys)
