import configparser
from dataclasses import fields, replace
from importlib import resources

import pytest

from leoiot.scenario import (RaConfig, ScenarioConfig, TrafficConfig,
                             apply_overrides, config_hash, dump_config,
                             load_config, split_rates, validate)


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
        a = config_hash(load_config("offloading"))
        b = config_hash(load_config("offloading"))
        c = config_hash(load_config("backhauling"))
        assert a == b
        assert a != c


class TestOverrides:
    def test_nested_override(self):
        cfg = apply_overrides(load_config("offloading"),
                              ["traffic.total_rate=250", "ground_ra.max_attempts=10"])
        assert cfg.traffic.total_rate == 250.0
        assert cfg.ground_ra.max_attempts == 10

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
        ("ground_ra.max_attempts=2.5", "not an integer"),
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
