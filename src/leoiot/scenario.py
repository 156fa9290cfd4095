"""Scenario configuration: traffic and the random-access channel of each path.

All rates in the config are in updates per second and all times in
milliseconds, matching how the evaluation parameters are usually quoted.

There is one configuration path.  A scenario is a ``ScenarioConfig``; the
INI format holds one section per part of it (``[traffic]``,
``[ground_ra]``, the optional ``[space_ra]``, and ``[run]`` for the
top-level ``seed`` and ``horizon``).  ``load_config`` reads that format
and rejects unknown sections and keys, ``dump_config`` writes every field
back, and ``apply_overrides`` (the CLI ``--set section.key=value``; the
``[run]`` keys may also go bare, as ``--set horizon=4e5``) can set every
field; given a key set, ``apply_overrides`` and ``config_hash`` take only
those keys.  The two evaluation columns, ``offloading`` and
``backhauling``, exist only as the packaged INI files under
``leoiot/presets``; ``load_config`` resolves either bare name to its file.

The relay chain is not part of the scenario: its unit-rate servers are
fixed, and its load, hop count and link erasure come from the sweep grid
(``experiments.ExperimentSpec``).  Its service units are abstract (one
unit = one mean service time), because the access channel and the chain
live on incommensurable clocks; see ``backhaul_sim.RaFeedSettings`` for
how the two are bridged.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, fields, replace
from importlib import resources

# the packaged evaluation columns, leoiot/presets/<name>.ini
PRESETS = ("offloading", "backhauling")
VALID_PREAMBLE_COUNTS = (12, 24, 36, 48)
VALID_RAO_PERIODS = tuple(40 * 2 ** k for k in range(8))  # 40 .. 5120 ms


@dataclass(frozen=True)
class TrafficConfig:
    """Update generation: one aggregate Poisson stream of status updates,
    split between the terrestrial and the space path."""

    total_rate: float = 50.0          # updates per second, all devices combined
    ground_ratio: float = 0.5         # fraction of traffic on the terrestrial path


@dataclass(frozen=True)
class RaConfig:
    """Random-access channel parameters for one path (terrestrial or space).

    ``rar_window`` is in base subframes; with ``repetitions`` > 1 every
    message (preamble and grant alike) stretches by the repetition factor,
    so the window spans ``rar_window * repetitions`` ms while its grant
    capacity stays ``grants_per_subframe * rar_window``.
    """

    preambles: int = 36               # orthogonal preambles per RAO
    rao_period: float = 320.0         # ms between consecutive RAOs
    repetitions: int = 1              # coverage-enhancement replicas
    rar_window: int = 12              # RA-response window, base subframes
    grants_per_subframe: int = 3
    erasure_prob: float = 0.1
    max_backoff: float = 320.0        # ms
    extended_prefix: float = 0.0      # ms, added once to the preamble
    max_prop_delay: float = 0.0       # ms one-way; >0 only on the space path
    t_preamble_base: float = 5.6      # ms per repetition
    t_rar_base: float = 0.5           # ms per repetition (control-channel slot)
    t_msg3: float = 1.0
    t_msg4: float = 1.0
    t_proc1: float = 2.0
    t_proc2: float = 5.0
    t_proc3: float = 4.0

    @property
    def preamble_duration(self) -> float:
        return self.t_preamble_base * self.repetitions + self.extended_prefix

    @property
    def rar_duration(self) -> float:
        return self.t_rar_base * self.repetitions

    @property
    def rar_window_ms(self) -> float:
        return float(self.rar_window * self.repetitions)

    @property
    def grant_capacity(self) -> int:
        return self.grants_per_subframe * self.rar_window


@dataclass(frozen=True)
class ScenarioConfig:
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    ground_ra: RaConfig = field(default_factory=RaConfig)
    space_ra: RaConfig | None = None
    seed: int = 1
    horizon: float = 3.2e6            # ms of simulated access-channel time


def split_rates(traffic: TrafficConfig):
    """Aggregate rates offered to the terrestrial and space paths (per second)."""
    earth = traffic.ground_ratio * traffic.total_rate
    space = (1.0 - traffic.ground_ratio) * traffic.total_rate
    return earth, space


def _check_ra(cfg: RaConfig, prefix: str, out: list):
    if cfg.preambles not in VALID_PREAMBLE_COUNTS:
        out.append(f"{prefix}.preambles: {cfg.preambles} not in {VALID_PREAMBLE_COUNTS}")
    if cfg.rao_period not in VALID_RAO_PERIODS:
        out.append(f"{prefix}.rao_period: {cfg.rao_period} not a valid period "
                   f"{VALID_RAO_PERIODS}")
    if cfg.repetitions < 1:
        out.append(f"{prefix}.repetitions: must be >= 1")
    if cfg.rar_window < 1:
        out.append(f"{prefix}.rar_window: must be >= 1")
    if cfg.grants_per_subframe < 1:
        out.append(f"{prefix}.grants_per_subframe: must be >= 1")
    if not 0.0 <= cfg.erasure_prob < 1.0:
        out.append(f"{prefix}.erasure_prob: {cfg.erasure_prob} outside [0, 1)")
    for name in ("max_backoff", "extended_prefix", "max_prop_delay",
                 "t_preamble_base", "t_rar_base", "t_msg3", "t_msg4",
                 "t_proc1", "t_proc2", "t_proc3"):
        if getattr(cfg, name) < 0:
            out.append(f"{prefix}.{name}: must be >= 0")


# ---------------------------------------------------------------------------
# The INI config format
# ---------------------------------------------------------------------------

# INI section -> the dataclass whose int and float fields are its keys;
# [run] holds the top-level scalars of ScenarioConfig
SECTIONS = {"traffic": TrafficConfig, "ground_ra": RaConfig,
            "space_ra": RaConfig, "run": ScenarioConfig}


def _keys(cls) -> dict:
    return {f.name: int if f.type == "int" else float
            for f in fields(cls) if f.type in ("int", "float")}


# every key as ``section.key``; ``--set`` also takes the [run] keys bare
SETTABLE = frozenset(f"{section}.{key}" for section, cls in SECTIONS.items()
                     for key in _keys(cls))


def validate(config: ScenarioConfig, keys=SETTABLE) -> list:
    """Collect the invariant violations of the dotted ``keys``, one line
    each that starts with its key; an empty list means a run that reads
    only those keys can use the config."""
    out: list = []
    t = config.traffic
    if t.total_rate <= 0:
        out.append(f"traffic.total_rate: {t.total_rate} must be > 0")
    if not 0.0 <= t.ground_ratio <= 1.0:
        out.append(f"traffic.ground_ratio: {t.ground_ratio} outside [0, 1]")
    _check_ra(config.ground_ra, "ground_ra", out)
    if config.space_ra is not None:
        _check_ra(config.space_ra, "space_ra", out)
    if config.horizon <= 0:
        out.append(f"horizon: {config.horizon} must be > 0")
    # the keys of [run] go bare, as in ``--set``
    return [p for p in out
            if (key := p.partition(":")[0]) in keys or f"run.{key}" in keys]


def _typed(section: str, items) -> dict:
    """Typed field values of one section from ``(key, text)`` pairs;
    an unknown key or a malformed number raises ``ValueError``."""
    keys = _keys(SECTIONS[section])
    out = {}
    for key, raw in items:
        kind = keys.get(key)
        if kind is None:
            raise ValueError(f"{section}.{key}: unknown key {key!r}; known: "
                             f"{', '.join(keys)}")
        try:
            out[key] = kind(raw)
        except ValueError:
            raise ValueError(f"{section}.{key}: {raw!r} is not "
                             f"{'an integer' if kind is int else 'a number'}"
                             ) from None
    return out


def config_from_dict(parser: configparser.ConfigParser) -> ScenarioConfig:
    unknown = [s for s in parser.sections() if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown section(s) {unknown}; known: "
                         f"{', '.join(SECTIONS)}")
    values = {name: _typed(name, parser[name].items())
              for name in parser.sections()}
    space = values.get("space_ra")
    return ScenarioConfig(
        traffic=TrafficConfig(**values.get("traffic", {})),
        ground_ra=RaConfig(**values.get("ground_ra", {})),
        space_ra=None if space is None else RaConfig(**space),
        **values.get("run", {}))


def _parse(text: str, source: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None
    return config_from_dict(parser)


def load_config(path_or_preset: str | os.PathLike) -> ScenarioConfig:
    """Load an INI scenario file; the bare preset names ``offloading`` and
    ``backhauling``, given as strings, resolve to the packaged
    ``leoiot/presets/<name>.ini``.  A path object is always opened, even
    when it names a file called like a preset."""
    if isinstance(path_or_preset, str) and path_or_preset in PRESETS:
        preset = resources.files("leoiot.presets") / f"{path_or_preset}.ini"
        return _parse(preset.read_text(), preset.name)
    with open(path_or_preset) as fh:
        return _parse(fh.read(), str(path_or_preset))


def _section_objects(config: ScenarioConfig) -> dict:
    objects = {"traffic": config.traffic, "ground_ra": config.ground_ra,
               "space_ra": config.space_ra, "run": config}
    return {name: obj for name, obj in objects.items() if obj is not None}


def dump_config(config: ScenarioConfig, keys=SETTABLE) -> str:
    """Serialize a scenario to the INI format accepted by ``load_config``,
    limited to the dotted ``keys``."""
    parser = configparser.ConfigParser()
    for name, obj in _section_objects(config).items():
        values = {key: repr(getattr(obj, key)) for key in _keys(SECTIONS[name])
                  if f"{name}.{key}" in keys}
        if values:
            parser[name] = values
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(config: ScenarioConfig, overrides,
                    keys=SETTABLE) -> ScenarioConfig:
    """Apply ``section.key=value`` overrides (the CLI ``--set`` flag); the
    keys of ``[run]`` may also go bare, as ``seed=`` and ``horizon=``.
    A key outside the dotted ``keys`` is rejected."""
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ValueError(f"override {item!r} is not of the form key=value")
        section, _, name = key.strip().rpartition(".")
        section = section or "run"
        if section not in SECTIONS:
            raise ValueError(f"cannot override {key!r}: unknown section "
                             f"{section!r}")
        values = _typed(section, [(name, raw.strip())])
        if f"{section}.{name}" not in keys:
            raise ValueError(f"cannot override {key.strip()!r}: the run "
                             f"does not read it")
        target = _section_objects(config).get(section)
        if target is None:
            raise ValueError(f"cannot override {key!r}: the scenario has no "
                             f"[{section}] section")
        target = replace(target, **values)
        config = target if section == "run" else replace(config,
                                                         **{section: target})
    return config


def config_hash(config: ScenarioConfig, keys) -> str:
    """Hash of the dotted ``keys`` a run reads, its identity."""
    return hashlib.sha256(dump_config(config, keys).encode()).hexdigest()[:16]
