"""Scenario configuration: traffic and the random-access channel of each path.

All rates in the config are in updates per second and all times in
milliseconds, matching how the evaluation parameters are usually quoted.

There is one configuration path.  A scenario is a ``ScenarioConfig``; the
INI format holds one section per part of it (``[traffic]``,
``[ground_ra]``, the optional ``[space_ra]``, and ``[run]`` for the
top-level ``seed`` and ``horizon``).  ``load_config`` alone reads that
format and rejects unknown sections, ``[DEFAULT]`` too, and keys;
``dump_config`` writes every field back, ``apply_overrides`` (the CLI
``--set section.key=value``; the ``[run]`` keys may also go bare, as
``--set horizon=4e5``) can set every field, and ``validate`` checks every
field by its rule in the one table ``RULES``; given a key set, these three
and ``config_hash`` take only those keys.  The two evaluation columns,
``offloading`` and ``backhauling``, exist only as the packaged INI files
under ``leoiot/presets``; ``load_config`` resolves either name to its file.

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
import math
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
    def retry_lag(self) -> float:
        """ms from an RAO to the close of its RAR window, the backoff start."""
        return self.preamble_duration + self.t_proc1 + self.rar_window_ms

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

# an access path's rules, key -> (test, message); ``{}`` in a message
# takes the value
_RA_RULES = {
    "preambles": (lambda v: v in VALID_PREAMBLE_COUNTS,
                  f"{{}} not in {VALID_PREAMBLE_COUNTS}"),
    "rao_period": (lambda v: v in VALID_RAO_PERIODS,
                   f"{{}} not a valid period {VALID_RAO_PERIODS}"),
    **dict.fromkeys(("repetitions", "rar_window", "grants_per_subframe"),
                    (lambda v: v >= 1, "must be >= 1")),
    "erasure_prob": (lambda v: 0.0 <= v < 1.0, "{} outside [0, 1)"),
    **dict.fromkeys(("max_backoff", "extended_prefix", "max_prop_delay",
                     "t_preamble_base", "t_rar_base", "t_msg3", "t_msg4",
                     "t_proc1", "t_proc2", "t_proc3"),
                    (lambda v: v >= 0, "must be >= 0")),
}
# the most an access path's time (ms) or count may be, also where its rule
# has no upper bound: a retry's RAO index, ceil((RAO time + retry_lag +
# backoff) / rao_period), then fits int64 on any horizon below 10^20 ms
# (retry_lag holds two products, each at most 10^18), as does a grant rank
MAX_RA_VALUE = 1e9
# every settable key, dotted, in report order -> its rule for ``validate``
RULES = {"traffic.total_rate": (lambda v: v > 0, "{} must be > 0"),
         "traffic.ground_ratio": (lambda v: 0.0 <= v <= 1.0,
                                  "{} outside [0, 1]"),
         **{f"{path}.{key}": rule for path in ("ground_ra", "space_ra")
            for key, rule in _RA_RULES.items()},
         "run.seed": (lambda v: v >= 0, "{} must be >= 0"),
         "run.horizon": (lambda v: v > 0, "{} must be > 0")}


def _section_objects(config: ScenarioConfig) -> dict:
    objects = {"traffic": config.traffic, "ground_ra": config.ground_ra,
               "space_ra": config.space_ra, "run": config}
    return {name: obj for name, obj in objects.items() if obj is not None}


def validate(config: ScenarioConfig, keys=SETTABLE) -> list:
    """Check the dotted ``keys`` by their ``RULES``, in the table's order:
    one line per violation, starting with its key (a ``[run]`` key goes
    bare, as in ``--set``), and a float that is not finite, or an access
    path's value past ``MAX_RA_VALUE``, fails on a line of its own.  Empty
    means a run that reads only ``keys`` can use it."""
    objects = _section_objects(config)
    out = []
    for key, (test, message) in RULES.items():
        section, _, name = key.partition(".")
        if key in keys and section in objects:
            value = getattr(objects[section], name)
            if isinstance(value, float) and not math.isfinite(value):
                message = "{} is not finite"
            elif section.endswith("_ra") and value > MAX_RA_VALUE:
                message = f"{{}} is more than {MAX_RA_VALUE:g}"
            elif test(value):
                continue
            out.append(f"{key.removeprefix('run.')}: {message.format(value)}")
    return out


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


def load_config(path_or_preset: str | os.PathLike) -> ScenarioConfig:
    """Load an INI scenario file; the bare preset names ``offloading`` and
    ``backhauling``, given as strings, resolve to the packaged
    ``leoiot/presets/<name>.ini``.  A path object is always opened, even
    when it names a file called like a preset.  An unparsable file, an
    unknown section (``[DEFAULT]`` too) or key, or a malformed number
    raises ``ValueError``."""
    if isinstance(path_or_preset, str) and path_or_preset in PRESETS:
        preset = resources.files("leoiot.presets") / f"{path_or_preset}.ini"
        text, source = preset.read_text(), preset.name
    else:
        with open(path_or_preset) as fh:
            text, source = fh.read(), str(path_or_preset)
    # no header names "", so [DEFAULT] is an unknown section and shares no key
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       default_section="")
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None
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
