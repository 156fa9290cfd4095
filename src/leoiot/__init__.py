"""LEO-satellite IoT toolkit: random-access and multi-hop backhaul
simulation cross-validated against closed-form delay and age analysis."""

__version__ = "0.1.0"

from .scenario import (RaConfig, ScenarioConfig, TrafficConfig,
                       backhauling_preset, load_config, offloading_preset,
                       split_rates, validate)

__all__ = [
    "RaConfig", "ScenarioConfig", "TrafficConfig",
    "backhauling_preset", "load_config", "offloading_preset",
    "split_rates", "validate", "__version__",
]
