"""LEO-satellite IoT toolkit: random-access and multi-hop backhaul
simulation cross-validated against closed-form delay and age analysis."""

__version__ = "0.1.0"

from .scenario import (RaConfig, ScenarioConfig, TrafficConfig, load_config,
                       split_rates, validate)

__all__ = [
    "RaConfig", "ScenarioConfig", "TrafficConfig", "load_config",
    "split_rates", "validate", "__version__",
]
