"""Energy-harvesting subsystem: sources, predictors and storage.

This package models the left-hand side of the paper's Figure 2 — the
ambient energy source, the (optional) prediction of its future output, and
the energy storage that buffers harvested energy for the real-time system.
"""

from repro.energy.predictor import (
    HarvestPredictor,
    LastValuePredictor,
    MeanPowerPredictor,
    OraclePredictor,
    ProfilePredictor,
)
from repro.energy.source import (
    CompositeSource,
    ConstantSource,
    DayNightSource,
    EnergySource,
    MarkovWeatherSource,
    ScaledSource,
    SolarStochasticSource,
    TraceSource,
)
from repro.energy.storage import EnergyStorage, IdealStorage, NonIdealStorage

__all__ = [
    "CompositeSource",
    "ConstantSource",
    "DayNightSource",
    "EnergySource",
    "EnergyStorage",
    "HarvestPredictor",
    "IdealStorage",
    "LastValuePredictor",
    "MarkovWeatherSource",
    "MeanPowerPredictor",
    "NonIdealStorage",
    "OraclePredictor",
    "ProfilePredictor",
    "ScaledSource",
    "SolarStochasticSource",
    "TraceSource",
]
