from insertsim.scansim.surfaces import Box, HolePlate, Scene, ScenePart
from insertsim.scansim.scanner import CalibrationError, ScannerConfig, linear_sweep, sweep_scan

__all__ = [
    "Box",
    "HolePlate",
    "Scene",
    "ScenePart",
    "CalibrationError",
    "ScannerConfig",
    "linear_sweep",
    "sweep_scan",
]
