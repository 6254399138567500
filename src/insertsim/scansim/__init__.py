from insertsim.scansim.surfaces import Box, HolePlate, Scene, ScenePart, TriangleMesh
from insertsim.scansim.scanner import CalibrationError, ScannerConfig, linear_sweep, sweep_scan

__all__ = [
    "Box",
    "HolePlate",
    "Scene",
    "ScenePart",
    "TriangleMesh",
    "CalibrationError",
    "ScannerConfig",
    "linear_sweep",
    "sweep_scan",
]
