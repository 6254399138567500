from insertsim.scansim.surfaces import Box, HolePlate, Scene, ScenePart, TriangleMesh
from insertsim.scansim.scanner import (
    CalibrationError,
    ScannerConfig,
    SweepScan,
    linear_sweep,
    sweep_scan,
    sweep_scan_detailed,
)

__all__ = [
    "Box",
    "HolePlate",
    "Scene",
    "ScenePart",
    "TriangleMesh",
    "CalibrationError",
    "ScannerConfig",
    "SweepScan",
    "linear_sweep",
    "sweep_scan",
    "sweep_scan_detailed",
]
