from insertsim.scansim.surfaces import Box, Cylinder, HolePlate, Scene, ScenePart, TriangleMesh
from insertsim.scansim.scanner import (
    CalibrationError,
    ScannerConfig,
    SweepScan,
    linear_sweep,
    sweep_scan,
    sweep_scan_detailed,
)
from insertsim.scansim.sampling import sample_mesh
from insertsim.scansim import io

__all__ = [
    "Box",
    "Cylinder",
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
    "sample_mesh",
    "io",
]
