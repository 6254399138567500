"""Fixed-seed insertion-trial scenarios for the benchmark.

One trial is the paper's loop: sweep_scan -> estimate_pose (against a
prepared reference) -> plan_relative_trajectory -> execute_insertion ->
check_insertion. An open-loop trial skips the scan and the registration and
aims at the nominal hole.

Frames. The scene frame is the robot base frame, and the scanner reports in
it through a fixed calibration error (true sensor = CAL ∘ assumed), so a scan
is the true surface moved by CAL⁻¹. The reference is a model scan of the
plate in its own frame, so estimate_pose returns an estimate of CAL⁻¹ ∘ true.
The tip is expressed in that same assumed frame (CAL⁻¹ ∘ actual tool pose),
so the constant frame error cancels in the relative trajectory. Every trial
is judged against the true hole.

Every library call goes through a module attribute (``scanner.sweep_scan``,
``pipeline.estimate_pose``, ...) so that the tracer can wrap the names the
library itself resolves.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from insertsim.arm import ArmInstance, ArmModel, JointConfig, LimitViolationError, \
    ProprioceptionError, UnreachableTargetError, fk
from insertsim.geom import Pose, pose_compose, quat_distance, quat_from_axis_angle
from insertsim.registration import DegenerateFeatureError, InsufficientCorrespondencesError, \
    RegistrationFailedError, RegistrationParams
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep

scanner = importlib.import_module("insertsim.scansim.scanner")
pipeline = importlib.import_module("insertsim.registration.pipeline")
insertion = importlib.import_module("insertsim.insertion")

HOME = JointConfig(np.array([0.0, -0.5, 0.0, -2.0, 0.0, 1.6, 0.8]))
PLATE_HALF_EXTENTS = (3e-3, 3e-3)
PLATE_THICKNESS = 1e-3
HOLE_SEMI_AXES = (150e-6, 175e-6)   # the NEEDLE hole
HOLE_CENTER = (8e-4, 3e-4)
TIP_RADIUS = 75e-6
STANDOFF = 1e-3                     # tip to hole entry along the HOME tool axis
HORIZON = 25
DURATION = 1.0
MAX_YAW = np.deg2rad(3.0)
MAX_OFFSET = 200e-6
CAL = CalibrationError(Pose(np.array([60e-6, -80e-6, 0.0]),
                            quat_from_axis_angle([0.3, -0.5, 0.8], 2e-3)))
PARAMS = RegistrationParams()
# The reference is the part's model scan, with the same scan noise in every
# trial and seed: a seed-derived reference moved dense trial times by ~30%.
REFERENCE_SEED = 0

# Trial outcomes that count as a failed trial; anything else is a bug.
TRIAL_FAILURES = (RegistrationFailedError, DegenerateFeatureError,
                  InsufficientCorrespondencesError, UnreachableTargetError,
                  LimitViolationError, insertion.DegenerateApproachError)

SCAN_START = Pose.from_axis_angle([0.0, -3.5e-3, 0.03], [1, 0, 0], np.pi)


@dataclass(frozen=True)
class Workload:
    name: str
    corrected: bool
    scanner: ScannerConfig = ScannerConfig()
    sweep_step: float = 25e-6
    profiles: int = 280
    fresh_reference: bool = False   # scan and prepare the reference inside every trial
    hole_range: float = 0.0         # per-trial hole centre drawn within ±range; 0 keeps HOLE_CENTER
    quality_trials: int = 6         # trials 0..n-1 always run; quality is scored on them
    speed_probe: str = "cloud"      # harness.SpeedProbe kind that follows this trial's work

    def sweep(self) -> list[Pose]:
        """Scanner trajectory in the plate frame."""
        return linear_sweep(SCAN_START, [0, 1, 0], self.sweep_step, self.profiles)


WORKLOADS = {
    w.name: w for w in (
        Workload("dense_corrected", corrected=True),
        Workload("sparse_fresh_ref", corrected=True,
                 scanner=ScannerConfig(points_per_profile=512, lateral_resolution=48e-6),
                 sweep_step=100e-6, profiles=70, fresh_reference=True, hole_range=1.2e-3),
        Workload("open_loop", corrected=False, quality_trials=200, speed_probe="arm"),
    )
}


@dataclass(frozen=True)
class Draw:
    """Per-trial random inputs, a pure function of (seed, trial)."""

    yaw: float
    offset: np.ndarray
    hole_center: tuple
    arm_seed: int
    scan_seed: int
    reg_seed: int


def draw(workload: Workload, seed: int, trial: int) -> Draw:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(trial), 0x7121A1]))
    yaw = float(rng.uniform(-MAX_YAW, MAX_YAW))
    offset = rng.uniform(-MAX_OFFSET, MAX_OFFSET, size=2)
    hole = rng.uniform(-workload.hole_range, workload.hole_range, size=2)
    arm_seed, scan_seed, reg_seed = (int(v) for v in rng.integers(0, 2**31, size=3))
    if workload.hole_range == 0.0:
        hole = HOLE_CENTER
    return Draw(yaw, offset, tuple(float(v) for v in hole), arm_seed, scan_seed, reg_seed)


def plate(hole_center) -> HolePlate:
    return HolePlate(PLATE_HALF_EXTENTS, PLATE_THICKNESS, HOLE_SEMI_AXES, hole_center=hole_center)


def tool_axis(p: Pose) -> np.ndarray:
    return p.rotation_matrix()[:, 2]


@dataclass(frozen=True)
class TrialResult:
    trial: int
    failure: str            # exception type name of a failed trial, "" otherwise
    success: bool
    margin: float           # m, signed
    pose_err_m: float       # aimed hole pose vs truth in the frame it was used in
    pose_err_rad: float
    scan_points: int
    estimate: Pose          # hole pose the trajectory aimed at

    def fingerprint(self) -> tuple:
        """Everything the replay check requires to be bit-identical."""
        return (self.failure, self.success, self.margin,
                tuple(self.estimate.position), tuple(self.estimate.orientation))


class OutputCheckError(AssertionError):
    """A trial produced an output that the benchmark rejects as wrong."""


class Bench:
    """Set-up state of one workload: arm model, nominal plate, reference."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        self.model = ArmModel.panda()
        home = fk(self.model, HOME)
        entry = home.position + STANDOFF * tool_axis(home)
        # nominal plate: level in the base frame, hole entry on the tool axis
        self.nominal = Pose(entry - plate(HOLE_CENTER).hole_entry_local, np.array([1.0, 0, 0, 0]))
        self.home_orientation = home.orientation
        self.sweep_local = workload.sweep()
        self.reference = None
        if workload.corrected and not workload.fresh_reference:
            self.reference = self._prepare_reference(HOLE_CENTER)

    def _prepare_reference(self, hole_center):
        """Model scan of the plate in its own frame, without calibration error."""
        scene = Scene([ScenePart("plate", plate(hole_center), Pose.identity())])
        cloud = scanner.sweep_scan(scene, self.sweep_local, self.workload.scanner,
                                   CalibrationError.none(), REFERENCE_SEED)
        if len(cloud) == 0:
            raise OutputCheckError("reference scan is empty")
        return pipeline.prepare_cloud(cloud, PARAMS)

    def run_trial(self, trial: int) -> TrialResult:
        w = self.workload
        d = draw(w, self.seed, trial)
        part = plate(d.hole_center)
        # tool goal in the plate frame: tip on the hole entry, HOME orientation
        # (the nominal plate is level, so its axes are the base axes)
        goal_local = Pose(part.hole_entry_local, self.home_orientation)
        true_pose = pose_compose(self.nominal, Pose(np.array([*d.offset, 0.0]),
                                                    quat_from_axis_angle([0, 0, 1], d.yaw)))
        arm = ArmInstance(self.model, ProprioceptionError.draw(d.arm_seed), HOME)
        cal_inv = CAL.mount_offset.inverse()
        scan_points = 0
        try:
            if w.corrected:
                scene = Scene([ScenePart("plate", part, true_pose)])
                sweep = [pose_compose(self.nominal, p) for p in self.sweep_local]
                cloud = scanner.sweep_scan(scene, sweep, w.scanner, CAL, d.scan_seed)
                scan_points = len(cloud)
                if scan_points == 0:
                    raise OutputCheckError(f"trial {trial}: empty scan")
                ref = self.reference
                if ref is None:
                    ref = self._prepare_reference(d.hole_center)
                try:
                    result = pipeline.estimate_pose(cloud, ref.fine, PARAMS, d.reg_seed,
                                                    ref_prepared=ref)
                except RegistrationFailedError as e:
                    if e.best is None:
                        raise
                    result = e.best
                estimate = result.pose
                _check_estimate(trial, estimate)
                truth = pose_compose(cal_inv, true_pose)
                start = pose_compose(cal_inv, arm.actual)
            else:
                estimate, truth, start = self.nominal, true_pose, arm.reported
            traj = insertion.plan_relative_trajectory(
                start, pose_compose(estimate, goal_local), HORIZON, DURATION)
            final, _ = insertion.execute_insertion(arm, traj, ic_bias=HOME)
            tip = insertion.InsertedObject(final.position, tool_axis(final), TIP_RADIUS)
            hole = insertion.InsertionTarget(
                hole_center=true_pose.transform_point(part.hole_entry_local),
                hole_axis=true_pose.rotate_vector(part.hole_axis_local),
                hole_semi_axes=HOLE_SEMI_AXES,
                major_dir=true_pose.rotate_vector([1.0, 0.0, 0.0]))
            success, margin = insertion.check_insertion(tip, hole)
        except TRIAL_FAILURES as e:
            return TrialResult(trial, type(e).__name__, False, math.nan, math.nan, math.nan,
                               scan_points, Pose.identity())
        if not math.isfinite(margin):
            raise OutputCheckError(f"trial {trial}: margin {margin} is not finite")
        return TrialResult(trial, "", bool(success), float(margin),
                           estimate.translation_to(truth), estimate.rotation_to(truth),
                           scan_points, estimate)


def _check_estimate(trial: int, pose: Pose) -> None:
    q = np.asarray(pose.orientation)
    if not (np.all(np.isfinite(pose.position)) and np.all(np.isfinite(q))):
        raise OutputCheckError(f"trial {trial}: estimated pose is not finite")
    if abs(float(np.linalg.norm(q)) - 1.0) > 1e-9:
        raise OutputCheckError(f"trial {trial}: estimated quaternion is not unit")
    if quat_distance(q, PARAMS.q0) >= PARAMS.rho_rot:
        raise OutputCheckError(f"trial {trial}: estimated orientation is outside the rho_rot gate")
