"""Proprioception error model: fixed joint biases plus repeatability noise.

Accuracy and repeatability are separated deliberately. The bias vector is
drawn once per arm instance and never changes (systematic accuracy error);
because it lives in joint space it projects through the Jacobian differently
at different insertion configurations, so reaching the same commanded pose
from a rotated configuration lands somewhere else.

Repeatability is a stationary Gaussian joint-space state with marginal std
REPEAT_STD that decorrelates with commanded motion amplitude: a large
motion redraws it almost fully, while micro-motions (the low-amplitude
corrective waypoints) mostly preserve the current mechanical state. That is
the hysteresis-like behavior that makes measure-then-correct effective even
though full-workspace repeats scatter at the datasheet level.
"""

from __future__ import annotations

import math

import numpy as np

from insertsim.geom import Pose
from insertsim.arm.model import ArmModel, JointConfig, fk

BIAS_STD = 8e-4             # rad, std of the drawn joint biases
REPEAT_STD = 5e-5           # rad, stationary std per joint; zero gives a perfectly repeatable arm
DECORRELATION_SCALE = 0.2   # rad of joint travel for ~1/e state renewal
BASE_DECORRELATION = 2e-4   # rad, renewal floor per motion (settling, thermal)


class ProprioceptionError:
    """Holds the per-arm bias and the seeded repeatability noise state."""

    def __init__(self, joint_bias, seed: int):
        self.joint_bias = np.asarray(joint_bias, dtype=np.float64).copy()
        if self.joint_bias.shape != (7,) or not np.all(np.isfinite(self.joint_bias)):
            raise ValueError("joint_bias must have 7 finite entries")
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x4015E]))
        self._state = np.zeros(7)  # the first draw, at amplitude inf, replaces it

    @classmethod
    def draw(cls, seed: int) -> "ProprioceptionError":
        bias_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB1A5]))
        return cls(bias_rng.normal(scale=BIAS_STD, size=7), seed)

    def next_noise(self, motion_amplitude: float) -> np.ndarray:
        """Advance the repeatability state for one commanded motion.

        `motion_amplitude` is the joint-space travel (rad); inf means a
        large, fully decorrelating motion: exp(-inf) = 0, so the state
        becomes the fresh draw exactly. NaN is refused before anything is
        drawn, so the state and the generator stay as they were.
        The marginal distribution of the returned state is
        N(0, REPEAT_STD^2) per joint regardless of the motion history.
        """
        if math.isnan(motion_amplitude):
            raise ValueError("motion_amplitude must not be NaN")
        travel = abs(float(motion_amplitude)) + BASE_DECORRELATION
        rho = float(np.exp(-travel / DECORRELATION_SCALE))
        fresh = self._noise_rng.normal(scale=REPEAT_STD, size=7)
        self._state = rho * self._state + np.sqrt(1.0 - rho * rho) * fresh
        return self._state.copy()


def execute_motion(model: ArmModel, err: ProprioceptionError, commanded: JointConfig,
                   previous: JointConfig = None) -> tuple[Pose, Pose]:
    """Run one motion; returns (reported, actual) end-effector poses.

    `reported` is what the robot believes (fk of the commanded joints);
    `actual` is ground truth after bias and the repeatability draw. Without
    `previous` the motion counts as large and the noise state is redrawn.
    """
    model.check_limits(commanded)
    amplitude = math.inf
    if previous is not None:
        amplitude = float(np.linalg.norm(commanded.angles - previous.angles))
    actual_q = commanded.angles + err.joint_bias + err.next_noise(amplitude)
    reported = fk(model, commanded)
    actual = fk(model, JointConfig(actual_q))
    return reported, actual


class ArmInstance:
    """One arm in one simulation trial: model, error state, current state."""

    def __init__(self, model: ArmModel, error: ProprioceptionError, initial: JointConfig):
        self.model = model
        self.error = error
        self.commanded = initial
        self.reported, self.actual = execute_motion(model, error, initial)

    def move_to(self, commanded: JointConfig) -> tuple[Pose, Pose]:
        previous = self.commanded
        self.commanded = commanded
        self.reported, self.actual = execute_motion(self.model, self.error, commanded,
                                                    previous=previous)
        return self.reported, self.actual
