"""The machine design game.

An episode starts from a variant's initial design.  Each of the six
actions nudges one design variable by one lattice step; the surrogate
recomputes the five performance values, each value is flagged -1/0/+1
against its target band, and the reward sums per-flag contributions
weighted by fixed priorities.  The game is won when all flags are zero
and lost when the step cap runs out.

Flag convention: +1 means the value is above its band and must be
decreased, -1 means below and must be increased, 0 means inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable

import numpy as np

from .catalog import BaseMachine, MachineVariant, TargetBands, machine_by_id
from .errors import ContractViolationError
from .surrogate import (
    DesignPoint,
    Performance,
    design_at,
    evaluate,
    lattice_index,
    lattice_shape,
)

FLAG_NAMES = ("b_gap", "t_break", "i_start", "d_temp", "tooth_tip")
DEFAULT_PRIORITY_WEIGHTS = (5.0, 4.0, 3.0, 2.0, 1.0)
OBSERVATION_DIM = 11  # 5 flags + one-hot of the previous action
NUM_ACTIONS = 6


class Action(IntEnum):
    LENGTH_UP = 0
    LENGTH_DOWN = 1
    TURNS_UP = 2
    TURNS_DOWN = 3
    TOOTH_TIP_UP = 4
    TOOTH_TIP_DOWN = 5


# action -> (lattice axis, index delta)
ACTION_MOVES = {
    Action.LENGTH_UP: (0, +1),
    Action.LENGTH_DOWN: (0, -1),
    Action.TURNS_UP: (1, +1),
    Action.TURNS_DOWN: (1, -1),
    Action.TOOTH_TIP_UP: (2, +1),
    Action.TOOTH_TIP_DOWN: (2, -1),
}


def move(ijk: tuple[int, int, int], action: Action | int,
         shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Lattice index after ``action``; a move off the lattice stays put."""
    axis, delta = ACTION_MOVES[action]
    moved = list(ijk)
    moved[axis] += delta
    return tuple(moved) if 0 <= moved[axis] < shape[axis] else tuple(ijk)


def flags(perf: Performance, bands: TargetBands) -> tuple[int, int, int, int, int]:
    """Ternary flag per performance value against its inclusive band."""
    out = []
    for value, (lo, hi) in zip(perf.as_tuple(), bands.as_tuple()):
        if value > hi:
            out.append(1)
        elif value < lo:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def all_flags_zero(flag_values: Iterable[int]) -> bool:
    return all(f == 0 for f in flag_values)


@dataclass(frozen=True)
class RewardConfig:
    right_direction_reward: float = 1.0   # per flag moved the right way
    wrong_direction_reward: float = -1.0  # per flag moved the wrong way (or not at all)
    revisit_penalty: float = -2.0         # landing on a design seen this episode
    win_reward: float = 100.0             # all flags zero
    priority_weights: tuple[float, ...] = DEFAULT_PRIORITY_WEIGHTS
    max_steps: int = 300

    def __post_init__(self):
        if not (self.right_direction_reward > 0 > self.wrong_direction_reward):
            raise ContractViolationError("need right_direction_reward > 0 > wrong_direction_reward")
        if self.revisit_penalty >= 0:
            raise ContractViolationError("revisit_penalty must be negative")
        if len(self.priority_weights) != 5 or any(w <= 0 for w in self.priority_weights):
            raise ContractViolationError("priority_weights must be 5 positive values")
        # the win bonus must dominate any single-step shaping sum
        if self.win_reward < self.right_direction_reward * sum(self.priority_weights):
            raise ContractViolationError("win_reward too small to dominate shaping rewards")
        if self.max_steps < 1:
            raise ContractViolationError("max_steps must be >= 1")


def reward_for(prev_perf: Performance, new_perf: Performance,
               prev_flags: tuple[int, ...], bands: TargetBands,
               config: RewardConfig) -> float:
    """Priority-weighted sum of per-flag direction rewards.

    For a +1 flag the value must strictly decrease, for a -1 flag
    strictly increase; anything else (including no movement) earns the
    wrong-direction reward.  A zero flag contributes nothing while its
    value stays inside the band and the wrong-direction reward if it
    leaves.  The revisit penalty and win bonus are added by step(),
    not here.
    """
    total = 0.0
    for prev_v, new_v, flag, (lo, hi), weight in zip(
            prev_perf.as_tuple(), new_perf.as_tuple(), prev_flags,
            bands.as_tuple(), config.priority_weights):
        if flag == 1:
            r = config.right_direction_reward if new_v < prev_v else config.wrong_direction_reward
        elif flag == -1:
            r = config.right_direction_reward if new_v > prev_v else config.wrong_direction_reward
        else:
            r = 0.0 if lo <= new_v <= hi else config.wrong_direction_reward
        total += weight * r
    return total


def encode(flag_values: tuple[int, ...], prev_action: Action | int | None) -> np.ndarray:
    """11-vector observation: 5 flag values then a one-hot of the previous
    action (all zeros at episode start)."""
    obs = np.zeros(OBSERVATION_DIM, dtype=np.float64)
    obs[:5] = flag_values
    if prev_action is not None:
        obs[5 + int(prev_action)] = 1.0
    return obs


@dataclass(frozen=True)
class StepInfo:
    design: DesignPoint
    performance: Performance
    flags: tuple[int, ...]
    cause: str | None   # "win", "truncation", or None while running
    revisit: bool       # landed on an already-visited lattice point
    win: bool


class DesignEnv:
    """Single-episode design game over one machine variant.

    Not thread-safe; run independent instances in parallel instead.
    """

    def __init__(self, variant: MachineVariant, base: BaseMachine | None = None,
                 config: RewardConfig | None = None):
        if base is None:
            base = machine_by_id(variant.base_id)
        elif base.id != variant.base_id:
            raise ContractViolationError(
                f"variant belongs to machine {variant.base_id}, got machine {base.id}")
        self.base = base
        self.variant = variant
        self.config = config if config is not None else RewardConfig()
        self._shape = lattice_shape(base)
        self._started = False

    # --- read-only episode state ---

    @property
    def index(self) -> tuple[int, int, int]:
        return self._ijk

    @property
    def design(self) -> DesignPoint:
        return design_at(self.base, *self._ijk)

    @property
    def performance(self) -> Performance:
        return self._perf

    @property
    def flags(self) -> tuple[int, ...]:
        return self._flags

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def done(self) -> bool:
        return self._done

    @property
    def visited(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self._visited)

    # --- game mechanics ---

    def reset(self) -> np.ndarray:
        self._ijk = lattice_index(self.base, self.variant.initial_design)
        self._perf = evaluate(self.design, self.base)
        self._flags = flags(self._perf, self.variant.target_bands)
        self._steps = 0
        self._visited = {self._ijk}
        self._done = False
        self._started = True
        return encode(self._flags, None)

    def step(self, action: Action | int) -> tuple[np.ndarray, float, bool, StepInfo]:
        if not self._started:
            raise ContractViolationError("step() before reset()")
        if self._done:
            raise ContractViolationError("step() after the episode ended")
        try:
            action = Action(int(action))
        except ValueError:
            raise ContractViolationError(f"invalid action {action!r}") from None

        # an already-feasible design (only possible before the first
        # move) closes out as a win without moving
        new_ijk = (self._ijk if all_flags_zero(self._flags)
                   else move(self._ijk, action, self._shape))

        prev_perf, prev_flags = self._perf, self._flags
        self._ijk = new_ijk
        design = self.design
        self._perf = evaluate(design, self.base)
        self._flags = flags(self._perf, self.variant.target_bands)

        revisit = new_ijk in self._visited
        win = all_flags_zero(self._flags)
        reward = reward_for(prev_perf, self._perf, prev_flags,
                            self.variant.target_bands, self.config)
        if revisit:
            reward += self.config.revisit_penalty
        if win:
            reward += self.config.win_reward

        self._visited.add(new_ijk)
        self._steps += 1
        self._done = win or self._steps >= self.config.max_steps
        cause = "win" if win else ("truncation" if self._done else None)

        info = StepInfo(design=design, performance=self._perf,
                        flags=self._flags, cause=cause, revisit=revisit, win=win)
        return encode(self._flags, action), reward, self._done, info


@dataclass(frozen=True)
class EpisodeRecord:
    steps: int
    total_reward: float
    win: bool
    cause: str


def run_episode(env: DesignEnv, policy: Callable[[np.ndarray], int],
                log: Callable[[int, Action, float, StepInfo], None] | None = None,
                ) -> EpisodeRecord:
    """Reset the env and play one episode with ``policy(obs) -> action``."""
    obs = env.reset()
    total = 0.0
    while True:
        action = Action(int(policy(obs)))
        obs, reward, done, info = env.step(action)
        total += reward
        if log is not None:
            log(env.steps, action, reward, info)
        if done:
            return EpisodeRecord(steps=env.steps, total_reward=total,
                                 win=info.win, cause=info.cause)


def format_step_record(episode: int, step: int, action: Action, reward: float,
                       info: StepInfo) -> str:
    """One line-delimited log record per step; floats keep full precision."""
    p = info.performance
    flag_text = ",".join(str(f) for f in info.flags)
    return (
        f"episode={episode} step={step} "
        f"length={info.design.length!r} turns={info.design.turns} "
        f"tooth_tip={info.design.tooth_tip!r} "
        f"b_gap={p.b_gap!r} t_break={p.t_break!r} i_start={p.i_start!r} "
        f"d_temp={p.d_temp!r} "
        f"flags={flag_text} action={int(action)} reward={reward!r} "
        f"cause={info.cause or '-'}"
    )
