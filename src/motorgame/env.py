"""The machine design game.

An episode starts from a variant's initial design.  Each of the six
actions nudges one design variable by one lattice step; the surrogate
recomputes the five performance values, each value is flagged -1/0/+1
against its target band, and the reward sums per-flag contributions
weighted by fixed priorities.  The game is won when all flags are zero
and lost when the step cap runs out.

Flag convention: +1 means the value is above its band and must be
decreased, -1 means below and must be increased, 0 means inside.

Three players apply the rule: DesignEnv.step, the spec, with the reward;
EnvPool.step, its array twin, for training; and walk(), without the
reward, for evaluation.  The scalar band test is _flag_code(), and every
reward sum is a read of reward_table().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalog import BaseMachine, MachineVariant, TargetBands
from .errors import ContractViolationError, check_count, is_int
from .surrogate import (
    DesignPoint,
    Performance,
    design_at,
    evaluate,  # not called here; perfbench's traced run patches env.evaluate
    evaluate_grid,
)

FLAG_NAMES = tuple(f.name for f in fields(Performance))
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
_ACTIONS = tuple(Action)  # action index -> Action, faster than Action(index)


def _as_action(action) -> Action:
    """``action`` as an Action: bools and floats are not, though int() takes them."""
    if not is_int(action) or not 0 <= action < NUM_ACTIONS:
        raise ContractViolationError(f"invalid action {action!r}")
    return _ACTIONS[action]


def move(ijk: tuple[int, int, int], action: Action | int,
         shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Lattice index after ``action``; a move off the lattice stays put."""
    axis, delta = ACTION_MOVES[action]
    moved = list(ijk)
    moved[axis] += delta
    return tuple(moved) if 0 <= moved[axis] < shape[axis] else tuple(ijk)


@lru_cache(maxsize=None)
def move_table(shape: tuple[int, int, int]) -> np.ndarray:
    """Read-only (6, points) table of move() on a lattice of ``shape``, its
    points flat in C order: [a, p] is the point action a takes point p to.
    An action moves one axis, so a row is move() along each axis, composed."""
    table = np.empty((NUM_ACTIONS, *shape), dtype=np.min_scalar_type(math.prod(shape) - 1))
    for action, moved in zip(Action, table):
        axes = [[move(tuple(i if d == axis else 0 for d in range(3)), action, shape)[axis]
                 for i in range(n)] for axis, n in enumerate(shape)]
        moved[...] = np.ravel_multi_index(np.ix_(*axes), shape)
    table.setflags(write=False)
    return table.reshape(NUM_ACTIONS, -1)


def flags(perf: Performance, bands: TargetBands) -> tuple[int, int, int, int, int]:
    """Ternary flag per performance value against its inclusive band."""
    return FLAG_ROWS[_flag_code(map(float, perf.as_tuple()), bands.as_tuple()) // 7]


def _flag_code(values: Iterable[float], band_pairs: Iterable[tuple[float, float]]) -> int:
    """Observation code of ``values`` with no previous action, a flag + 1 being
    (v >= lo) + (v > hi); on numpy floats that + is or, so pass Python floats."""
    return sum([w * ((v >= lo) + (v > hi))
                for w, v, (lo, hi) in zip(_CODE_WEIGHTS, values, band_pairs)])


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
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))
        # a tuple of floats: the config hashes, and no caller can change them
        object.__setattr__(self, "priority_weights", tuple(map(float, self.priority_weights)))
        # the one rule that spans fields: the win bonus must dominate any
        # single-step shaping sum
        if self.win_reward < self.right_direction_reward * sum(self.priority_weights):
            raise ContractViolationError("win_reward too small to dominate shaping rewards")

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise a ContractViolationError if ``value`` breaks the rule of
        field ``name`` alone."""
        if name == "max_steps":
            check_count(name, value)
            return
        values = tuple(value) if name == "priority_weights" else (value,)
        if not all(map(math.isfinite, values)):
            raise ContractViolationError("reward values must be finite")
        if name == "priority_weights" and (len(values) != 5 or any(w <= 0 for w in values)):
            raise ContractViolationError("priority_weights must be 5 positive values")
        if (name == "right_direction_reward" and value <= 0
                or name == "wrong_direction_reward" and value >= 0):
            raise ContractViolationError("need right_direction_reward > 0 > wrong_direction_reward")
        if name == "revisit_penalty" and value >= 0:
            raise ContractViolationError("revisit_penalty must be negative")


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
    return reward_table(config)[_reward_index(prev_perf.as_tuple(), new_perf.as_tuple(),
                                              prev_flags, flags(new_perf, bands))]


@lru_cache(maxsize=None)
def reward_table(config: RewardConfig) -> tuple[float, ...]:
    """reward_for()'s 243 sums, each indexed by its per-flag terms (0: none, 1:
    the right direction, 2: the wrong one) as base-3 digits, first flag
    highest, the terms weighted and added in priority order."""
    values = np.array([0.0, config.right_direction_reward, config.wrong_direction_reward])
    table = np.zeros(3 ** 5)
    for weight, terms in zip(config.priority_weights, np.indices((3,) * 5).reshape(5, -1)):
        table += weight * values[terms]
    return tuple(table.tolist())


def _reward_index(prev_values: Iterable[float], values: Iterable[float],
                  prev_flags: Iterable[int], new_flags: Iterable[int]) -> int:
    """reward_table()'s index of a move, its terms found as EnvPool.step finds them."""
    index = 0
    for prev_v, v, prev_f, f in zip(prev_values, values, prev_flags, new_flags):
        right_way = v < prev_v if prev_f > 0 else v > prev_v
        index = 3 * index + (2 - right_way if prev_f else 2 * (f != 0))
    return index


def encode(flag_values: tuple[int, ...], prev_action: Action | int | None) -> np.ndarray:
    """11-vector observation: 5 flag values then a one-hot of the previous
    action (all zeros at episode start)."""
    obs = np.zeros(OBSERVATION_DIM, dtype=np.float64)
    obs[:5] = flag_values
    if prev_action is not None:
        obs[5 + int(prev_action)] = 1.0
    return obs


# Every observation, at its code: 7 * (the flags + 1 as base-3 digits, the
# first flag highest) + (0 without a previous action, else the action + 1).
# The first term is FLAG_CODE_WEIGHTS @ (flags + 1); FLAG_ROWS[code // 7] are the flags.
FLAG_ROWS = tuple(product((-1, 0, 1), repeat=5))
ALL_OBSERVATIONS = np.array([encode(f, a) for f in FLAG_ROWS for a in (None, *Action)])
ALL_OBSERVATIONS.setflags(write=False)
FLAG_CODE_WEIGHTS = 7 * 3 ** np.arange(4, -1, -1)
WIN_CODE = int(FLAG_CODE_WEIGHTS.sum())  # every flag zero, no previous action
_CODE_WEIGHTS = tuple(FLAG_CODE_WEIGHTS.tolist())  # as ints, for scalar codes
TERM_INDEX_WEIGHTS = 3 ** np.arange(4, -1, -1)


@dataclass(frozen=True)
class StepInfo:
    design: DesignPoint
    performance: Performance
    flags: tuple[int, ...]
    cause: str | None   # "win", "truncation", or None while running
    revisit: bool       # landed on an already-visited lattice point
    win: bool


class DesignEnv:
    """Single-episode design game over one machine variant, on the variant's
    machine; a ``base`` given as well must be that machine.

    Each lattice point's design, performance (read from evaluate_grid),
    flags, flag code and revisit StepInfo are found once per episode, on
    the first visit, and read back on any revisit; reset() forgets them.  Observations are
    fresh copies of rows of ALL_OBSERVATIONS.  Not thread-safe; run
    independent instances in parallel instead.
    """

    def __init__(self, variant: MachineVariant, base: BaseMachine | None = None,
                 config: RewardConfig | None = None):
        if base is not None and base != variant.base:
            raise ContractViolationError(
                f"variant belongs to machine {variant.base_id}, got machine {base.id}")
        self.base = base = variant.base
        self.variant = variant
        self.config = config if config is not None else RewardConfig()
        self._values = np.moveaxis(evaluate_grid(base), 0, -1)  # (i, j, k, value)
        self._rewards = reward_table(self.config)
        self._started = False

    # --- read-only episode state ---

    @property
    def index(self) -> tuple[int, int, int]:
        return self._ijk

    @property
    def design(self) -> DesignPoint:
        return self._visited[self._ijk][0]

    @property
    def performance(self) -> Performance:
        return self._visited[self._ijk][1]

    @property
    def flags(self) -> tuple[int, ...]:
        return self._visited[self._ijk][2]

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

    def _point(self, ijk: tuple[int, int, int]) -> tuple:
        """(design, performance, flags, flag code, performance values, the
        StepInfo of a revisit that does not end the episode) of lattice
        point ``ijk``."""
        values = tuple(self._values[ijk].tolist())
        design, perf = design_at(self.base, *ijk), Performance(*values)
        code = _flag_code(values, self.variant.target_bands.as_tuple())
        flag_values = FLAG_ROWS[code // 7]
        return (design, perf, flag_values, code, values,
                StepInfo(design, perf, flag_values, cause=None, revisit=True, win=False))

    def reset(self) -> np.ndarray:
        self._ijk = start = self.variant.start
        # lattice index -> _point(index) of each point this episode
        self._visited = {start: self._point(start)}
        self._steps = 0
        self._done = False
        self._started = True
        return ALL_OBSERVATIONS[self._visited[start][3]].copy()

    def step(self, action: Action | int) -> tuple[np.ndarray, float, bool, StepInfo]:
        if not self._started:
            raise ContractViolationError("step() before reset()")
        if self._done:
            raise ContractViolationError("step() after the episode ended")
        action = _as_action(action)

        _, _, prev_flags, code, prev_values, _ = self._visited[self._ijk]
        # an already-feasible design (only possible before the first move)
        # closes out as a win without moving
        if code != WIN_CODE:
            self._ijk = move(self._ijk, action, self.base.shape)
        point = self._visited.get(self._ijk)
        revisit = point is not None
        if not revisit:
            point = self._visited[self._ijk] = self._point(self._ijk)
        design, perf, flag_values, code, values, revisit_info = point

        win = code == WIN_CODE
        reward = self._rewards[_reward_index(prev_values, values, prev_flags, flag_values)]
        if revisit:
            reward += self.config.revisit_penalty
        if win:
            reward += self.config.win_reward

        self._steps += 1
        self._done = win or self._steps >= self.config.max_steps
        cause = "win" if win else ("truncation" if self._done else None)

        if revisit and cause is None:
            info = revisit_info
        else:
            info = StepInfo(design=design, performance=perf,
                            flags=flag_values, cause=cause, revisit=revisit, win=win)
        return ALL_OBSERVATIONS[code + action + 1].copy(), reward, self._done, info


class EnvPool:
    """A fixed set of design-game episodes held as arrays and stepped together.

    The array twin of DesignEnv for training.  The envs start on the
    variants in order, and step() restarts each finished env at once on
    the next variant, round-robin.  step() applies DesignEnv.step's rule to every
    env with the same float operations in the same order, so an env's
    observations, rewards and episode ends equal, bit for bit, those of
    a DesignEnv given the same variant and actions.

    The lattices of the machines in play lie end to end, and an env's
    state is one point index into them, which also indexes the env's
    visited bitmap.  A (5, points) table holds each point's performance,
    its machine's evaluate_grid laid flat, and a move table the point
    each action leads to: each machine's move_table() at its offset.  An
    env's observation is held as its code, its row of ALL_OBSERVATIONS,
    and _restart() copies its variant's bands into its column.  A step's
    reward_for() sum is one read of reward_table(), as an array.
    """

    def __init__(self, variants: Sequence[MachineVariant], env_count: int,
                 reward_config: RewardConfig | None = None):
        variants = tuple(variants)
        if not variants:
            raise ContractViolationError("need at least one variant")
        check_count("env_count", env_count)
        self.config = cfg = reward_config if reward_config is not None else RewardConfig()
        grids = {m: evaluate_grid(m) for m in dict.fromkeys(v.base for v in variants)}
        self._perf_table = np.concatenate([g.reshape(5, -1) for g in grids.values()], axis=1)
        points = self._perf_table.shape[1]
        # machine -> its first point, a Python int, so adding it keeps a dtype
        offsets = dict(zip(grids, np.cumsum([0] + [g[0].size for g in grids.values()]).tolist()))
        # after[a, p] is the point that action a takes point p to
        dtype = np.min_scalar_type(points - 1)
        self._after = np.concatenate([move_table(m.shape).astype(dtype) + offsets[m]
                                      for m in grids], axis=1)
        # per variant: its start point, band limits and start flags
        self._variants = variants
        self._start = np.array([offsets[v.base] + np.ravel_multi_index(v.start, v.base.shape)
                                for v in variants])
        self._variant_bands = np.array([v.target_bands.as_tuple() for v in variants]).T.copy()
        self._start_flags = self._flags_of(self._perf_table[:, self._start], self._variant_bands)
        self._reward_table = np.array(reward_table(cfg))

        self._rows = np.arange(env_count)
        self._cursor = 0  # how many episodes have been started
        self._variant_ids = np.zeros(env_count, dtype=np.intp)
        self._steps = np.zeros(env_count, dtype=np.intp)
        self._point = np.zeros(env_count, dtype=np.intp)
        self._perf = np.zeros((5, env_count))   # flag-major, as are the flags
        self._flags = np.zeros((5, env_count), dtype=np.int8)
        self._bands = np.zeros((2, 5, env_count))  # (lo/hi, flag, env), as _variant_bands
        self._visited = np.zeros((env_count, -(-points // 64)), dtype=np.int64)
        self._code = np.zeros(env_count, dtype=np.intp)
        self._episode_reward = np.zeros(env_count)
        self._finished: list[tuple[int, float, bool]] = []  # (steps, reward, win)
        self._restart(self._rows)

    @property
    def env_count(self) -> int:
        return len(self._rows)

    @property
    def variants(self) -> tuple[MachineVariant, ...]:
        """The variant each env is playing now."""
        return tuple(self._variants[i] for i in self._variant_ids)

    def codes(self) -> np.ndarray:
        """Each env's observation code, its row of ALL_OBSERVATIONS."""
        return self._code.copy()

    @staticmethod
    def _flags_of(perf: np.ndarray, bands: np.ndarray) -> np.ndarray:
        """Flags, (5, n) int8, of performance (5, n) against (lo/hi, 5, n) bands."""
        return (perf > bands[1]).view(np.int8) - (perf < bands[0])

    def _restart(self, rows: np.ndarray) -> None:
        """Start a new episode in each of the given envs, on the next
        variants round-robin."""
        ids = (self._cursor + np.arange(len(rows))) % len(self._variants)
        self._cursor += len(rows)
        self._variant_ids[rows] = ids
        self._bands[..., rows] = self._variant_bands[..., ids]
        self._point[rows] = point = self._start[ids]
        self._perf[:, rows] = self._perf_table[:, point]
        self._flags[:, rows] = flags = self._start_flags[:, ids]
        self._steps[rows] = 0
        self._visited[rows] = 0
        self._visited[rows, point >> 6] = np.left_shift(1, point & 63)
        self._episode_reward[rows] = 0.0
        self._code[rows] = FLAG_CODE_WEIGHTS @ (flags + 1)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every env by its action, one integer in 0..5 per env,
        and restart the envs whose episode ended.

        Returns (rewards, dones) for the step just taken, dones as float
        0/1; afterwards codes() holds the restarted envs' first
        observations.  Bad actions raise ContractViolationError before any
        env moves.
        """
        actions = np.asarray(actions)
        if (actions.shape != self._rows.shape or actions.dtype.kind not in "iu"
                or actions.min() < 0 or actions.max() >= NUM_ACTIONS):
            raise ContractViolationError(
                f"need {len(self._rows)} integer actions in 0..{NUM_ACTIONS - 1}, "
                f"got {actions.dtype} array of shape {actions.shape}: {actions}")
        cfg, rows = self.config, self._rows

        # an already-feasible env (only possible before its first move)
        # closes out as a win without moving
        prev_perf, prev_flags = self._perf, self._flags
        self._point = point = np.where(self._code != WIN_CODE,
                                       self._after[actions, self._point], self._point)
        self._perf = perf = self._perf_table.take(point, axis=1)
        self._flags = flags = self._flags_of(perf, self._bands)

        # reward_for()'s term per flag as its reward table index digit: 1
        # where a set flag's value moved its way, 0 where a clear flag
        # stays clear, else 2
        right_way = np.where(prev_flags > 0, perf < prev_perf, perf > prev_perf)
        terms = np.where(prev_flags != 0, 2 - right_way, 2 * (flags != 0))
        rewards = self._reward_table[TERM_INDEX_WEIGHTS @ terms]
        word, bit = point >> 6, np.left_shift(1, point & 63)
        visited = self._visited[rows, word]
        self._visited[rows, word] = visited | bit
        flag_code = FLAG_CODE_WEIGHTS @ (flags + 1)
        win = flag_code == WIN_CODE
        rewards[(visited & bit) != 0] += cfg.revisit_penalty
        rewards[win] += cfg.win_reward

        self._steps += 1
        self._episode_reward += rewards
        done = win | (self._steps >= cfg.max_steps)
        self._code[:] = flag_code + actions + 1
        finished = np.flatnonzero(done)
        if finished.size:
            self._finished += zip(self._steps[finished].tolist(),
                                  self._episode_reward[finished].tolist(),
                                  win[finished].tolist())
            self._restart(finished)
        return rewards, done.astype(np.float64)

    def drain_finished(self) -> list[tuple[int, float, bool]]:
        """(steps, total reward, win) of each episode finished since the
        last drain, in the order they ended."""
        out, self._finished = self._finished, []
        return out


def walk(variant: MachineVariant, policies: Iterable[Callable[[int], int]],
         max_steps: int) -> list[tuple[int, bool]]:
    """(steps, win) of one episode per policy under DesignEnv.step's rule,
    without the reward; ``max_steps`` is RewardConfig.max_steps.  Each
    step's action is ``policy(code)``, the code of the observation, its row
    of ALL_OBSERVATIONS.  From variant.start it moves by move_table() over a
    (5, points) view of evaluate_grid and finds each point's flag code with
    _flag_code() once per call."""
    check_count("max_steps", max_steps)
    bands, shape, flag_codes, rows = variant.target_bands.as_tuple(), variant.base.shape, {}, []
    values, after = evaluate_grid(variant.base).reshape(5, -1), move_table(shape)
    start = int(np.ravel_multi_index(variant.start, shape))
    for policy in policies:
        point, action = start, -1  # no previous action
        for steps in range(max_steps + 1):
            if (code := flag_codes.get(point)) is None:
                code = flag_codes[point] = _flag_code(values[:, point].tolist(), bands)
            if (steps and code == WIN_CODE) or steps == max_steps:
                break
            code += action + 1
            action = policy(code)
            if type(action) is not int or not 0 <= action < NUM_ACTIONS:
                action = _as_action(action)  # raises, or makes a numpy integer an Action
            if code != WIN_CODE:  # a feasible start wins without moving
                point = after.item(action, point)
        rows.append((steps, code == WIN_CODE))
    return rows


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
        action = policy(obs)
        obs, reward, done, info = env.step(action)
        total += reward
        if log is not None:
            log(env.steps, Action(action), reward, info)
        if done:
            return EpisodeRecord(steps=env.steps, total_reward=total,
                                 win=info.win, cause=info.cause)
