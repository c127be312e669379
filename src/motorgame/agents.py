"""Non-learning baselines and an exact shortest-path oracle.

The random agent lower-bounds useful behaviour, the greedy agent codifies
the obvious "push the worst flag in the right direction" heuristic, and
the oracle computes the true minimum number of actions to feasibility
for any variant: the L1 distance to the nearest feasible lattice point.
Together they bracket what the trained policy should achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .catalog import BaseMachine, MachineVariant, feasible_mask
from .env import (
    ACTION_MOVES,
    NUM_ACTIONS,
    Action,
    DesignEnv,
    EpisodeRecord,
    RewardConfig,
    move,
    run_episode,
    walk,
)
from .errors import ContractViolationError
from .surrogate import design_at, evaluate


@dataclass(frozen=True)
class OracleResult:
    shortest_steps: int | None  # None: the bands admit no lattice point
    witness: tuple[Action, ...]


_ACTION_OF = {step: a for a, step in ACTION_MOVES.items()}  # (axis, delta) -> Action


def random_agent(env: DesignEnv, rng: np.random.Generator,
                 log=None) -> EpisodeRecord:
    """Uniform random actions until the episode ends."""
    return run_episode(env, lambda obs: int(rng.integers(NUM_ACTIONS)), log)


def _band_violation(value: float, band: tuple[float, float]) -> float:
    lo, hi = band
    return max(value - hi, lo - value, 0.0)


def greedy_agent(env: DesignEnv, log=None) -> EpisodeRecord:
    """Deterministic one-step-lookahead heuristic.

    Each step targets the highest-priority nonzero flag and takes the
    action whose one-step move most reduces that flag's band
    violation; ties go to the lowest action index.  The action depends
    only on the point, so it is chosen once per point per episode and
    reused on a revisit, and a neighbour's performance is evaluated once
    per episode and read back when a later look-ahead needs it again.
    """
    base = env.base
    bands = env.variant.target_bands.as_tuple()
    weights = env.config.priority_weights
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    looked = {}  # lattice index -> performance tuple, this episode
    chosen = {}  # lattice index -> the action taken there, this episode

    def policy(obs: np.ndarray) -> int:
        ijk = env.index
        if ijk in chosen:
            return chosen[ijk]
        flag_values = env.flags
        target = next((i for i in order if flag_values[i] != 0), None)
        if target is None:
            return 0  # already feasible; any action wins
        best_action, best_viol = 0, float("inf")
        for action in range(NUM_ACTIONS):
            near = move(ijk, action, base.shape)
            if near not in looked:
                looked[near] = evaluate(design_at(base, *near), base).as_tuple()
            viol = _band_violation(looked[near][target], bands[target])
            if viol < best_viol:
                best_action, best_viol = action, viol
        chosen[ijk] = best_action
        return best_action

    return run_episode(env, policy, log)


def oracle_shortest(variant: MachineVariant, base: BaseMachine | None = None,
                    ) -> OracleResult:
    """Minimum number of actions to feasibility, with one optimal witness, on
    the variant's machine; a ``base`` given as well must be that machine.

    An action moves one axis by one index, so the fewest actions between
    two points is their L1 distance; an action shortens the least distance
    to a feasible point exactly when a nearest one lies its way.  So the
    lexicographically first shortest path goes axis by axis, in action
    order, up to the highest of the nearest points or, if none lies above
    the start, down to the lowest, and keeps only the ones it reached.
    It reads the feasible points as the mask's flat indices and walks them
    in plain Python: np.argwhere on the 3-D mask costs more than the mask.
    """
    if base is not None and base != variant.base:
        raise ContractViolationError(
            f"variant base {variant.base_id} does not match machine {base.id}")
    mask = feasible_mask(variant.base, variant.target_bands)
    (_, n_turns, n_tooth), (i, j, k) = mask.shape, variant.start
    ahead = [(p // (n_turns * n_tooth) - i, p // n_tooth % n_turns - j, p % n_tooth - k)
             for p in np.flatnonzero(mask).tolist()]
    if not ahead:
        return OracleResult(None, ())
    distance = [abs(a) + abs(b) + abs(c) for a, b, c in ahead]
    least = min(distance)
    ahead = [offsets for offsets, d in zip(ahead, distance) if d == least]
    path = []
    for axis in range(3):
        column = [offsets[axis] for offsets in ahead]
        offset = max(column) if max(column) > 0 else min(column)
        ahead = [offsets for offsets in ahead if offsets[axis] == offset]
        path += [_ACTION_OF[axis, 1 if offset > 0 else -1]] * abs(offset)
    return OracleResult(len(path), tuple(path))


# --- players for ppo.evaluate_agent, which says what rows they return -------


def play_random(variant: MachineVariant, seeds: Iterable[int], config: RewardConfig):
    """random_agent's uniform actions, on env.walk(), with one generator
    per episode seeded from the episode's seed."""
    return walk(variant, (lambda _, rng=np.random.default_rng(seed): int(rng.integers(NUM_ACTIONS))
                          for seed in seeds), config.max_steps)


def play_greedy(variant: MachineVariant, seeds: Iterable[int], config: RewardConfig):
    """greedy_agent draws nothing, so one episode's row stands for every
    episode of the variant."""
    record = greedy_agent(DesignEnv(variant, config=config))
    return [(record.steps, record.win)]


def play_oracle(variant: MachineVariant, seeds: Iterable[int], config: RewardConfig):
    """The oracle's shortest path as the row of every episode, so it bounds every
    agent's steps from below: at least one step, because an episode that
    starts feasible still takes one env step to win.  -1 steps, not won,
    when no feasible point is reachable.  No env is built."""
    steps = oracle_shortest(variant).shortest_steps
    return [(-1, False) if steps is None else (max(1, steps), True)]
