"""PPO-clip trainer for the design game.

Rollouts are collected from a pool of environments that cycle round-robin
through the training variants, advantages come from generalized advantage
estimation, and updates maximize the clipped surrogate with hand-derived
logit gradients fed through the dense kernel's exact backprop.  All
randomness flows from the Hyperparams seed through arithmetic stream
derivation, so training, resuming, and evaluation are bit-reproducible.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import socket
import weakref
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalog import BaseMachine, MachineVariant
from .env import ALL_OBSERVATIONS, NUM_ACTIONS, OBSERVATION_DIM, EnvPool, RewardConfig, walk
from .errors import (
    ContractViolationError,
    TextFormatError,
    TrainingDivergedError,
    check_count,
    is_int,
)
from .kvtext import (
    check_layout,
    format_array,
    format_value,
    parse_array,
    parse_field,
    read_sections,
    write_text,
)
from .neural import (
    AdamState,
    Categorical,
    MlpParams,
    adam_step,
    backward,
    clip_grad_norm,
    forward,
    init,
)

CHECKPOINT_VERSION_LINE = "motor-design-ckpt v2"

ACTOR_SIZES = (OBSERVATION_DIM, 64, 64, NUM_ACTIONS)
CRITIC_SIZES = (OBSERVATION_DIM, 64, 64, 1)

GRAD_CLIP_NORM = 0.5
EVAL_MODES = ("stochastic", "argmax")
_EVAL_POLICIES = weakref.WeakKeyDictionary()  # actor -> (its flat, argmax actions, CDF rows)

# Reference mean winning step counts for the three stock machines, used
# for side-by-side evaluation reports.
REFERENCE_MEAN_STEPS = {1: 11.0, 2: 12.0, 3: 5.0}


def derive_seed(*parts: int) -> int:
    """Mix integers into a nonnegative 63-bit seed (pure arithmetic,
    stable across platforms and runs)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 % 2**64
        h ^= h >> 31
    return h % 2**63


@dataclass(frozen=True)
class Hyperparams:
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 64
    horizon: int = 1024
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    total_steps: int = 400_000
    env_count: int = 8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            self.check_field(f.name, value)
            if f.type == "float":
                # held as a float, so a checkpoint writes the value it loads back
                object.__setattr__(self, f.name, float(value))

    @classmethod
    def check_field(cls, name: str, value) -> None:
        """Raise a ContractViolationError if ``value`` breaks the rule of
        field ``name``; no rule spans fields."""
        kind = {f.name: f.type for f in fields(cls)}[name]
        if kind == "float" and not math.isfinite(value):
            raise ContractViolationError(f"{name} {value} is not finite")
        if name == "seed" and not is_int(value):
            raise ContractViolationError(f"seed must be an integer, got {value!r}")
        if kind == "int" and name != "seed":
            check_count(name, value)
        if name == "discount" and not 0.0 < value <= 1.0:
            raise ContractViolationError(f"discount {value} outside (0, 1]")
        if name == "gae_lambda" and not 0.0 <= value <= 1.0:
            raise ContractViolationError(f"gae_lambda {value} outside [0, 1]")
        if name in ("clip_ratio", "learning_rate") and value <= 0.0:
            raise ContractViolationError(f"{name} {value} must be > 0")
        if name in ("value_coef", "entropy_coef") and value < 0.0:
            raise ContractViolationError(f"{name} {value} must be >= 0")


@dataclass
class RolloutBuffer:
    """Struct-of-arrays rollout storage, time-major (horizon, env_count)."""

    codes: np.ndarray         # (T, E) observation codes, rows of ALL_OBSERVATIONS
    actions: np.ndarray       # (T, E) int
    log_probs: np.ndarray     # (T, E)
    rewards: np.ndarray       # (T, E)
    values: np.ndarray        # (T, E)
    dones: np.ndarray         # (T, E) float 0/1
    bootstrap: np.ndarray     # (E,) value of the observation after the last step

    def __len__(self) -> int:
        return int(self.rewards.size)


def collect_rollout(pool: EnvPool, actor: MlpParams, critic: MlpParams,
                    horizon: int, rng: np.random.Generator) -> RolloutBuffer:
    """Gather horizon steps from every env in the pool under the frozen actor
    and critic: each net runs once on ALL_OBSERVATIONS, a step samples the
    rows of the pool's observation codes from the actor's Categorical, and
    the log-probs and values of all steps are read after the loop."""
    check_count("horizon", horizon)
    policy = Categorical(forward(actor, ALL_OBSERVATIONS)[0])
    table_values = forward(critic, ALL_OBSERVATIONS)[0][:, 0]
    shape = (horizon, pool.env_count)
    codes, actions = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=np.intp)
    rewards, dones = np.zeros(shape), np.zeros(shape)

    for t in range(horizon):
        codes[t] = code = pool.codes()
        actions[t] = act = policy.sample(rng, code)
        rewards[t], dones[t] = pool.step(act)

    return RolloutBuffer(codes, actions, policy.logits_log_probs[codes, actions], rewards,
                         table_values[codes], dones, table_values[pool.codes()])


def gae(rewards, values, dones, bootstrap, discount: float, gae_lambda: float,
        ) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation.

    delta_t = r_t + discount * V_{t+1} * (1 - done_t) - V_t
    A_t     = delta_t + discount * gae_lambda * (1 - done_t) * A_{t+1}
    returns = advantages + values

    Accepts 1-D sequences or time-major (T, E) arrays; ``bootstrap`` is
    the value after the final step (scalar or (E,)), ignored wherever
    done_t is set.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ContractViolationError("rewards/values/dones shapes differ")
    advantages = np.zeros_like(rewards)
    next_value = np.asarray(bootstrap, dtype=np.float64)
    running = np.zeros_like(next_value)
    for t in range(rewards.shape[0] - 1, -1, -1):
        mask = 1.0 - dones[t]
        delta = rewards[t] + discount * next_value * mask - values[t]
        running = delta + discount * gae_lambda * mask * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance rescaling with an epsilon guard."""
    advantages = np.asarray(advantages, dtype=np.float64)
    return (advantages - advantages.mean()) / (advantages.std() + 1e-8)


def explained_variance(values: np.ndarray, returns: np.ndarray) -> float:
    """1 - Var(returns - values) / Var(returns) over the whole rollout: 1
    for a critic that predicts every return, 0 for one no better than the
    mean return; NaN when the returns do not vary."""
    var_returns = np.var(returns)
    if var_returns == 0.0:
        return float("nan")
    return float(1.0 - np.var(returns - values) / var_returns)


def clipped_objective(ratio, advantage, clip_ratio: float):
    """Per-sample PPO surrogate: min(ratio * A, clip(ratio) * A)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    advantage = np.asarray(advantage, dtype=np.float64)
    unclipped = ratio * advantage
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * advantage
    return np.minimum(unclipped, clipped)


@dataclass(frozen=True)
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_norm: float   # mean actor gradient norm before clipping
    approx_kl: float   # mean over minibatches of mean(old - new log-prob)


def _epochs(codes: np.ndarray, hyper: Hyperparams, rng: np.random.Generator):
    """Per epoch, ``rng``'s permutation of the batch ``codes`` and, per
    minibatch (the last may be short), its slice of the permutation, the
    forward rows (its distinct observations, in code order) and each
    sample's slot, its code's row among them."""
    batch, size, n_codes = len(codes), hyper.minibatch_size, len(ALL_OBSERVATIONS)
    starts = range(0, batch, size)
    row_minibatch = np.arange(batch) // size  # in epoch order
    for _ in range(hyper.epochs):
        perm = rng.permutation(batch)
        # one sorted key per (minibatch, code): minibatch k's distinct codes,
        # in code order, are distinct_codes[bounds[k]:bounds[k + 1]], and a
        # row's slot is its code's index among them
        keys, slots = np.unique(row_minibatch * n_codes + codes[perm], return_inverse=True)
        bounds = np.searchsorted(keys, np.arange(len(starts) + 1) * n_codes)
        slots -= bounds[row_minibatch]
        distinct_codes = keys % n_codes
        yield perm, [(slice(start, start + size), slots[start:start + size],
                      ALL_OBSERVATIONS[distinct_codes[bounds[k]:bounds[k + 1]]])
                     for k, start in enumerate(starts)]


def _critic_loss(critic: MlpParams, distinct: np.ndarray, slots: np.ndarray,
                 returns: np.ndarray, value_coef: float, grads: MlpParams) -> float:
    """A minibatch's value loss, the mean squared error of the critic's
    values (rows ``slots`` of its output on ``distinct``) to ``returns``;
    its gradient, times value_coef and norm-clipped, goes to ``grads``."""
    b = len(slots)
    vals, cache = forward(critic, distinct)
    err = vals[slots, 0] - returns
    # bincount adds its weights in input order, so each distinct row gets
    # its samples' gradients summed in sample order
    value_grad = np.bincount(slots, weights=(2.0 * value_coef / b) * err,
                             minlength=len(distinct))
    backward(critic, cache, value_grad[:, None], grads)
    clip_grad_norm(grads, GRAD_CLIP_NORM)
    return float((err * err).sum() / b)


class CriticWorker:
    """A forked process that runs _critic_loss for ppo_update's minibatches
    while the parent runs the actor's.  The parent publishes the critic in
    an anonymous mapping that both share and reads the loss and gradient
    back from it; an update's inputs go over a socket in one message, then
    a minibatch costs one byte each way.  A dead worker is an OSError."""

    def __init__(self, critic: MlpParams):
        n = critic.flat.size
        shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * n + 1)))  # params, grads, loss
        self._params, self._grads, self._loss = shared[:n], shared[n:2 * n], shared[2 * n:]
        self._socket, theirs = socket.socketpair()
        try:
            self.pid = os.fork()
        except BaseException:
            self._socket.close()
            theirs.close()
            raise
        if self.pid == 0:  # the worker never returns into the caller's frames
            status = 1
            try:
                self._socket.close()  # so that the parent's close is an end of file here
                self._serve(theirs, MlpParams(critic.sizes))
                status = 0
            finally:
                os._exit(status)
        theirs.close()

    def _serve(self, sock: socket.socket, critic: MlpParams) -> None:
        grads, inbox = MlpParams(critic.sizes), sock.makefile("rb")
        while True:
            try:
                codes, returns, hyper, rng = pickle.load(inbox)
            except EOFError:  # the parent closed its end
                return
            for perm, minibatches in _epochs(codes, hyper, rng):
                ep_returns = returns[perm]
                for mb, slots, distinct in minibatches:
                    if not inbox.read(1):
                        return
                    critic.flat[:] = self._params
                    self._loss[0] = _critic_loss(critic, distinct, slots, ep_returns[mb],
                                                 hyper.value_coef, grads)
                    self._grads[:] = grads.flat
                    sock.send(b"\0")

    def begin(self, codes, returns, hyper: Hyperparams, rng: np.random.Generator) -> None:
        """Send an update's inputs, before ``rng`` lays out its epochs."""
        self._socket.sendall(pickle.dumps((codes, returns, hyper, rng)))

    def start(self, critic: MlpParams) -> None:
        """Publish the critic and start the next minibatch."""
        self._params[:] = critic.flat
        self._socket.send(b"\0")

    def finish(self, grads: MlpParams) -> float:
        """The minibatch's value loss; its gradient goes to ``grads``."""
        if not self._socket.recv(1):
            raise OSError(f"critic worker {self.pid} exited")
        grads.flat[:] = self._grads
        return float(self._loss[0])

    def __enter__(self) -> "CriticWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self._socket.close()  # the worker reads the end of its input and exits
        os.waitpid(self.pid, 0)


def _worker_can_run() -> bool:
    """Whether train forks a CriticWorker: os.fork exists, 2 CPUs are
    allowed, and there is one OS thread (BLAS on one thread), as a fork
    can copy a lock another thread holds (Python 3.12+ warns)."""
    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):  # no affinity call, or no /proc
        return False


def ppo_update(actor: MlpParams, critic: MlpParams,
               actor_opt: AdamState, critic_opt: AdamState,
               buffer: RolloutBuffer, advantages: np.ndarray, returns: np.ndarray,
               hyper: Hyperparams, rng: np.random.Generator,
               worker: CriticWorker | None = None) -> UpdateStats:
    """One PPO update: epochs of shuffled minibatches over the buffer and its gae().

    The policy gradient with respect to the actor logits is hand-derived:
    for the unclipped branch d(ratio)/dz_j = ratio * (onehot_j - p_j),
    the clipped branch is flat, and the entropy bonus contributes
    p_j * (log p_j + H) per sample.  The critic follows the squared-error
    gradient to the returns.  Both nets are norm-clipped then Adam-stepped.
    Each net runs once per distinct observation in a minibatch (see
    _epochs), and the samples' logit and value gradients are summed into
    their code's row, in sample order, before backward.  With a
    ``worker``, the critic's _critic_loss runs there, and the Adam steps,
    checks and statistics here, with the same bits; after a raise, the
    worker must be closed.
    """
    if len(buffer) == 0:
        raise ContractViolationError("empty rollout buffer")

    batch = len(buffer)
    codes = buffer.codes.reshape(batch)
    acts = buffer.actions.reshape(batch)
    old_log_probs = buffer.log_probs.reshape(batch)
    advantages = normalize_advantages(advantages.reshape(batch))
    returns = returns.reshape(batch)
    onehots, action_index = np.eye(NUM_ACTIONS), np.arange(NUM_ACTIONS)
    # backward overwrites these on every minibatch
    actor_grads, critic_grads = MlpParams(actor.sizes), MlpParams(critic.sizes)
    if worker is not None:
        worker.begin(codes, returns, hyper, rng)

    rows = []  # one UpdateStats row per minibatch
    for perm, minibatches in _epochs(codes, hyper, rng):
        # gathered once per epoch; each minibatch is a contiguous slice
        ep_acts, ep_old_log_probs, ep_adv, ep_returns = (
            acts[perm], old_log_probs[perm], advantages[perm], returns[perm])
        for mb, slots, distinct in minibatches:
            if worker is not None:
                worker.start(critic)
            mb_acts, mb_adv = ep_acts[mb], ep_adv[mb]
            mb_old_log_prob = ep_old_log_probs[mb]
            b = len(mb_acts)

            logits, actor_cache = forward(actor, distinct)
            dist = Categorical(logits)
            probs, log_probs = dist.probs, dist.logits_log_probs
            entropy = dist.entropy()
            new_log_prob = log_probs[slots, mb_acts]
            mb_entropy = entropy[slots]

            # means as sum / b: the arithmetic np.mean does, without its wrapper
            ratio = np.exp(new_log_prob - mb_old_log_prob)
            objective = clipped_objective(ratio, mb_adv, hyper.clip_ratio)
            policy_loss = -float(objective.sum() / b)
            entropy_mean = float(mb_entropy.sum() / b)
            clip_frac = float((np.abs(ratio - 1.0) > hyper.clip_ratio).sum() / b)

            # flat clipped branch: gradient flows only where min() picked
            # the unclipped term
            live = (ratio * mb_adv == objective).astype(np.float64)
            coeff = -(live * mb_adv * ratio) / b
            logit_grad = coeff[:, None] * (onehots[mb_acts] - probs[slots])
            # the entropy term is the same for every row of one code
            logit_grad += ((hyper.entropy_coef / b) * probs * (
                log_probs + entropy[:, None]))[slots]
            # summed per distinct row as in _critic_loss; an entry's bin is
            # its row's slot and its action
            bins = slots[:, None] * NUM_ACTIONS + action_index
            distinct_logit_grad = np.bincount(
                bins.ravel(), weights=logit_grad.ravel(),
                minlength=len(distinct) * NUM_ACTIONS).reshape(-1, NUM_ACTIONS)
            backward(actor, actor_cache, distinct_logit_grad, actor_grads)
            norm = clip_grad_norm(actor_grads, GRAD_CLIP_NORM)

            value_loss = (worker.finish(critic_grads) if worker is not None else _critic_loss(
                critic, distinct, slots, ep_returns[mb], hyper.value_coef, critic_grads))
            total = policy_loss + hyper.value_coef * value_loss \
                - hyper.entropy_coef * entropy_mean
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite loss (policy={policy_loss!r}, "
                    f"value={value_loss!r}, entropy={entropy_mean!r})")

            adam_step(actor, actor_grads, actor_opt, hyper.learning_rate)
            adam_step(critic, critic_grads, critic_opt, hyper.learning_rate)

            rows.append((policy_loss, value_loss, entropy_mean, clip_frac, norm,
                         float((mb_old_log_prob - new_log_prob).sum() / b)))

    return UpdateStats(*(float(np.mean(column)) for column in zip(*rows)))


@dataclass(frozen=True)
class UpdateRow:
    update: int
    env_steps: int
    episodes: int
    mean_episode_reward: float
    win_rate: float
    mean_winning_steps: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    grad_norm: float
    approx_kl: float
    explained_variance: float  # of the critic on this update's rollout

    def as_line(self) -> str:
        return " ".join(f"{f.name}={format_value(getattr(self, f.name))}"
                        for f in fields(self))


@dataclass
class TrainReport:
    rows: list[UpdateRow] = field(default_factory=list)


@dataclass
class Checkpoint:
    actor: MlpParams
    critic: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState
    hyper: Hyperparams
    update_index: int = 0
    env_steps: int = 0


def new_checkpoint(hyper: Hyperparams) -> Checkpoint:
    actor = init(ACTOR_SIZES, derive_seed(hyper.seed, 1))
    critic = init(CRITIC_SIZES, derive_seed(hyper.seed, 2))
    return Checkpoint(
        actor=actor, critic=critic,
        actor_opt=AdamState.for_params(actor),
        critic_opt=AdamState.for_params(critic),
        hyper=hyper)


def train(variants: Sequence[MachineVariant], hyper: Hyperparams,
          reward_config: RewardConfig | None = None,
          checkpoint: Checkpoint | None = None,
          progress: Callable[[UpdateRow], None] | None = None,
          ) -> tuple[Checkpoint, TrainReport]:
    """Run collect/update cycles until hyper.total_steps env steps.

    Deterministic in hyper.seed: every RNG stream is derived from it and
    the update index.  Resuming from a checkpoint continues the update
    numbering and RNG streams, but does not yet reproduce an uninterrupted
    run: the env.EnvPool's arrays are not checkpointed, so its episodes,
    episode rewards and round-robin cursor restart.  Each update's row
    goes to ``progress`` as it is made, and into the returned report.

    The pool steps all its envs as one array operation and restarts
    finished episodes within that step, so ``hyper.env_count`` is cheap
    to raise: the cost per env step falls as the pool grows.
    Where _worker_can_run(), a CriticWorker runs the critic's minibatch
    gradients on a second core, with the same bits, and has exited when
    train returns or raises.
    """
    if not variants:
        raise ContractViolationError("need at least one training variant")
    ckpt = checkpoint if checkpoint is not None else new_checkpoint(hyper)
    if checkpoint is not None:
        hyper = ckpt.hyper
    pool = EnvPool(variants, hyper.env_count, reward_config)
    report = TrainReport()
    steps_per_update = hyper.horizon * hyper.env_count

    with CriticWorker(ckpt.critic) if _worker_can_run() else nullcontext() as worker:
        while ckpt.env_steps < hyper.total_steps:
            update_index = ckpt.update_index
            rollout_rng = np.random.default_rng(derive_seed(hyper.seed, 3, update_index))
            shuffle_rng = np.random.default_rng(derive_seed(hyper.seed, 4, update_index))

            buf = collect_rollout(pool, ckpt.actor, ckpt.critic, hyper.horizon, rollout_rng)
            advantages, returns = gae(buf.rewards, buf.values, buf.dones, buf.bootstrap,
                                      hyper.discount, hyper.gae_lambda)
            critic_fit = explained_variance(buf.values, returns)
            try:
                stats = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt, ckpt.critic_opt,
                                   buf, advantages, returns, hyper, shuffle_rng, worker)
            except TrainingDivergedError as exc:
                exc.update_index = update_index
                raise

            del buf, advantages, returns  # spent: freed before the next rollout
            ckpt.update_index = update_index + 1
            ckpt.env_steps += steps_per_update

            finished = pool.drain_finished()
            wins = [steps for steps, _, win in finished if win]
            row = UpdateRow(
                update=ckpt.update_index,
                env_steps=ckpt.env_steps,
                episodes=len(finished),
                mean_episode_reward=(float(np.mean([r for _, r, _ in finished]))
                                     if finished else float("nan")),
                win_rate=len(wins) / len(finished) if finished else float("nan"),
                mean_winning_steps=float(np.mean(wins)) if wins else float("nan"),
                **asdict(stats),
                explained_variance=critic_fit,
            )
            report.rows.append(row)
            if progress is not None:
                progress(row)
    return ckpt, report


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeRow:
    machine_id: int
    variant_seed: int
    episode: int
    steps: int
    win: bool


@dataclass(frozen=True)
class MachineEval:
    machine: BaseMachine
    episodes: int
    wins: int
    win_rate: float
    mean_winning_steps: float  # nan when no wins
    mean_steps_all: float      # losses counted at their full step count


@dataclass
class EvalReport:
    mode: str
    episodes_per_variant: int
    per_machine: dict[int, MachineEval]
    rows: list[EpisodeRow]


def evaluate_agent(play: Callable[..., Iterable[tuple[int, bool]]],
                   variants: Sequence[MachineVariant], episodes_per_variant: int,
                   mode: str, seed: int = 0,
                   reward_config: RewardConfig | None = None) -> EvalReport:
    """Play every variant ``episodes_per_variant`` times and summarize the
    episodes per base machine.

    ``play(variant, seeds, config)`` yields (steps, win) per episode seed,
    which is derived from (seed, variant seed, episode), so a variant's
    episodes do not depend on the other variants.  A player that draws
    nothing yields one row for every episode and derives no seed; any
    other row count is a ContractViolationError.  Mean steps are computed
    over winning episodes; losses show up in the win rate and in
    mean_steps_all.  The summary is keyed by machine id, so two different
    machines that share an id are rejected.
    """
    check_count("episodes_per_variant", episodes_per_variant)
    config = reward_config or RewardConfig()
    machines = {}
    for variant in variants:
        if machines.setdefault(variant.base_id, variant.base) != variant.base:
            raise ContractViolationError(
                f"two different machines share id {variant.base_id}")
    rows: list[EpisodeRow] = []
    for variant in variants:
        seeds = (derive_seed(seed, variant.variant_seed, ep) for ep in range(episodes_per_variant))
        played = list(play(variant, seeds, config))
        if len(played) not in (1, episodes_per_variant):
            raise ContractViolationError(
                f"player gave {len(played)} rows for variant {variant.variant_seed} of machine "
                f"{variant.base_id}, not 1 or episodes_per_variant {episodes_per_variant}")
        for steps, win in played * episodes_per_variant if len(played) == 1 else played:
            rows.append(EpisodeRow(variant.base_id, variant.variant_seed, len(rows), steps, win))

    per_machine = {}
    for machine_id, machine in sorted(machines.items()):
        machine_rows = [r for r in rows if r.machine_id == machine_id]
        wins = [r.steps for r in machine_rows if r.win]
        per_machine[machine_id] = MachineEval(
            machine=machine,
            episodes=len(machine_rows),
            wins=len(wins),
            win_rate=len(wins) / len(machine_rows),
            mean_winning_steps=float(np.mean(wins)) if wins else float("nan"),
            mean_steps_all=float(np.mean([r.steps for r in machine_rows])),
        )
    return EvalReport(mode=mode, episodes_per_variant=episodes_per_variant,
                      per_machine=per_machine, rows=rows)


def evaluate(actor: MlpParams, variants: Sequence[MachineVariant],
             episodes_per_variant: int = 20, mode: str = "stochastic",
             seed: int = 0, reward_config: RewardConfig | None = None,
             ) -> EvalReport:
    """Frozen-policy evaluation grouped per base machine (see evaluate_agent).

    One forward per actor value gives, cached for the actor, each
    observation code's highest-logit action and Categorical CDF row.
    Mode "argmax" takes that action and draws nothing, so it plays one
    episode per variant; mode "stochastic" samples (deterministic in
    seed), bisecting one ``rng.random()`` per step into the CDF row.  The
    episodes are env.walk()'s, so ``reward_config`` counts only through
    max_steps.
    """
    if mode not in EVAL_MODES:
        raise ContractViolationError(f"unknown evaluation mode {mode!r}")
    if not np.array_equal(_EVAL_POLICIES.get(actor, (None,))[0], actor.flat):
        _EVAL_POLICIES.pop(actor, None)  # freed before the next build
        logits = forward(actor, ALL_OBSERVATIONS)[0]
        _EVAL_POLICIES[actor] = (actor.flat.copy(), logits.argmax(axis=-1).tolist(),
                                 Categorical(logits).cdf.tolist())
    rows = _EVAL_POLICIES[actor][1 if mode == "argmax" else 2]  # per code

    def play(variant, seeds, config):
        if mode == "argmax":  # one row for every episode
            return walk(variant, [rows.__getitem__], config.max_steps)
        return walk(variant, (lambda code, rng=np.random.default_rng(s): bisect_left(
            rows[code], rng.random()) for s in seeds), config.max_steps)

    return evaluate_agent(play, variants, episodes_per_variant, mode, seed, reward_config)


def format_eval_table(report: EvalReport, label: str = "policy") -> str:
    """Side-by-side table: our mean winning steps next to the reference
    step counts for the stock machines."""
    lines = [f"{'machine':>7} {'power_kw':>9} {'voltage_v':>9} "
             f"{'win_rate':>8} {'mean_steps':>10} {'ref_steps':>9} {'mean_all':>9}"]
    for machine_id, stats in sorted(report.per_machine.items()):
        base = stats.machine
        ref = REFERENCE_MEAN_STEPS.get(machine_id)
        lines.append(
            f"{machine_id:>7d} {base.rated_power:>9.0f} {base.line_voltage:>9.0f} "
            f"{stats.win_rate:>8.3f} {stats.mean_winning_steps:>10.2f} "
            f"{(f'{ref:.1f}' if ref is not None else '-'):>9} "
            f"{stats.mean_steps_all:>9.2f}")
    lines.append(f"mode={report.mode} episodes_per_variant="
                 f"{report.episodes_per_variant} agent={label}")
    return "\n".join(lines)


def write_episode_csv(path: str, rows: Sequence[EpisodeRow]) -> None:
    """Per-episode step series (episode_index, steps, win), written
    atomically."""
    lines = ["episode_index,steps,win"]
    lines += [f"{row.episode},{row.steps},{int(row.win)}" for row in rows]
    write_text(path, "\n".join(lines) + "\n")


# --- checkpoint serialization -------------------------------------------------


_CHECKPOINT_KEYS = {  # section -> keys, in file order
    "meta": ("update_index", "env_steps"),
    "hyper": tuple(f.name for f in fields(Hyperparams)),
    "actor": ("sizes", "flat"),
    "critic": ("sizes", "flat"),
    "actor_opt": ("step", "m", "v"),
    "critic_opt": ("step", "m", "v"),
}


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write ``ckpt`` atomically in the layout of _CHECKPOINT_KEYS, which
    load_checkpoint checks: each network and Adam moment is one flat
    array, and the learning rate is stored once, in [hyper]."""
    values = {"meta": (ckpt.update_index, ckpt.env_steps), "hyper": astuple(ckpt.hyper)}
    for name, params, opt in (("actor", ckpt.actor, ckpt.actor_opt),
                              ("critic", ckpt.critic, ckpt.critic_opt)):
        values[name] = (" ".join(map(str, params.sizes)), format_array(params.flat))
        values[f"{name}_opt"] = (opt.step, format_array(opt.m.flat), format_array(opt.v.flat))
    lines = [CHECKPOINT_VERSION_LINE]
    for name, keys in _CHECKPOINT_KEYS.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {format_value(value)}"
                  for key, value in zip(keys, values[name], strict=True)]
    write_text(path, "\n".join(lines) + "\n")


def _count(key: str, text: str) -> int:
    return check_count(key, int(text), least=0)


def _network(text: str, outputs: int) -> MlpParams:
    """Zero parameters of the layer sizes ``text``, which must map an
    observation to ``outputs`` values; MlpParams checks the rest."""
    sizes = tuple(int(tok) for tok in text.split())
    if sizes[:1] + sizes[-1:] != (OBSERVATION_DIM, outputs):
        raise ContractViolationError(f"{sizes} do not map {OBSERVATION_DIM} -> {outputs}")
    return MlpParams(sizes)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.  Its sections must be
    those of _CHECKPOINT_KEYS, once each and in that order, and their keys
    are checked before any value is parsed.  A bad value fails at its own
    line; [hyper] reads each field as a config file does (parse_field)."""
    found = read_sections(path, CHECKPOINT_VERSION_LINE)
    check_layout(found, _CHECKPOINT_KEYS)
    names = list(_CHECKPOINT_KEYS)
    for at, section in enumerate(found):  # check_layout knows every name
        if names[at:at + 1] != [section.name]:
            raise section.fail(f"duplicate section [{section.name}]" if section.name in names[:at]
                               else f"expected section [{names[at]}], got [{section.name}]")
    if len(found) < len(names):
        raise TextFormatError(f"missing section [{names[len(found)]}]", path)
    sections = dict(zip(names, found))
    values = {key: sections["meta"].parse(key, partial(_count, key))
              for key in _CHECKPOINT_KEYS["meta"]}
    hyper = Hyperparams(**{key: sections["hyper"].parse(key, partial(
        parse_field, Hyperparams, key)) for key in _CHECKPOINT_KEYS["hyper"]})
    for name, outputs in (("actor", NUM_ACTIONS), ("critic", 1)):
        net, moments = sections[name], sections[f"{name}_opt"]
        params = net.parse("sizes", partial(_network, outputs=outputs))
        array = partial(parse_array, shape=params.flat.shape)
        params.flat[:] = net.parse("flat", array)
        opt = AdamState.for_params(params)
        opt.step = moments.parse("step", partial(_count, "step"))
        opt.m.flat[:], opt.v.flat[:] = moments.parse("m", array), moments.parse("v", array)
        values |= {name: params, f"{name}_opt": opt}
    return Checkpoint(**values, hyper=hyper)
