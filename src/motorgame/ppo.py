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
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .catalog import BaseMachine, MachineVariant, machine_by_id
from .env import NUM_ACTIONS, OBSERVATION_DIM, DesignEnv, EpisodeRecord, RewardConfig, run_episode
from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ContractViolationError,
    TrainingDivergedError,
)
from .kvtext import format_array, format_value, parse_array, parse_value, read_sections
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

CHECKPOINT_VERSION_LINE = "motor-design-ckpt v1"

ACTOR_SIZES = (OBSERVATION_DIM, 64, 64, NUM_ACTIONS)
CRITIC_SIZES = (OBSERVATION_DIM, 64, 64, 1)

GRAD_CLIP_NORM = 0.5

# Reference mean winning step counts for the three stock machines, used
# for side-by-side evaluation reports.
REFERENCE_MEAN_STEPS = {1: 11.0, 2: 12.0, 3: 5.0}

# RolloutBuffer.causes codes; 0 marks a step that did not end its episode
_CAUSE_CODES = {"win": 1, "truncation": 2}


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
        if not 0.0 < self.discount <= 1.0:
            raise ContractViolationError(f"discount {self.discount} outside (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ContractViolationError(f"gae_lambda {self.gae_lambda} outside [0, 1]")
        if self.clip_ratio <= 0.0:
            raise ContractViolationError(f"clip_ratio {self.clip_ratio} must be > 0")
        if self.learning_rate <= 0.0:
            raise ContractViolationError(f"learning_rate {self.learning_rate} must be > 0")
        for name in ("epochs", "minibatch_size", "horizon", "total_steps", "env_count"):
            if getattr(self, name) < 1:
                raise ContractViolationError(f"{name} must be >= 1")

    @property
    def updates(self) -> int:
        return math.ceil(self.total_steps / (self.horizon * self.env_count))


@dataclass
class RolloutBuffer:
    """Struct-of-arrays rollout storage, time-major (horizon, env_count)."""

    observations: np.ndarray  # (T, E, OBSERVATION_DIM)
    actions: np.ndarray       # (T, E) int
    log_probs: np.ndarray     # (T, E)
    rewards: np.ndarray       # (T, E)
    values: np.ndarray        # (T, E)
    dones: np.ndarray         # (T, E) float 0/1
    causes: np.ndarray        # (T, E) int8 cause codes
    bootstrap: np.ndarray     # (E,) value of the observation after the last step
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.rewards.size)

    def compute_advantages(self, discount: float, gae_lambda: float) -> None:
        self.advantages, self.returns = gae(
            self.rewards, self.values, self.dones, self.bootstrap,
            discount, gae_lambda)


class EnvPool:
    """Fixed set of design-game environments cycling round-robin through
    the training variants on episode reset."""

    def __init__(self, variants: Sequence[MachineVariant], env_count: int,
                 reward_config: RewardConfig | None = None):
        variants = tuple(variants)
        if not variants:
            raise ContractViolationError("need at least one variant")
        if env_count < 1:
            raise ContractViolationError("env_count must be >= 1")
        self._variants = variants
        self._cursor = 0
        self._config = reward_config if reward_config is not None else RewardConfig()
        self._bases: dict[int, BaseMachine] = {}
        self.envs: list[DesignEnv] = []
        self._obs = np.empty((env_count, OBSERVATION_DIM))
        self._episode_reward = np.zeros(env_count)
        self._finished: list[tuple[int, float, bool]] = []  # (steps, reward, win)
        for e in range(env_count):
            env = self._fresh_env()
            self.envs.append(env)
            self._obs[e] = env.reset()

    def _base(self, base_id: int) -> BaseMachine:
        if base_id not in self._bases:
            self._bases[base_id] = machine_by_id(base_id)
        return self._bases[base_id]

    def _fresh_env(self) -> DesignEnv:
        variant = self._variants[self._cursor % len(self._variants)]
        self._cursor += 1
        return DesignEnv(variant, self._base(variant.base_id), self._config)

    @property
    def env_count(self) -> int:
        return len(self.envs)

    def observations(self) -> np.ndarray:
        return self._obs.copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every env by one action; auto-reset finished episodes.

        Returns (rewards, dones, cause codes) for the step just taken;
        afterwards observations() reflects post-reset states.
        """
        e_count = len(self.envs)
        rewards = np.zeros(e_count)
        dones = np.zeros(e_count)
        causes = np.zeros(e_count, dtype=np.int8)
        for e in range(e_count):
            obs, reward, done, info = self.envs[e].step(int(actions[e]))
            rewards[e] = reward
            self._episode_reward[e] += reward
            if done:
                dones[e] = 1.0
                causes[e] = _CAUSE_CODES[info.cause]
                self._finished.append(
                    (self.envs[e].steps, float(self._episode_reward[e]), info.win))
                self._episode_reward[e] = 0.0
                self.envs[e] = self._fresh_env()
                obs = self.envs[e].reset()
            self._obs[e] = obs
        return rewards, dones, causes

    def drain_finished(self) -> list[tuple[int, float, bool]]:
        out, self._finished = self._finished, []
        return out


def collect_rollout(pool: EnvPool, actor: MlpParams, critic: MlpParams,
                    horizon: int, rng: np.random.Generator) -> RolloutBuffer:
    """Gather horizon steps from every env in the pool under the actor."""
    if horizon < 1:
        raise ContractViolationError("horizon must be >= 1")
    e_count = pool.env_count
    observations = np.zeros((horizon, e_count, OBSERVATION_DIM))
    actions = np.zeros((horizon, e_count), dtype=np.intp)
    log_probs = np.zeros((horizon, e_count))
    rewards = np.zeros((horizon, e_count))
    values = np.zeros((horizon, e_count))
    dones = np.zeros((horizon, e_count))
    causes = np.zeros((horizon, e_count), dtype=np.int8)

    for t in range(horizon):
        obs = pool.observations()
        logits, _ = forward(actor, obs)
        vals, _ = forward(critic, obs)
        dist = Categorical(logits)
        act = dist.sample(rng)
        observations[t] = obs
        actions[t] = act
        log_probs[t] = dist.log_prob(act)
        values[t] = vals[:, 0]
        rewards[t], dones[t], causes[t] = pool.step(act)

    tail_values, _ = forward(critic, pool.observations())
    return RolloutBuffer(observations, actions, log_probs, rewards, values,
                         dones, causes, bootstrap=tail_values[:, 0].copy())


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
    grad_norm: float


def ppo_update(actor: MlpParams, critic: MlpParams,
               actor_opt: AdamState, critic_opt: AdamState,
               buffer: RolloutBuffer, hyper: Hyperparams,
               rng: np.random.Generator) -> UpdateStats:
    """One PPO update: epochs of shuffled minibatches over the buffer.

    The policy gradient with respect to the actor logits is hand-derived:
    for the unclipped branch d(ratio)/dz_j = ratio * (onehot_j - p_j),
    the clipped branch is flat, and the entropy bonus contributes
    p_j * (log p_j + H) per sample.  The critic follows the squared-error
    gradient to the returns.  Both nets are norm-clipped then Adam-stepped.
    """
    if len(buffer) == 0:
        raise ContractViolationError("empty rollout buffer")
    if buffer.advantages is None or buffer.returns is None:
        raise ContractViolationError("advantages not computed")

    batch = len(buffer)
    obs = buffer.observations.reshape(batch, OBSERVATION_DIM)
    acts = buffer.actions.reshape(batch)
    old_log_probs = buffer.log_probs.reshape(batch)
    advantages = normalize_advantages(buffer.advantages.reshape(batch))
    returns = buffer.returns.reshape(batch)

    pol_losses, val_losses, entropies, clip_fracs, grad_norms = [], [], [], [], []
    for _ in range(hyper.epochs):
        perm = rng.permutation(batch)
        for start in range(0, batch, hyper.minibatch_size):
            idx = perm[start:start + hyper.minibatch_size]
            b = idx.size
            mb_obs = obs[idx]
            mb_acts = acts[idx]
            mb_adv = advantages[idx]

            logits, actor_cache = forward(actor, mb_obs)
            dist = Categorical(logits)
            log_probs = dist.logits_log_probs
            probs = dist.probs
            new_log_prob = dist.log_prob(mb_acts)
            entropy = dist.entropy()

            ratio = np.exp(new_log_prob - old_log_probs[idx])
            objective = clipped_objective(ratio, mb_adv, hyper.clip_ratio)
            policy_loss = -float(np.mean(objective))
            entropy_mean = float(np.mean(entropy))
            clip_frac = float(np.mean(np.abs(ratio - 1.0) > hyper.clip_ratio))

            # flat clipped branch: gradient flows only where min() picked
            # the unclipped term
            live = (ratio * mb_adv == objective).astype(np.float64)
            onehot = np.zeros((b, NUM_ACTIONS))
            onehot[np.arange(b), mb_acts] = 1.0
            coeff = -(live * mb_adv * ratio) / b
            logit_grad = coeff[:, None] * (onehot - probs)
            logit_grad += (hyper.entropy_coef / b) * probs * (
                log_probs + entropy[:, None])

            vals, critic_cache = forward(critic, mb_obs)
            err = vals[:, 0] - returns[idx]
            value_loss = float(np.mean(err * err))
            value_grad = (2.0 * hyper.value_coef / b) * err

            total = policy_loss + hyper.value_coef * value_loss \
                - hyper.entropy_coef * entropy_mean
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite loss (policy={policy_loss!r}, "
                    f"value={value_loss!r}, entropy={entropy_mean!r})")

            actor_grads = backward(actor, actor_cache, logit_grad)
            norm = clip_grad_norm(actor_grads, GRAD_CLIP_NORM)
            adam_step(actor, actor_grads, actor_opt)

            critic_grads = backward(critic, critic_cache, value_grad[:, None])
            clip_grad_norm(critic_grads, GRAD_CLIP_NORM)
            adam_step(critic, critic_grads, critic_opt)

            pol_losses.append(policy_loss)
            val_losses.append(value_loss)
            entropies.append(entropy_mean)
            clip_fracs.append(clip_frac)
            grad_norms.append(norm)

    return UpdateStats(
        policy_loss=float(np.mean(pol_losses)),
        value_loss=float(np.mean(val_losses)),
        entropy=float(np.mean(entropies)),
        clip_fraction=float(np.mean(clip_fracs)),
        grad_norm=float(np.mean(grad_norms)),
    )


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
        actor_opt=AdamState.for_params(actor, hyper.learning_rate),
        critic_opt=AdamState.for_params(critic, hyper.learning_rate),
        hyper=hyper)


def train(variants: Sequence[MachineVariant], hyper: Hyperparams,
          reward_config: RewardConfig | None = None,
          checkpoint: Checkpoint | None = None,
          metrics_path: str | None = None,
          progress: Callable[[UpdateRow], None] | None = None,
          ) -> tuple[Checkpoint, TrainReport]:
    """Run collect/update cycles until hyper.total_steps env steps.

    Deterministic in hyper.seed: every RNG stream is derived from it and
    the update index.  Resuming from a checkpoint continues the update
    numbering and RNG streams, but does not yet reproduce an uninterrupted
    run: the env pool is not checkpointed, so its episodes and round-robin
    cursor restart.  ``metrics_path`` is truncated on a fresh run and
    appended to on resume.
    """
    if not variants:
        raise ContractViolationError("need at least one training variant")
    ckpt = checkpoint if checkpoint is not None else new_checkpoint(hyper)
    if checkpoint is not None:
        hyper = ckpt.hyper
    pool = EnvPool(variants, hyper.env_count, reward_config)
    report = TrainReport()
    steps_per_update = hyper.horizon * hyper.env_count

    metrics = (open(metrics_path, "w" if checkpoint is None else "a")
               if metrics_path else None)
    try:
        while ckpt.env_steps < hyper.total_steps:
            update_index = ckpt.update_index
            rollout_rng = np.random.default_rng(
                derive_seed(hyper.seed, 3, update_index))
            shuffle_rng = np.random.default_rng(
                derive_seed(hyper.seed, 4, update_index))

            buf = collect_rollout(pool, ckpt.actor, ckpt.critic,
                                  hyper.horizon, rollout_rng)
            buf.compute_advantages(hyper.discount, hyper.gae_lambda)
            try:
                stats = ppo_update(ckpt.actor, ckpt.critic, ckpt.actor_opt,
                                   ckpt.critic_opt, buf, hyper, shuffle_rng)
            except TrainingDivergedError as exc:
                exc.update_index = update_index
                raise

            ckpt.update_index = update_index + 1
            ckpt.env_steps += steps_per_update

            finished = pool.drain_finished()
            wins = [steps for steps, _, win in finished if win]
            row = UpdateRow(
                update=ckpt.update_index,
                env_steps=ckpt.env_steps,
                episodes=len(finished),
                mean_episode_reward=(
                    float(np.mean([r for _, r, _ in finished]))
                    if finished else float("nan")),
                win_rate=(len(wins) / len(finished)
                          if finished else float("nan")),
                mean_winning_steps=(float(np.mean(wins))
                                    if wins else float("nan")),
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                clip_fraction=stats.clip_fraction,
            )
            report.rows.append(row)
            if metrics is not None:
                metrics.write(row.as_line() + "\n")
                metrics.flush()
            if progress is not None:
                progress(row)
    finally:
        if metrics is not None:
            metrics.close()
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
    machine_id: int
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


def evaluate_agent(play: Callable[[DesignEnv, np.random.Generator], EpisodeRecord],
                   variants: Sequence[MachineVariant], episodes_per_variant: int,
                   mode: str, seed: int = 0,
                   reward_config: RewardConfig | None = None) -> EvalReport:
    """Play every variant ``episodes_per_variant`` times with
    ``play(env, rng)`` and summarize the episodes per base machine.

    Each episode's generator is seeded from (seed, variant seed, episode),
    so a variant's episodes do not depend on the other variants.  Mean
    steps are computed over winning episodes; losses show up in the win
    rate and in mean_steps_all.
    """
    if episodes_per_variant < 1:
        raise ContractViolationError("episodes_per_variant must be >= 1")
    config = reward_config if reward_config is not None else RewardConfig()
    rows: list[EpisodeRow] = []
    for variant in variants:
        env = DesignEnv(variant, machine_by_id(variant.base_id), config)
        for ep in range(episodes_per_variant):
            rng = np.random.default_rng(
                derive_seed(seed, variant.variant_seed, ep))
            record = play(env, rng)
            rows.append(EpisodeRow(variant.base_id, variant.variant_seed,
                                   len(rows), record.steps, record.win))

    per_machine = {}
    for machine_id in sorted({r.machine_id for r in rows}):
        machine_rows = [r for r in rows if r.machine_id == machine_id]
        wins = [r.steps for r in machine_rows if r.win]
        per_machine[machine_id] = MachineEval(
            machine_id=machine_id,
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
    """Frozen-policy evaluation grouped per base machine.

    mode "argmax" takes the highest-logit action; mode "stochastic"
    samples from the policy head (deterministic in seed).
    """
    if mode not in ("stochastic", "argmax"):
        raise ContractViolationError(f"unknown evaluation mode {mode!r}")

    def play(env: DesignEnv, rng: np.random.Generator) -> EpisodeRecord:
        def policy(obs: np.ndarray) -> int:
            logits, _ = forward(actor, obs)
            if mode == "argmax":
                return int(np.argmax(logits))
            return Categorical(logits).sample(rng)

        return run_episode(env, policy)

    return evaluate_agent(play, variants, episodes_per_variant, mode, seed,
                          reward_config)


def format_eval_table(report: EvalReport, label: str = "policy") -> str:
    """Side-by-side table: our mean winning steps next to the reference
    step counts for the stock machines."""
    lines = [f"{'machine':>7} {'power_kw':>9} {'voltage_v':>9} "
             f"{'win_rate':>8} {'mean_steps':>10} {'ref_steps':>9} {'mean_all':>9}"]
    for machine_id, stats in sorted(report.per_machine.items()):
        base = machine_by_id(machine_id)
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
    """Per-episode step series (episode_index, steps, win)."""
    with open(path, "w") as fh:
        fh.write("episode_index,steps,win\n")
        for row in rows:
            fh.write(f"{row.episode},{row.steps},{int(row.win)}\n")


# --- checkpoint serialization -------------------------------------------------


def _params_lines(name: str, params: MlpParams) -> list[str]:
    lines = [f"[{name}]",
             "sizes = " + " ".join(str(s) for s in params.sizes)]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"W{layer} = " + format_array(w))
        lines.append(f"b{layer} = " + format_array(b))
    return lines


_OPT_SCALARS = ("learning_rate", "beta1", "beta2", "eps", "step")  # file order


def _opt_lines(name: str, opt: AdamState) -> list[str]:
    lines = [f"[{name}]"]
    for key in _OPT_SCALARS:
        lines.append(f"{key} = {format_value(getattr(opt, key))}")
    for i, (m, v) in enumerate(zip(opt.m.tensors(), opt.v.tensors())):
        lines.append(f"m{i} = " + format_array(m))
        lines.append(f"v{i} = " + format_array(v))
    return lines


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    lines = [CHECKPOINT_VERSION_LINE, "[meta]",
             f"update_index = {ckpt.update_index}",
             f"env_steps = {ckpt.env_steps}",
             "[hyper]"]
    for f in fields(Hyperparams):
        lines.append(f"{f.name} = {format_value(getattr(ckpt.hyper, f.name))}")
    lines += _params_lines("actor", ckpt.actor)
    lines += _params_lines("critic", ckpt.critic)
    lines += _opt_lines("actor_opt", ckpt.actor_opt)
    lines += _opt_lines("critic_opt", ckpt.critic_opt)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_params(section: dict[str, str], where: str, outputs: int) -> MlpParams:
    try:
        sizes = tuple(int(tok) for tok in section["sizes"].split())
        weights, biases = [], []
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            weights.append(parse_array(section[f"W{layer}"], (fan_in, fan_out)))
            biases.append(parse_array(section[f"b{layer}"], (fan_out,)))
        params = MlpParams(sizes, weights, biases)
        if (sizes[0], sizes[-1]) != (OBSERVATION_DIM, outputs):
            raise ValueError(f"sizes {sizes} do not map {OBSERVATION_DIM} -> {outputs}")
    except (KeyError, ValueError, ContractViolationError) as exc:
        raise CheckpointFormatError(f"bad [{where}] section: {exc}") from exc
    return params


def _load_opt(section: dict[str, str], params: MlpParams, where: str) -> AdamState:
    kinds = {f.name: f.type for f in fields(AdamState)}
    try:
        m, v = ([parse_array(section[f"{key}{i}"], t.shape)
                 for i, t in enumerate(params.tensors())] for key in "mv")
        return AdamState(
            m=MlpParams(params.sizes, m[0::2], m[1::2]),
            v=MlpParams(params.sizes, v[0::2], v[1::2]),
            **{key: parse_value(section[key], kinds[key]) for key in _OPT_SCALARS})
    except (KeyError, ValueError, ContractViolationError) as exc:
        raise CheckpointFormatError(f"bad [{where}] section: {exc}") from exc


def load_checkpoint(path: str) -> Checkpoint:
    sections: dict[str, dict[str, str]] = {}
    for section in read_sections(path, CheckpointFormatError,
                                 CHECKPOINT_VERSION_LINE, CheckpointVersionError):
        if section.name in sections:
            raise CheckpointFormatError(
                f"duplicate section [{section.name}]", section.line)
        sections[section.name] = section.values
    for name in ("meta", "hyper", "actor", "critic", "actor_opt", "critic_opt"):
        if name not in sections:
            raise CheckpointFormatError(f"missing section [{name}]")
    try:
        hyper = Hyperparams(**{f.name: parse_value(sections["hyper"][f.name], f.type)
                               for f in fields(Hyperparams)})
        update_index = int(sections["meta"]["update_index"])
        env_steps = int(sections["meta"]["env_steps"])
    except (KeyError, ValueError, ContractViolationError) as exc:
        raise CheckpointFormatError(f"bad [meta]/[hyper] section: {exc}") from exc
    actor = _load_params(sections["actor"], "actor", NUM_ACTIONS)
    critic = _load_params(sections["critic"], "critic", 1)
    return Checkpoint(
        actor=actor, critic=critic,
        actor_opt=_load_opt(sections["actor_opt"], actor, "actor_opt"),
        critic_opt=_load_opt(sections["critic_opt"], critic, "critic_opt"),
        hyper=hyper, update_index=update_index, env_steps=env_steps)
