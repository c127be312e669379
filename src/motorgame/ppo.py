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
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .catalog import BaseMachine, MachineVariant
from .env import (
    ALL_OBSERVATIONS,
    NUM_ACTIONS,
    OBSERVATION_DIM,
    DesignEnv,
    EnvPool,
    EpisodeRecord,
    RewardConfig,
    run_episode,
)
from .errors import CheckpointFormatError, ContractViolationError, TrainingDivergedError
from .kvtext import (
    Section,
    check_layout,
    format_array,
    format_value,
    parse_array,
    parse_value,
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
    inverse_cdf,
)

CHECKPOINT_VERSION_LINE = "motor-design-ckpt v2"

ACTOR_SIZES = (OBSERVATION_DIM, 64, 64, NUM_ACTIONS)
CRITIC_SIZES = (OBSERVATION_DIM, 64, 64, 1)

GRAD_CLIP_NORM = 0.5

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
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ContractViolationError(f"{f.name} {getattr(self, f.name)} is not finite")
        if not 0.0 < self.discount <= 1.0:
            raise ContractViolationError(f"discount {self.discount} outside (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ContractViolationError(f"gae_lambda {self.gae_lambda} outside [0, 1]")
        if self.clip_ratio <= 0.0:
            raise ContractViolationError(f"clip_ratio {self.clip_ratio} must be > 0")
        if self.learning_rate <= 0.0:
            raise ContractViolationError(f"learning_rate {self.learning_rate} must be > 0")
        for name in ("value_coef", "entropy_coef"):
            if getattr(self, name) < 0.0:
                raise ContractViolationError(f"{name} {getattr(self, name)} must be >= 0")
        for name in ("epochs", "minibatch_size", "horizon", "total_steps", "env_count"):
            if getattr(self, name) < 1:
                raise ContractViolationError(f"{name} must be >= 1")


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
    """Gather horizon steps from every env in the pool under the actor.

    The actor and critic are frozen for the rollout, so each runs once, on
    ALL_OBSERVATIONS, and a step reads its rows by observation code."""
    if horizon < 1:
        raise ContractViolationError("horizon must be >= 1")
    table_logits = forward(actor, ALL_OBSERVATIONS)[0]
    table_values = forward(critic, ALL_OBSERVATIONS)[0][:, 0]
    e_count = pool.env_count
    codes = np.zeros((horizon, e_count), dtype=np.intp)
    actions = np.zeros((horizon, e_count), dtype=np.intp)
    log_probs = np.zeros((horizon, e_count))
    rewards = np.zeros((horizon, e_count))
    values = np.zeros((horizon, e_count))
    dones = np.zeros((horizon, e_count))

    for t in range(horizon):
        codes[t] = code = pool.codes()
        dist = Categorical(table_logits[code])
        actions[t] = act = dist.sample(rng)
        log_probs[t] = dist.log_prob(act)
        values[t] = table_values[code]
        rewards[t], dones[t] = pool.step(act)

    bootstrap = table_values[pool.codes()]
    return RolloutBuffer(codes, actions, log_probs, rewards, values, dones, bootstrap)


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


def ppo_update(actor: MlpParams, critic: MlpParams,
               actor_opt: AdamState, critic_opt: AdamState,
               buffer: RolloutBuffer, advantages: np.ndarray, returns: np.ndarray,
               hyper: Hyperparams, rng: np.random.Generator) -> UpdateStats:
    """One PPO update: epochs of shuffled minibatches over the buffer and its gae().

    The policy gradient with respect to the actor logits is hand-derived:
    for the unclipped branch d(ratio)/dz_j = ratio * (onehot_j - p_j),
    the clipped branch is flat, and the entropy bonus contributes
    p_j * (log p_j + H) per sample.  The critic follows the squared-error
    gradient to the returns.  Both nets are norm-clipped then Adam-stepped.

    There are only 1,701 observations, so each net runs once per distinct
    observation in a minibatch: its distinct codes in code order are the
    forward rows, every sample reads its outputs from its code's row, and
    the samples' logit and value gradients are summed into that row, in
    sample order, before backward.
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
    starts = range(0, batch, hyper.minibatch_size)
    row_minibatch = np.arange(batch) // hyper.minibatch_size  # in epoch order
    n_codes = len(ALL_OBSERVATIONS)

    rows = []  # one UpdateStats row per minibatch
    for _ in range(hyper.epochs):
        perm = rng.permutation(batch)
        # gathered once per epoch; each minibatch is a contiguous slice,
        # and the last one may be short
        ep_codes, ep_acts, ep_old_log_probs, ep_adv, ep_returns = (
            codes[perm], acts[perm], old_log_probs[perm], advantages[perm], returns[perm])
        # one sorted key per (minibatch, code): minibatch k's distinct codes,
        # in code order, are distinct_codes[bounds[k]:bounds[k + 1]], and a
        # row's slot is its code's index among them
        keys, ep_slots = np.unique(row_minibatch * n_codes + ep_codes, return_inverse=True)
        bounds = np.searchsorted(keys, np.arange(len(starts) + 1) * n_codes)
        ep_slots -= bounds[row_minibatch]
        distinct_codes = keys % n_codes
        for k, start in enumerate(starts):
            mb = slice(start, start + hyper.minibatch_size)
            mb_acts, mb_adv, slots = ep_acts[mb], ep_adv[mb], ep_slots[mb]
            mb_old_log_prob = ep_old_log_probs[mb]
            b = len(mb_acts)
            distinct = ALL_OBSERVATIONS[distinct_codes[bounds[k]:bounds[k + 1]]]
            d = len(distinct)

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
            # bincount adds its weights in input order, so each distinct
            # row gets its rows' gradients summed in sample order; an
            # entry's bin is its row's slot and its action
            bins = slots[:, None] * NUM_ACTIONS + action_index
            distinct_logit_grad = np.bincount(
                bins.ravel(), weights=logit_grad.ravel(),
                minlength=d * NUM_ACTIONS).reshape(d, NUM_ACTIONS)

            vals, critic_cache = forward(critic, distinct)
            err = vals[slots, 0] - ep_returns[mb]
            value_loss = float((err * err).sum() / b)
            distinct_value_grad = np.bincount(
                slots, weights=(2.0 * hyper.value_coef / b) * err, minlength=d)

            total = policy_loss + hyper.value_coef * value_loss \
                - hyper.entropy_coef * entropy_mean
            if not np.isfinite(total):
                raise TrainingDivergedError(
                    f"non-finite loss (policy={policy_loss!r}, "
                    f"value={value_loss!r}, entropy={entropy_mean!r})")

            backward(actor, actor_cache, distinct_logit_grad, actor_grads)
            norm = clip_grad_norm(actor_grads, GRAD_CLIP_NORM)
            adam_step(actor, actor_grads, actor_opt)

            backward(critic, critic_cache, distinct_value_grad[:, None], critic_grads)
            clip_grad_norm(critic_grads, GRAD_CLIP_NORM)
            adam_step(critic, critic_grads, critic_opt)

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
        actor_opt=AdamState.for_params(actor, hyper.learning_rate),
        critic_opt=AdamState.for_params(critic, hyper.learning_rate),
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
    """
    if not variants:
        raise ContractViolationError("need at least one training variant")
    ckpt = checkpoint if checkpoint is not None else new_checkpoint(hyper)
    if checkpoint is not None:
        hyper = ckpt.hyper
    pool = EnvPool(variants, hyper.env_count, reward_config)
    report = TrainReport()
    steps_per_update = hyper.horizon * hyper.env_count

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
                               buf, advantages, returns, hyper, shuffle_rng)
        except TrainingDivergedError as exc:
            exc.update_index = update_index
            raise

        del buf, advantages, returns  # spent: free them before the next rollout's table
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


def evaluate_agent(play: Callable[[DesignEnv, np.random.Generator], EpisodeRecord],
                   variants: Sequence[MachineVariant], episodes_per_variant: int,
                   mode: str, seed: int = 0,
                   reward_config: RewardConfig | None = None) -> EvalReport:
    """Play every variant ``episodes_per_variant`` times with
    ``play(env, rng)`` and summarize the episodes per base machine.

    Each episode's generator is seeded from (seed, variant seed, episode),
    so a variant's episodes do not depend on the other variants.  Mean
    steps are computed over winning episodes; losses show up in the win
    rate and in mean_steps_all.  The summary is keyed by machine id, so
    two different machines that share an id are rejected.
    """
    if episodes_per_variant < 1:
        raise ContractViolationError("episodes_per_variant must be >= 1")
    machines = {}
    for variant in variants:
        if machines.setdefault(variant.base_id, variant.base) != variant.base:
            raise ContractViolationError(
                f"two different machines share id {variant.base_id}")
    config = reward_config if reward_config is not None else RewardConfig()
    rows: list[EpisodeRow] = []
    for variant in variants:
        env = DesignEnv(variant, config=config)
        for ep in range(episodes_per_variant):
            rng = np.random.default_rng(
                derive_seed(seed, variant.variant_seed, ep))
            record = play(env, rng)
            rows.append(EpisodeRow(variant.base_id, variant.variant_seed,
                                   len(rows), record.steps, record.win))

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
    """Frozen-policy evaluation grouped per base machine.

    mode "argmax" takes the highest-logit action; mode "stochastic"
    samples from the policy head (deterministic in seed).  The actor is
    frozen for the call, so the policy is computed once per distinct
    observation per call: the first visit runs the forward pass and keeps
    the argmax action or the CDF row, and every visit in stochastic mode
    draws its own ``rng.random()`` for ``inverse_cdf``, the draw that
    ``Categorical.sample`` takes for one row.  A call of a few episodes
    plays fewer steps than collect_rollout's table has rows, so it keeps
    this memo.
    """
    if mode not in ("stochastic", "argmax"):
        raise ContractViolationError(f"unknown evaluation mode {mode!r}")
    memo: dict[bytes, int | list[float]] = {}  # obs bytes -> action or CDF row

    def play(env: DesignEnv, rng: np.random.Generator) -> EpisodeRecord:
        def policy(obs: np.ndarray) -> int:
            key = obs.tobytes()
            choice = memo.get(key)
            if choice is None:
                logits, _ = forward(actor, obs[None])
                choice = memo[key] = (int(np.argmax(logits[0])) if mode == "argmax"
                                      else Categorical(logits).cdf()[0].tolist())
            if mode == "argmax":
                return choice
            return inverse_cdf(choice, rng.random())

        return run_episode(env, policy)

    return evaluate_agent(play, variants, episodes_per_variant, mode, seed,
                          reward_config)


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


def _parse_count(section: dict[str, str], key: str) -> int:
    count = int(section[key])
    if count < 0:
        raise ValueError(f"{key} = {count} is negative")
    return count


def _parse_finite(section: dict[str, str], key: str, shape: tuple[int, ...]) -> np.ndarray:
    values = parse_array(section[key], shape)
    if not np.isfinite(values).all():
        raise ValueError(f"{key} holds a non-finite value")
    return values


def _load_params(section: Section, outputs: int) -> MlpParams:
    try:
        params = MlpParams(tuple(int(tok) for tok in section.values["sizes"].split()))
        if (params.sizes[0], params.sizes[-1]) != (OBSERVATION_DIM, outputs):
            raise ValueError(
                f"sizes {params.sizes} do not map {OBSERVATION_DIM} -> {outputs}")
        params.flat[:] = _parse_finite(section.values, "flat", params.flat.shape)
    except (ValueError, ContractViolationError) as exc:
        raise section.fail(f"bad [{section.name}] section: {exc}") from exc
    return params


def _load_opt(section: Section, params: MlpParams, learning_rate: float) -> AdamState:
    try:
        opt = AdamState.for_params(params, learning_rate)
        opt.step = _parse_count(section.values, "step")
        opt.m.flat[:] = _parse_finite(section.values, "m", params.flat.shape)
        opt.v.flat[:] = _parse_finite(section.values, "v", params.flat.shape)
    except (ValueError, ContractViolationError) as exc:
        raise section.fail(f"bad [{section.name}] section: {exc}") from exc
    return opt


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.  Its layout is checked
    against _CHECKPOINT_KEYS before any value is parsed: an unknown,
    duplicate or missing section or key raises CheckpointFormatError, and
    a bad value fails at its section's header."""
    found = read_sections(path, CheckpointFormatError, CHECKPOINT_VERSION_LINE)
    check_layout(found, _CHECKPOINT_KEYS)
    sections: dict[str, Section] = {}
    for section in found:
        if section.name in sections:
            raise section.fail(f"duplicate section [{section.name}]")
        sections[section.name] = section
    for name in _CHECKPOINT_KEYS:
        if name not in sections:
            raise CheckpointFormatError(f"missing section [{name}]", path)
    hyper_at, meta_at = sections["hyper"], sections["meta"]
    try:
        hyper = Hyperparams(**{f.name: parse_value(hyper_at.values[f.name], f.type)
                               for f in fields(Hyperparams)})
    except (ValueError, ContractViolationError) as exc:
        raise hyper_at.fail(f"bad [hyper] section: {exc}") from exc
    try:
        update_index = _parse_count(meta_at.values, "update_index")
        env_steps = _parse_count(meta_at.values, "env_steps")
    except ValueError as exc:
        raise meta_at.fail(f"bad [meta] section: {exc}") from exc
    actor = _load_params(sections["actor"], NUM_ACTIONS)
    critic = _load_params(sections["critic"], 1)
    return Checkpoint(
        actor=actor, critic=critic,
        actor_opt=_load_opt(sections["actor_opt"], actor, hyper.learning_rate),
        critic_opt=_load_opt(sections["critic_opt"], critic, hyper.learning_rate),
        hyper=hyper, update_index=update_index, env_steps=env_steps)
