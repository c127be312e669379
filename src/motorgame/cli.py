"""Operator command line: catalog generation, training, evaluation,
oracle runs, and single-design inspection.

All knobs live in a flat RunConfig.  Values resolve in order: built-in
defaults, then a `key = value` config file (--config), then explicit
command-line flags.  --print-config echoes the fully resolved
configuration before the command runs.  Exit codes: 0 success, 2 a
diverged training run or an oracle-unreachable variant, 1 any other
package error or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, field, fields, make_dataclass, replace
from functools import partial

from .agents import oracle_shortest, play_greedy, play_oracle, play_random
from .catalog import (
    TargetBands,
    builtin_catalog,
    generate_variants,
    load_catalog,
    machine_by_id,
    save_catalog,
    target_bands,
    with_split,
)
from .env import FLAG_NAMES, RewardConfig, all_flags_zero, flags
from .errors import (
    ContractViolationError,
    MotorGameError,
    TextFormatError,
    TrainingDivergedError,
    check_count,
)
from .kvtext import format_value, parse_field, read_sections, write_text
from .ppo import (
    EVAL_MODES,
    Hyperparams,
    UpdateRow,
    evaluate,
    evaluate_agent,
    format_eval_table,
    load_checkpoint,
    save_checkpoint,
    train,
    write_episode_csv,
)
from .surrogate import DesignPoint, evaluate as evaluate_design


@dataclass(frozen=True)
class CommandSettings:
    """Settings of the commands themselves, beyond training and reward."""

    # catalog generation
    catalog_seed: int = 0
    catalog_path: str = "catalog.txt"
    machines: str = "1,2,3"
    train_per_machine: int = 25
    holdout_per_machine: int = 5
    # artifact paths
    checkpoint_path: str = "checkpoint.txt"
    metrics_path: str = "metrics.txt"
    episodes_csv: str = "episodes.csv"
    # evaluation
    split: str = "holdout"
    agent: str = "ppo"
    eval_mode: str = "stochastic"
    eval_seed: int = 1
    episodes_per_variant: int = 20


def _scalar_fields(cls) -> list:
    """Fields settable from a flag or config line (tuples such as
    RewardConfig.priority_weights are not)."""
    return [f for f in fields(cls) if f.type in ("int", "float", "str")]


def _keys(cls) -> list[str]:
    return [f.name for f in _scalar_fields(cls)]


# Every knob in one flat record: training hyperparameters, reward shaping,
# then the command-level settings, each with its package default.
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default))
     for cls in (Hyperparams, RewardConfig, CommandSettings)
     for f in _scalar_fields(cls)],
    frozen=True)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# key -> the dataclass whose field it is; parse_field reads the key as that field
_OWNERS = {key: cls for cls in (Hyperparams, RewardConfig, CommandSettings) for key in _keys(cls)}


def load_config_file(path: str) -> dict[str, object]:
    """Flat `key = value` text; # comments and blank lines ignored;
    unknown keys rejected; a value that breaks its own field's rule fails
    at its line (the win-reward rule spans keys, so it waits for the flags)."""
    section = read_sections(path)[0]
    values: dict[str, object] = {}
    for key, line in section.lines.items():
        if key not in _OWNERS:
            raise section.fail(f"unknown config key {key!r}", line)
        values[key] = section.parse(key, partial(parse_field, _OWNERS[key], key))
    return values


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Defaults, then config file, then explicit flags; returns the
    resolved config plus where each key not left at its default was set:
    ``--flag`` or ``key in PATH`` of the config file."""
    merged: dict[str, object] = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    set_by = {name: f"{name} in {args.config}" for name in merged}
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
            set_by[name] = f"--{name.replace('_', '-')}"
    return RunConfig(**merged), set_by


def print_config(config: RunConfig) -> None:
    for name in _FIELD_TYPES:
        print(f"{name} = {format_value(getattr(config, name))}")


def _settings(cls, config: RunConfig):
    """The ``cls`` dataclass (Hyperparams or RewardConfig) from ``config``."""
    return cls(**{key: getattr(config, key) for key in _keys(cls)})


def _machine_ids(config: RunConfig) -> list[int]:
    known = {m.id for m in builtin_catalog()}
    try:
        ids = [int(tok) for tok in config.machines.split(",") if tok.strip()]
    except ValueError as exc:
        raise ContractViolationError(
            f"bad machines list {config.machines!r}") from exc
    if not ids or any(i not in known for i in ids) or len(set(ids)) < len(ids):
        raise ContractViolationError(
            f"machines must be distinct ids from {sorted(known)}")
    return ids


def _load_variants(config: RunConfig, split: str):
    variants = load_catalog(config.catalog_path)
    if split != "all":
        variants = [v for v in variants if v.split == split]
    if not variants:
        raise ContractViolationError(
            f"no variants with split {split!r} in {config.catalog_path}")
    return variants


def cmd_catalog(config: RunConfig) -> int:
    per_machine = config.train_per_machine + config.holdout_per_machine
    if min(config.train_per_machine, config.holdout_per_machine) < 0 or per_machine < 1:
        raise ContractViolationError(
            "--train-per-machine and --holdout-per-machine must be >= 0, and not both 0")
    variants = []
    for machine_id in _machine_ids(config):
        base = machine_by_id(machine_id)
        batch = generate_variants(base, per_machine, config.catalog_seed)
        batch = [v if i < config.train_per_machine else with_split(v, "holdout")
                 for i, v in enumerate(batch)]
        variants.extend(batch)
        print(f"machine {machine_id}: {config.train_per_machine} train + "
              f"{config.holdout_per_machine} holdout")
    save_catalog(variants, config.catalog_path)
    print(f"wrote {len(variants)} variants to {config.catalog_path}")
    return 0


def cmd_train(config: RunConfig, resume: bool, set_by: dict[str, str]) -> int:
    variants = _load_variants(config, "train")
    hyper = _settings(Hyperparams, config)
    checkpoint = None
    if resume:
        checkpoint = load_checkpoint(config.checkpoint_path)
        # the run continues with the checkpoint's hyperparameters; only the
        # step budget may change.  A key of the config file counts as set,
        # like a flag.
        changed = [set_by[name] for name in _keys(Hyperparams)
                   if name != "total_steps" and name in set_by
                   and getattr(config, name) != getattr(checkpoint.hyper, name)]
        if changed:
            raise ContractViolationError(
                f"{', '.join(changed)}: the checkpoint was trained with another "
                "value; only --total-steps can change on --resume")
        if "total_steps" in set_by:
            checkpoint.hyper = replace(checkpoint.hyper,
                                       total_steps=config.total_steps)
        print(f"resuming from update {checkpoint.update_index} "
              f"({checkpoint.env_steps} env steps)")
        # an interrupted run wrote rows past its checkpoint, the last maybe
        # cut short: keep the whole rows up to it (a+ reads no file as empty)
        with open(config.metrics_path, "a+") as old:
            old.seek(0)
            rows = [row for row in old if row.endswith("\n")]
        kept = []
        for number, row in enumerate(rows, start=1):
            update = re.match(r"update=(\d+)\s", row)
            if update is None:
                raise TextFormatError(f"not a metrics row: {row.strip()!r}",
                                      config.metrics_path, number)
            if int(update[1]) <= checkpoint.update_index:
                kept.append(row)
        write_text(config.metrics_path, "".join(kept))
    last_time = time.perf_counter()
    last_steps = checkpoint.env_steps if checkpoint is not None else 0

    with open(config.metrics_path, "w" if checkpoint is None else "a") as metrics:
        def progress(row: UpdateRow) -> None:
            # the rate goes to stdout only, so metrics.txt stays comparable
            # between runs
            nonlocal last_time, last_steps
            metrics.write(row.as_line() + "\n")
            metrics.flush()
            now = time.perf_counter()
            rate = (row.env_steps - last_steps) / (now - last_time)
            last_time, last_steps = now, row.env_steps
            print(f"{row.as_line()} steps_per_s={rate:.0f}")

        ckpt, _ = train(variants, hyper, reward_config=_settings(RewardConfig, config),
                        checkpoint=checkpoint, progress=progress)
    save_checkpoint(ckpt, config.checkpoint_path)
    print(f"checkpoint written to {config.checkpoint_path} "
          f"after {ckpt.update_index} updates ({ckpt.env_steps} env steps)")
    return 0


_BASELINES = {"random": play_random, "greedy": play_greedy, "oracle": play_oracle}


def cmd_eval(config: RunConfig) -> int:
    # checked for every agent, though only ppo reads the mode
    if config.eval_mode not in EVAL_MODES:
        raise ContractViolationError(f"unknown --eval-mode {config.eval_mode!r}")
    check_count("--episodes-per-variant", config.episodes_per_variant)
    variants = _load_variants(config, config.split)
    reward_config = _settings(RewardConfig, config)
    if config.agent == "ppo":
        ckpt = load_checkpoint(config.checkpoint_path)
        report = evaluate(ckpt.actor, variants,
                          episodes_per_variant=config.episodes_per_variant,
                          mode=config.eval_mode, seed=config.eval_seed,
                          reward_config=reward_config)
    elif config.agent in _BASELINES:
        # the oracle's path is exact, so one row per variant
        episodes = 1 if config.agent == "oracle" else config.episodes_per_variant
        report = evaluate_agent(_BASELINES[config.agent], variants, episodes,
                                config.agent, config.eval_seed, reward_config)
    else:
        raise ContractViolationError(f"unknown agent {config.agent!r}")
    lost = sum(not row.win for row in report.rows)
    if config.agent == "oracle" and lost:
        return _inconsistent(lost)
    print(format_eval_table(report, label=config.agent))
    write_episode_csv(config.episodes_csv, report.rows)
    print(f"per-episode steps written to {config.episodes_csv}")
    return 0


def _inconsistent(unreachable: int) -> int:
    print(f"error: {unreachable} certified variants have no feasible "
          "path (catalog inconsistency)", file=sys.stderr)
    return 2


def cmd_oracle(config: RunConfig) -> int:
    variants = _load_variants(config, config.split)
    infeasible = 0
    for variant in variants:
        result = oracle_shortest(variant)
        if result.shortest_steps is None:
            infeasible += 1
            steps_text = "-"
        else:
            steps_text = str(result.shortest_steps)
        witness = ",".join(str(int(a)) for a in result.witness)
        print(f"machine={variant.base_id} variant_seed={variant.variant_seed} "
              f"shortest_steps={steps_text} witness={witness or '-'}")
    return _inconsistent(infeasible) if infeasible else 0


def _inspect_bands(config_text: str | None, base) -> TargetBands:
    if config_text is None:
        return target_bands(base, (1.0,) * 4)
    parts = [tok for tok in config_text.split(",") if tok.strip()]
    if len(parts) != 10:
        raise ContractViolationError(
            f"--bands needs 10 comma-separated numbers (lo,hi for {', '.join(FLAG_NAMES)})")
    try:
        vals = [float(tok) for tok in parts]
    except ValueError as exc:
        raise ContractViolationError(f"bad --bands value: {exc}") from exc
    return TargetBands(*zip(vals[0::2], vals[1::2]))


def cmd_inspect(args: argparse.Namespace) -> int:
    base = machine_by_id(args.machine)
    design = DesignPoint(
        length=args.length if args.length is not None else base.base_design.length,
        turns=args.turns if args.turns is not None else base.base_design.turns,
        tooth_tip=(args.tooth_tip if args.tooth_tip is not None
                   else base.base_design.tooth_tip))
    perf = evaluate_design(design, base)
    bands = _inspect_bands(args.bands, base)
    flag_values = flags(perf, bands)
    print(f"machine {base.id}: rated_power_kw={base.rated_power:.0f} "
          f"line_voltage_v={base.line_voltage:.0f}")
    print(f"design: length={design.length!r} turns={design.turns} "
          f"tooth_tip={design.tooth_tip!r}")
    for name, value, flag, band in zip(FLAG_NAMES, perf.as_tuple(), flag_values,
                                       bands.as_tuple()):
        print(f"{name} = {value!r} band=({band[0]!r}, {band[1]!r}) flag={flag}")
    print(f"feasible = {'yes' if all_flags_zero(flag_values) else 'no'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors via exit code 1."""

    def error(self, message):
        raise ContractViolationError(message)


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        kind = _FIELD_TYPES[name]
        typ = {"int": int, "float": float}.get(kind, str)
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ,
                            default=None, dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="motorgame",
                     description="Induction-machine design game: catalog, "
                                 "PPO training, evaluation, oracle, inspect.")
    parser.add_argument("--config", default=None,
                        help="key = value config file (flags override it)")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the fully resolved configuration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="generate and certify variants")
    _add_config_flags(p_cat, ["catalog_seed", "catalog_path", "machines",
                              "train_per_machine", "holdout_per_machine"])

    p_train = sub.add_parser("train", help="train the PPO policy")
    _add_config_flags(p_train, _keys(Hyperparams) + _keys(RewardConfig)
                      + ["catalog_path", "checkpoint_path", "metrics_path"])
    p_train.add_argument("--resume", action="store_true",
                         help="continue from an existing checkpoint, with its "
                              "hyperparameters; only --total-steps may change")

    p_eval = sub.add_parser("eval", help="evaluate a policy or baseline")
    # the reward values change none of eval's outputs; max_steps ends episodes
    _add_config_flags(p_eval, ["max_steps", "catalog_path", "checkpoint_path",
                               "episodes_csv", "split", "agent", "eval_mode",
                               "eval_seed", "episodes_per_variant"])

    p_oracle = sub.add_parser("oracle", help="shortest paths per variant")
    _add_config_flags(p_oracle, ["catalog_path", "split"])

    p_inspect = sub.add_parser("inspect", help="evaluate one design point")
    p_inspect.add_argument("machine", type=int)
    p_inspect.add_argument("--length", type=float, default=None)
    p_inspect.add_argument("--turns", type=int, default=None)
    p_inspect.add_argument("--tooth-tip", type=float, default=None, dest="tooth_tip")
    p_inspect.add_argument("--bands", default=None,
                           help="10 comma-separated numbers: lo,hi per quantity")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config, set_by = resolve_config(args)
        if args.print_config:
            print_config(config)
        if args.command == "catalog":
            return cmd_catalog(config)
        if args.command == "train":
            return cmd_train(config, args.resume, set_by)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "oracle":
            return cmd_oracle(config)
        return cmd_inspect(args)
    except TrainingDivergedError as exc:
        where = (f" at update {exc.update_index}"
                 if exc.update_index is not None else "")
        print(f"error: training diverged{where}: {exc}", file=sys.stderr)
        return 2
    except (MotorGameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
