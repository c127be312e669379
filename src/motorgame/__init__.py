"""Learning to dimension induction machines as a discrete design game.

A catalog of base machines and target-band variants defines episodic
search problems over a (length, turns, tooth-tip) lattice; an analytical
surrogate scores each point; a from-scratch PPO agent learns to reach
all-zero performance flags in as few steps as possible, bracketed by
random/greedy baselines and an exact BFS oracle.
"""

from .catalog import (
    BaseMachine,
    MachineVariant,
    TargetBands,
    builtin_catalog,
    generate_variants,
    load_catalog,
    machine_by_id,
    save_catalog,
)
from .env import Action, DesignEnv, RewardConfig, run_episode
from .errors import (
    CheckpointFormatError,
    ContractViolationError,
    GenerationExhaustedError,
    MalformedCatalogError,
    MotorGameError,
    TrainingDivergedError,
)
from .ppo import Hyperparams, evaluate, load_checkpoint, save_checkpoint, train
from .surrogate import DesignPoint, Performance, evaluate as evaluate_design

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BaseMachine",
    "CheckpointFormatError",
    "ContractViolationError",
    "DesignEnv",
    "DesignPoint",
    "GenerationExhaustedError",
    "Hyperparams",
    "MachineVariant",
    "MalformedCatalogError",
    "MotorGameError",
    "Performance",
    "RewardConfig",
    "TargetBands",
    "TrainingDivergedError",
    "builtin_catalog",
    "evaluate",
    "evaluate_design",
    "generate_variants",
    "load_catalog",
    "machine_by_id",
    "run_episode",
    "save_catalog",
    "train",
]
