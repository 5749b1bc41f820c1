"""Training loop, evaluation, grid search, subsampling, transfer, seeds.

Everything here is deterministic given (seed, config, data): the model's own
generator drives initialization, dropout, and batch order; subsampling takes
an explicit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint
from .data import CipInstance
from .errors import CheckpointError, ConfigError, DataError, TrainingError
from .model import ModelConfig, build_model
from .optim import Adam

# The fine-tuning grid the original protocol searched, and a wider one
# suited to training from random initialization.
PAPER_GRID = {"lr": [1e-5, 2e-5, 5e-6], "batch_size": [4, 8], "epochs": [3, 5, 10]}
DESK_GRID = {"lr": [1e-4, 3e-4, 1e-3], "batch_size": [4, 8], "epochs": [3, 5, 10]}


@dataclass
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    train_fraction: float = 1.0
    grid: Optional[dict[str, list]] = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1], got {self.train_fraction}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Metrics:
    seed: int
    train_loss: list[float] = field(default_factory=list)
    dev_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_accuracy: float = 0.0
    test_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(model, instances) -> float:
    """Fraction of instances whose prediction equals gold."""
    if not instances:
        raise DataError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval_mode()
    correct = sum(1 for inst in instances if model.predict(inst) == inst.gold)
    if was_training:
        model.train_mode()
    return correct / len(instances)


def train(model, train_instances, dev_instances, config: TrainConfig) -> Metrics:
    """Mini-batch Adam over shuffled instances; the parameters of the best
    dev-accuracy epoch are restored into the model before returning."""
    if not train_instances:
        raise DataError("cannot train on an empty dataset")
    if not dev_instances:
        raise DataError("cannot train without a dev split")
    params = model.parameters()
    opt = Adam(params, lr=config.lr)
    metrics = Metrics(seed=config.seed)
    best_snapshot = None
    step = 0
    for epoch in range(config.epochs):
        model.train_mode()
        order = model.rng.permutation(len(train_instances))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_instances[i] for i in order[start : start + config.batch_size]]
            opt.zero_grad()
            total = None
            for inst in batch:
                loss, _ = model.instance_loss(inst)
                total = loss if total is None else total + loss
            batch_loss = total * (1.0 / len(batch))
            value = batch_loss.item()
            step += 1
            if not np.isfinite(value):
                raise TrainingError(f"loss became non-finite at step {step}")
            batch_loss.backward()
            opt.step()
            losses.append(value)
        metrics.train_loss.append(float(np.mean(losses)))
        dev_acc = evaluate(model, dev_instances)
        metrics.dev_accuracy.append(dev_acc)
        if best_snapshot is None or dev_acc > metrics.best_dev_accuracy:
            metrics.best_dev_accuracy = dev_acc
            metrics.best_epoch = epoch
            best_snapshot = {name: p.data.copy() for name, p in params.items()}
    for name, p in params.items():
        p.data = best_snapshot[name]
    model.eval_mode()
    return metrics


def subsample(instances: Sequence, fraction: float, seed: int) -> list:
    """Uniform sample without replacement of round(fraction * n) instances.
    Counterfactual data is stratified by label to preserve balance."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(instances)
    n = len(instances)
    total = int(round(fraction * n))
    if total < 1:
        raise DataError(f"fraction {fraction} of {n} instances leaves nothing")
    rng = np.random.default_rng(seed)
    if instances and isinstance(instances[0], CipInstance):
        by_label: dict[str, list[int]] = {}
        for i, inst in enumerate(instances):
            by_label.setdefault(inst.gold, []).append(i)
        # largest-remainder allocation of the exact total across labels
        labels = sorted(by_label)
        quotas = {lab: total * len(by_label[lab]) / n for lab in labels}
        take = {lab: int(quotas[lab]) for lab in labels}
        short = total - sum(take.values())
        for lab in sorted(labels, key=lambda l: quotas[l] - take[l], reverse=True)[:short]:
            take[lab] += 1
        chosen: list[int] = []
        for lab in labels:
            idx = by_label[lab]
            chosen += [idx[j] for j in rng.choice(len(idx), size=take[lab], replace=False)]
        chosen.sort()
    else:
        chosen = sorted(rng.choice(n, size=total, replace=False).tolist())
    return [instances[i] for i in chosen]


def grid_search(
    run: Callable[[TrainConfig], Metrics],
    grid: dict[str, list],
    base: TrainConfig,
    jobs: int = 1,
) -> tuple[TrainConfig, list[dict]]:
    """Exhaustive sweep over the grid axes. `run` trains one model and
    returns its Metrics; with jobs > 1 it must be picklable (a module-level
    function, or a functools.partial of one). Rows come back in deterministic
    grid order. Best is by dev accuracy, ties broken by (lower lr, smaller
    batch, fewer epochs).
    """
    if not grid:
        raise ConfigError("grid must not be empty")
    axes = sorted(grid)
    combos = [dict(zip(axes, values)) for values in itertools.product(*(grid[a] for a in axes))]
    configs = [replace(base, **combo) for combo in combos]
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: workers start clean instead of inheriting the
        # parent's BLAS thread pools and open files
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            results = list(pool.map(run, configs))
    else:
        results = [run(cfg) for cfg in configs]
    table = []
    for cfg, metrics in zip(configs, results):
        table.append(
            {
                "lr": cfg.lr,
                "batch_size": cfg.batch_size,
                "epochs": cfg.epochs,
                "dev_accuracy": metrics.best_dev_accuracy,
                "best_epoch": metrics.best_epoch,
            }
        )
    best = max(
        range(len(configs)),
        key=lambda i: (
            table[i]["dev_accuracy"],
            -configs[i].lr,
            -configs[i].batch_size,
            -configs[i].epochs,
        ),
    )
    return configs[best], table


def transfer(
    checkpoint_path,
    alpha_train,
    alpha_dev,
    config: TrainConfig,
    model_overrides: dict | None = None,
):
    """Load a counterfactual-task checkpoint, re-initialize only the
    classifier head, then train on the abductive subset."""
    model = load_checkpoint(checkpoint_path)
    if model_overrides:
        expected = ModelConfig.from_dict({**model.cfg.to_dict(), **model_overrides})
        if expected.d_model != model.cfg.d_model:
            raise CheckpointError(
                f"checkpoint d_model {model.cfg.d_model} incompatible with requested "
                f"{expected.d_model}"
            )
    head_rng = np.random.default_rng(config.seed)
    model.head.reinit(head_rng, model.cfg)
    model.rng = np.random.default_rng(config.seed)
    metrics = train(model, alpha_train, alpha_dev, config)
    return model, metrics


def seed_average(run: Callable[[int], float], seeds: Sequence[int]) -> dict:
    """Arithmetic mean and population variance of a per-seed accuracy."""
    if not seeds:
        raise ConfigError("need at least one seed")
    per_seed = [float(run(seed)) for seed in seeds]
    return {
        "seeds": list(seeds),
        "per_seed": per_seed,
        "mean": float(np.mean(per_seed)),
        "variance": float(np.var(per_seed)),
    }


def fit(arch: str, model_cfg: ModelConfig, vocab, train_instances, dev_instances,
        config: TrainConfig):
    """Build a fresh model under (arch, seed) and train it; the one-seed
    pipeline used by the CLI and the experiment harnesses."""
    data = train_instances
    if config.train_fraction < 1.0:
        data = subsample(train_instances, config.train_fraction, config.seed)
    model = build_model(arch, model_cfg, vocab, seed=config.seed)
    metrics = train(model, data, dev_instances, config)
    return model, metrics
