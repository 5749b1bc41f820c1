"""Knowledge perturbation experiments, head/layer ablation grids, and
attention / similarity inspection of the reasoning stack."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import (
    RELATIONS,
    AlphaNliInstance,
    KnowledgeRule,
    copy_alpha_instance,
    copy_cip_instance,
)
from .errors import ConfigError, PerturbationError
from .model import ModelConfig
from .train import TrainConfig, evaluate, fit

PERTURBATION_MODES = (
    "remove_irrelevant",
    "remove_relevant_and_partial",
    "replace_relevant",
    "drop_relations",
    "drop_random",
)

_RELEVANCE_MODES = ("remove_irrelevant", "remove_relevant_and_partial", "replace_relevant")


@dataclass
class PerturbationSpec:
    mode: str
    relation_set: Optional[frozenset] = None
    k: Optional[int] = None
    seed: int = 0
    # rules whose relevance is listed here are never hit by drop_random
    exclude_relevance: frozenset = frozenset()

    def __post_init__(self):
        if self.mode not in PERTURBATION_MODES:
            raise ConfigError(f"unknown perturbation mode {self.mode!r}")
        if self.mode == "drop_relations":
            if not self.relation_set:
                raise ConfigError("drop_relations requires relation_set")
            unknown = set(self.relation_set) - set(RELATIONS)
            if unknown:
                raise ConfigError(f"unknown relations {sorted(unknown)}")
            self.relation_set = frozenset(self.relation_set)
        if self.mode == "drop_random":
            if self.k is None or self.k < 0:
                raise ConfigError("drop_random requires k >= 0")

    def label(self) -> str:
        if self.mode == "drop_relations":
            return f"drop_relations[{','.join(sorted(self.relation_set))}]"
        if self.mode == "drop_random":
            return f"drop_random[k={self.k}]"
        return self.mode


def _negated(tail: str) -> str:
    return f"not {tail}"


def _perturb_rules(
    rules: list[KnowledgeRule],
    spec: PerturbationSpec,
    antonym_map: dict[str, str],
    rng: np.random.Generator,
) -> list[KnowledgeRule]:
    if spec.mode in _RELEVANCE_MODES and any(r.relevance is None for r in rules):
        raise PerturbationError(
            f"mode {spec.mode} needs relevance labels on every rule"
        )
    if spec.mode == "remove_irrelevant":
        return [r for r in rules if r.relevance != "irrelevant"]
    if spec.mode == "remove_relevant_and_partial":
        return [r for r in rules if r.relevance not in ("relevant", "partial")]
    if spec.mode == "replace_relevant":
        out = []
        for r in rules:
            if r.relevance == "relevant":
                new_tail = antonym_map.get(r.tail, _negated(r.tail))
                out.append(replace(r, tail=new_tail))
            else:
                out.append(r)
        return out
    if spec.mode == "drop_relations":
        return [r for r in rules if r.relation not in spec.relation_set]
    # drop_random
    droppable = [
        i for i, r in enumerate(rules) if r.relevance not in spec.exclude_relevance
    ]
    k = min(spec.k, len(droppable))
    if k == 0:
        return list(rules)
    dropped = set(rng.choice(droppable, size=k, replace=False).tolist())
    return [r for i, r in enumerate(rules) if i not in dropped]


def apply_perturbation(instance, spec: PerturbationSpec, antonym_map=None, rng=None):
    """Return a copy of the instance with perturbed knowledge; the task text
    is never touched."""
    antonym_map = antonym_map or {}
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    if isinstance(instance, AlphaNliInstance):
        out = copy_alpha_instance(instance)
        out.rules_per_option = [
            _perturb_rules(rules, spec, antonym_map, rng)
            for rules in instance.rules_per_option
        ]
        return out
    out = copy_cip_instance(instance)
    out.rules = _perturb_rules(instance.rules, spec, antonym_map, rng)
    return out


def perturbation_experiment(
    model, instances, specs: Sequence[PerturbationSpec], antonym_map=None
) -> list[dict]:
    """Evaluate one trained model against each perturbed copy of the data.
    The first row is the unperturbed baseline; deltas are in accuracy points
    (percent)."""
    baseline = evaluate(model, instances)
    rows = [{"spec": "none", "accuracy": baseline, "delta_points": 0.0}]
    for spec in specs:
        rng = np.random.default_rng(spec.seed)
        perturbed = [
            apply_perturbation(inst, spec, antonym_map, rng) for inst in instances
        ]
        acc = evaluate(model, perturbed)
        rows.append(
            {
                "spec": spec.label(),
                "accuracy": acc,
                "delta_points": (acc - baseline) * 100.0,
            }
        )
    return rows


def ablate_heads_layers(
    head_counts: Sequence[int],
    layer_counts: Sequence[int],
    model_cfg: ModelConfig,
    vocab,
    train_instances,
    dev_instances,
    test_instances,
    train_cfg: TrainConfig,
    arch: str = "mhka",
) -> list[dict]:
    """Train one model per (heads, layers) cell with a shared seed; layer
    counts set both the knowledge and reasoning depths. Cells whose head
    count does not divide d_model are flagged and skipped."""
    grid = []
    for heads in head_counts:
        for layers in layer_counts:
            if model_cfg.d_model % heads:
                grid.append(
                    {
                        "heads": heads,
                        "layers": layers,
                        "skipped": f"d_model {model_cfg.d_model} not divisible by {heads}",
                    }
                )
                continue
            cfg = replace(
                model_cfg, n_heads=heads, know_layers=layers, reason_layers=layers
            )
            model, _ = fit(arch, cfg, vocab, train_instances, dev_instances, train_cfg)
            grid.append(
                {
                    "heads": heads,
                    "layers": layers,
                    "accuracy": evaluate(model, test_instances),
                }
            )
    return grid


@dataclass
class RuleReport:
    index: int
    relation: str
    attention_mass: float
    similarity: float
    relevance: Optional[str] = None


@dataclass
class AttentionReport:
    instance_id: str
    option: int
    prediction: object
    correct: bool
    rules: list[RuleReport] = field(default_factory=list)

    def top_rule_index(self) -> int:
        return max(self.rules, key=lambda r: r.attention_mass).index


def _traced_forward(model, instance):
    """(prediction, traces) of one eval-mode forward; the caller's mode is
    restored afterwards."""
    was_training = model.training
    model.eval_mode()
    try:
        _, prediction, traces = model.forward(instance)
    finally:
        if was_training:
            model.train_mode()
    if not traces:
        raise ConfigError(
            f"attention inspection needs an mhka model, not a {model.arch} one"
        )
    return prediction, traces


def _option_rules(instance, option: int):
    rules = (instance.rules_per_option[option - 1]
             if isinstance(instance, AlphaNliInstance) else instance.rules)
    if not rules:
        raise PerturbationError(f"instance {instance.id} has no rules to inspect")
    return rules


def _rule_masses(trace) -> np.ndarray:
    """Per-rule attention mass of one option's trace: final reasoning layer
    weights summed over each rule's token span, averaged over heads and
    query positions, then normalized to sum 1 across rules.
    """
    weights = trace.reasoning_attention  # (heads, queries, knowledge positions)
    masses = np.array([weights[:, :, a:b].sum() for a, b in trace.knowledge_seq.rule_spans],
                      dtype=np.float64)
    masses /= weights.shape[0] * weights.shape[1]
    total = masses.sum()
    if total > 0:
        masses = masses / total
    return masses


def inspect(model, instance, option: Optional[int] = None) -> AttentionReport:
    """Per-rule attention mass and similarity for one instance.

    Attention mass: see `_rule_masses`. Similarity: dot product between the
    reasoning stack's final [CLS] vector and the rule's mean-pooled
    knowledge-encoder representation.
    """
    prediction, traces = _traced_forward(model, instance)
    opt = 1
    if isinstance(instance, AlphaNliInstance):
        opt = option if option is not None else prediction
    rules = _option_rules(instance, opt)
    trace = traces[opt]
    masses = _rule_masses(trace)
    sims = [
        float(trace.cls_vector @ trace.knowledge_hidden[a:b].mean(axis=0))
        for a, b in trace.knowledge_seq.rule_spans
    ]
    report = AttentionReport(
        instance_id=instance.id,
        option=opt,
        prediction=prediction,
        correct=prediction == instance.gold,
    )
    # spans list parallels the surviving rules after whole-rule truncation
    for i, (mass, sim) in enumerate(zip(masses, sims)):
        report.rules.append(
            RuleReport(
                index=i,
                relation=rules[i].relation,
                attention_mass=float(mass),
                similarity=sim,
                relevance=rules[i].relevance,
            )
        )
    return report


def decisive_top_rate(model, instances, decisive_index: dict) -> dict:
    """Fraction of correctly predicted instances whose planted decisive rule
    carries the top attention mass. One eval-mode forward per instance; the
    caller's mode is restored afterwards."""
    correct_total = 0
    hits = 0
    for inst in instances:
        prediction, traces = _traced_forward(model, inst)
        if prediction != inst.gold:
            continue
        option = prediction if isinstance(inst, AlphaNliInstance) else 1
        planted = decisive_index.get((inst.id, option))
        if planted is None:
            continue
        correct_total += 1
        _option_rules(inst, option)  # raises for an option without rules
        if int(np.argmax(_rule_masses(traces[option]))) == planted:
            hits += 1
    rate = hits / correct_total if correct_total else 0.0
    return {"correct_with_decisive": correct_total, "top_hits": hits, "rate": rate}
