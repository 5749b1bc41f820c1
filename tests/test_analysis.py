"""Perturbation modes, ablation grid shape, attention inspection."""

import numpy as np
import pytest

from mhka import text as tx
from mhka.analysis import (
    AttentionReport,
    PerturbationSpec,
    apply_perturbation,
    ablate_heads_layers,
    decisive_top_rate,
    inspect,
    perturbation_experiment,
)
from mhka.data import AlphaNliInstance, CipInstance, KnowledgeRule
from mhka.errors import ConfigError, PerturbationError
from mhka.model import ModelConfig, build_model
from mhka.synth import SynthConfig, corpus_texts, synth_alpha_nli
from mhka.train import TrainConfig, evaluate, fit


def rule(head="a b", rel="xWant", tail="c", relevance="irrelevant"):
    return KnowledgeRule(head=head, relation=rel, tail=tail, relevance=relevance)


@pytest.fixture
def alpha():
    return AlphaNliInstance(
        id="p1", o1="a b", o2="c d", h1="e f", h2="g h", gold=1,
        rules_per_option=[
            [rule(relevance="relevant", tail="nice"), rule(rel="xReact"),
             rule(rel="xNeed", relevance="partial")],
            [rule(rel="oWant", relevance="relevant", tail="calm"), rule(rel="xAttr")],
        ],
    )


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(mode="scramble")

    def test_drop_relations_needs_set(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(mode="drop_relations")

    def test_drop_random_needs_k(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(mode="drop_random")


class TestApplyPerturbation:
    def test_remove_irrelevant_when_all_relevant_is_identity(self):
        inst = AlphaNliInstance(
            id="p2", o1="a", o2="b", h1="c", h2="d", gold=1,
            rules_per_option=[[rule(relevance="relevant")], [rule(relevance="relevant")]],
        )
        out = apply_perturbation(inst, PerturbationSpec(mode="remove_irrelevant"))
        assert [len(r) for r in out.rules_per_option] == [1, 1]

    def test_remove_irrelevant_deletes_only_irrelevant(self, alpha):
        out = apply_perturbation(alpha, PerturbationSpec(mode="remove_irrelevant"))
        assert [r.relevance for r in out.rules_per_option[0]] == ["relevant", "partial"]

    def test_remove_relevant_and_partial(self, alpha):
        out = apply_perturbation(alpha, PerturbationSpec(mode="remove_relevant_and_partial"))
        assert all(r.relevance == "irrelevant"
                   for rules in out.rules_per_option for r in rules)

    def test_replace_relevant_uses_antonym_map(self, alpha):
        out = apply_perturbation(
            alpha, PerturbationSpec(mode="replace_relevant"), {"nice": "mean"}
        )
        assert out.rules_per_option[0][0].tail == "mean"
        # missing entry falls back to a negation marker
        assert out.rules_per_option[1][0].tail == "not calm"

    def test_drop_relations(self, alpha):
        spec = PerturbationSpec(mode="drop_relations", relation_set=frozenset({"xWant"}))
        out = apply_perturbation(alpha, spec)
        assert all(r.relation != "xWant"
                   for rules in out.rules_per_option for r in rules)

    def test_drop_random_zero_is_identity(self, alpha):
        out = apply_perturbation(alpha, PerturbationSpec(mode="drop_random", k=0))
        assert [len(r) for r in out.rules_per_option] == [3, 2]

    def test_drop_random_exclusion(self, alpha):
        spec = PerturbationSpec(
            mode="drop_random", k=5, seed=3, exclude_relevance=frozenset({"relevant"})
        )
        out = apply_perturbation(alpha, spec)
        for rules in out.rules_per_option:
            assert [r.relevance for r in rules] == ["relevant"]

    def test_task_text_never_touched(self, alpha):
        out = apply_perturbation(alpha, PerturbationSpec(mode="drop_random", k=2, seed=0))
        assert (out.o1, out.o2, out.h1, out.h2) == (alpha.o1, alpha.o2, alpha.h1, alpha.h2)
        assert out.gold == alpha.gold

    def test_relevance_mode_requires_labels(self):
        inst = CipInstance(
            id="p3", s1="a", s2="b", s3="c", s2_cf="d", gold="no",
            rules=[KnowledgeRule(head="x", relation="xWant", tail="y")],
        )
        with pytest.raises(PerturbationError):
            apply_perturbation(inst, PerturbationSpec(mode="remove_irrelevant"))

    def test_cip_rules_perturbed(self):
        inst = CipInstance(
            id="p4", s1="a", s2="b", s3="c", s2_cf="d", gold="no",
            rules=[rule(), rule(rel="xAttr")],
        )
        out = apply_perturbation(inst, PerturbationSpec(mode="drop_random", k=1, seed=1))
        assert len(out.rules) == 1
        assert inst.rules and len(inst.rules) == 2  # original untouched


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(n_instances=60, seed=13, rules_per_instance=3, vocab_size=12)
    instances, decisive = synth_alpha_nli(cfg)
    vocab = tx.build_vocab(corpus_texts(instances))
    mc = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, ctx_layers=1,
                     know_layers=1, reason_layers=1, d_ff=32, max_positions=64,
                     dtype="float32")
    model, _ = fit("mhka", mc, vocab, instances[:40], instances[40:50],
                   TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=1))
    return model, instances[50:], decisive, vocab, mc


class TestExperiment:
    def test_identity_spec_delta_zero(self, trained):
        model, test, _, _, _ = trained
        rows = perturbation_experiment(
            model, test, [PerturbationSpec(mode="drop_random", k=0)]
        )
        assert rows[0]["spec"] == "none"
        assert rows[1]["delta_points"] == 0.0

    def test_drop_all_rules_still_evaluates(self, trained):
        model, test, _, _, _ = trained
        big_k = max(len(r) for i in test for r in i.rules_per_option)
        rows = perturbation_experiment(
            model, test, [PerturbationSpec(mode="drop_random", k=big_k, seed=0)]
        )
        assert 0.0 <= rows[1]["accuracy"] <= 1.0


class TestAblate:
    def test_grid_shape_and_skips(self, trained):
        model, test, _, vocab, mc = trained
        cfg = SynthConfig(n_instances=20, seed=13, rules_per_instance=2, vocab_size=12)
        instances, _ = synth_alpha_nli(cfg)
        grid = ablate_heads_layers(
            [1, 2, 5], [1], mc, vocab, instances[:12], instances[12:16],
            instances[16:], TrainConfig(lr=1e-3, batch_size=4, epochs=1, seed=0),
        )
        assert len(grid) == 3
        assert "accuracy" in grid[0] and "accuracy" in grid[1]
        assert "not divisible" in grid[2]["skipped"]


class TestInspect:
    def test_single_rule_mass_is_one(self, trained):
        model, test, _, _, _ = trained
        inst = AlphaNliInstance(
            id="one", o1=test[0].o1, o2=test[0].o2, h1=test[0].h1, h2=test[0].h2,
            gold=1,
            rules_per_option=[[test[0].rules_per_option[0][0]],
                              [test[0].rules_per_option[1][0]]],
        )
        report = inspect(model, inst)
        assert len(report.rules) == 1
        assert np.isclose(report.rules[0].attention_mass, 1.0)

    def test_identical_rules_get_near_equal_mass(self, trained):
        # exact equality is impossible: the two copies sit at different
        # positions, and both W_kp and the causal mask see that; what must
        # hold is that the aggregation itself adds no index bias beyond the
        # positional signal
        model, test, _, _, _ = trained
        r = test[0].rules_per_option[0][0]
        inst = AlphaNliInstance(
            id="two", o1=test[0].o1, o2=test[0].o2, h1=test[0].h1, h2=test[0].h2,
            gold=1, rules_per_option=[[r, r], [r, r]],
        )
        report = inspect(model, inst)
        a, b = (x.attention_mass for x in report.rules)
        assert abs(a - b) < 5e-3

    def test_masses_form_probability_vector(self, trained):
        model, test, _, _, _ = trained
        for inst in test[:5]:
            report = inspect(model, inst)
            masses = [r.attention_mass for r in report.rules]
            assert abs(sum(masses) - 1.0) < 1e-6
            assert all(m >= 0 for m in masses)

    def test_no_rules_rejected(self, trained):
        model, test, _, _, _ = trained
        bare = AlphaNliInstance(
            id="none", o1="w1", o2="w2", h1="w3", h2="w4", gold=1,
            rules_per_option=[[], []],
        )
        with pytest.raises(PerturbationError):
            inspect(model, bare)

    def test_report_independent_of_previous_forward(self, trained):
        model, test, _, _, _ = trained
        alone = [inspect(model, inst, option) for inst in test[:4] for option in (1, 2)]
        after = []
        for inst in test[:4]:
            for option in (1, 2):
                model.forward(test[-1])  # another instance runs forward first
                after.append(inspect(model, inst, option))
        assert alone == after

    @pytest.mark.parametrize("arch", ["joint", "blind"])
    def test_baselines_rejected(self, trained, arch):
        _, test, decisive, vocab, mc = trained
        baseline = build_model(arch, mc, vocab, seed=0)
        with pytest.raises(ConfigError, match="needs an mhka model"):
            inspect(baseline, test[0])
        with pytest.raises(ConfigError, match="needs an mhka model"):
            decisive_top_rate(baseline, test[:2], decisive)

    def test_decisive_top_rate_shape(self, trained):
        model, test, decisive, _, _ = trained
        out = decisive_top_rate(model, test[:6], decisive)
        assert set(out) == {"correct_with_decisive", "top_hits", "rate"}
        assert 0.0 <= out["rate"] <= 1.0

    def test_decisive_top_rate_matches_inspect_on_eval_model(self, trained):
        model, test, decisive, _, _ = trained
        assert not model.training
        correct, hits = 0, 0
        for inst in test:
            report = inspect(model, inst)
            planted = decisive.get((inst.id, report.option))
            if report.correct and planted is not None:
                correct += 1
                hits += report.top_rule_index() == planted
        out = decisive_top_rate(model, test, decisive)
        assert correct > 0
        assert (out["correct_with_decisive"], out["top_hits"]) == (correct, hits)

    def test_decisive_top_rate_ignores_training_mode(self, trained):
        model, test, decisive, _, _ = trained
        expected = decisive_top_rate(model, test, decisive)
        model.train_mode()
        try:
            state = model.rng.bit_generator.state
            first = decisive_top_rate(model, test, decisive)
            second = decisive_top_rate(model, test, decisive)
            assert model.training
            assert model.rng.bit_generator.state == state
        finally:
            model.eval_mode()
        assert first == second == expected
