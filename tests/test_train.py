"""Trainer semantics at toy scale: determinism, subsampling, grids, seeds."""

import numpy as np
import pytest

from mhka import text as tx  # noqa: F401 - used across the class bodies
from mhka.checkpoint import save_checkpoint
from mhka.data import CipInstance
from mhka.errors import ConfigError, DataError, TrainingError
from mhka.model import ModelConfig
from mhka.synth import SynthConfig, corpus_texts, synth_alpha_nli, synth_cip
from mhka.train import (
    DESK_GRID,
    PAPER_GRID,
    Metrics,
    TrainConfig,
    evaluate,
    fit,
    grid_search,
    seed_average,
    subsample,
    train,
    transfer,
)


def tiny_suite(task="alpha", n=24, rules=2, seed=5):
    cfg = SynthConfig(n_instances=n, seed=seed, rules_per_instance=rules, vocab_size=10)
    instances, _ = (synth_alpha_nli if task == "alpha" else synth_cip)(cfg)
    vocab = tx.build_vocab(corpus_texts(instances))
    half = n // 2
    return instances[:half], instances[half:], vocab


def tiny_model_cfg(vocab, **kw):
    base = dict(
        vocab_size=len(vocab), d_model=8, n_heads=2, ctx_layers=1, know_layers=1,
        reason_layers=1, d_ff=16, max_positions=64, dropout=0.1, dtype="float32",
    )
    base.update(kw)
    return ModelConfig(**base)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_paper_grid_mirrors_search_space(self):
        assert PAPER_GRID["lr"] == [1e-5, 2e-5, 5e-6]
        assert PAPER_GRID["batch_size"] == [4, 8]
        assert PAPER_GRID["epochs"] == [3, 5, 10]

    def test_desk_grid_same_shape(self):
        assert set(DESK_GRID) == set(PAPER_GRID)


class TestTrainLoop:
    def test_bit_identical_trajectories(self):
        tr, dv, vocab = tiny_suite()
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=3)

        def run():
            _, metrics = fit("mhka", tiny_model_cfg(vocab), vocab, tr, dv, cfg)
            return metrics

        a, b = run(), run()
        assert a.train_loss == b.train_loss
        assert a.dev_accuracy == b.dev_accuracy

    def test_best_epoch_restored(self):
        tr, dv, vocab = tiny_suite()
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=0)
        model, metrics = fit("blind", tiny_model_cfg(vocab), vocab, tr, dv, cfg)
        assert metrics.best_dev_accuracy == max(metrics.dev_accuracy)
        assert evaluate(model, dv) == metrics.best_dev_accuracy

    def test_empty_data_rejected(self):
        tr, dv, vocab = tiny_suite()
        from mhka.model import build_model

        model = build_model("blind", tiny_model_cfg(vocab), vocab, seed=0)
        with pytest.raises(DataError):
            train(model, [], dv, TrainConfig())
        with pytest.raises(DataError):
            evaluate(model, [])

    def test_divergence_reported_with_step(self):
        tr, dv, vocab = tiny_suite()
        from mhka.model import build_model

        model = build_model("blind", tiny_model_cfg(vocab), vocab, seed=0)
        model.head.w.data[:] = np.nan  # poison the forward pass
        with pytest.raises(TrainingError, match="step"):
            train(model, tr, dv, TrainConfig(epochs=1))


class TestEvaluate:
    def test_all_correct_toy(self):
        tr, dv, vocab = tiny_suite()
        from mhka.model import build_model

        model = build_model("blind", tiny_model_cfg(vocab), vocab, seed=0)
        model.eval_mode()
        preds = [model.predict(i) for i in dv]
        rigged = [
            type(inst)(**{**inst.__dict__, "gold": pred})
            for inst, pred in zip(dv, preds)
        ]
        assert evaluate(model, rigged) == 1.0


class TestSubsample:
    def test_identity_at_full_fraction(self):
        tr, _, _ = tiny_suite()
        assert subsample(tr, 1.0, seed=1) == list(tr)

    def test_size_is_rounded_product(self):
        tr, dv, _ = tiny_suite(n=40)
        data = tr + dv
        assert len(subsample(data, 0.25, seed=0)) == 10
        # the stated arithmetic: 5% of 169654 rounds to 8483
        assert round(0.05 * 169654) == 8483

    def test_same_seed_same_subset(self):
        tr, _, _ = tiny_suite()
        a = subsample(tr, 0.5, seed=9)
        b = subsample(tr, 0.5, seed=9)
        assert [i.id for i in a] == [i.id for i in b]

    def test_cip_stratified(self):
        instances, more, _ = tiny_suite(task="cip", n=40)
        data = instances + more
        labels = [i.gold for i in data]
        want_yes = labels.count("yes")
        sub = subsample(data, 0.5, seed=2)
        got_yes = sum(1 for i in sub if i.gold == "yes")
        assert abs(got_yes - round(0.5 * want_yes)) <= 1

    def test_bad_fraction(self):
        tr, _, _ = tiny_suite()
        with pytest.raises(ConfigError):
            subsample(tr, 0.0, seed=0)


class TestGridSearch:
    @staticmethod
    def fake_run_factory(scores):
        def run(cfg: TrainConfig) -> Metrics:
            key = (cfg.lr, cfg.batch_size, cfg.epochs)
            m = Metrics(seed=cfg.seed)
            m.best_dev_accuracy = scores.get(key, 0.5)
            return m

        return run

    def test_singleton_grid(self):
        run = self.fake_run_factory({})
        best, table = grid_search(run, {"lr": [1e-4]}, TrainConfig())
        assert best.lr == 1e-4
        assert len(table) == 1

    def test_paper_grid_cardinality(self):
        run = self.fake_run_factory({})
        _, table = grid_search(run, PAPER_GRID, TrainConfig())
        assert len(table) == 18

    def test_tie_break_prefers_lower(self):
        run = self.fake_run_factory({})  # all equal at 0.5
        best, _ = grid_search(
            run,
            {"lr": [1e-3, 1e-4], "batch_size": [8, 4], "epochs": [5, 3]},
            TrainConfig(),
        )
        assert (best.lr, best.batch_size, best.epochs) == (1e-4, 4, 3)

    def test_best_by_dev_accuracy(self):
        run = self.fake_run_factory({(3e-4, 8, 5): 0.9})
        best, table = grid_search(
            run, {"lr": [1e-4, 3e-4], "batch_size": [8], "epochs": [5]}, TrainConfig()
        )
        assert best.lr == 3e-4
        assert {row["lr"] for row in table} == {1e-4, 3e-4}


class TestSeedAverage:
    def test_deterministic_run_has_zero_variance(self):
        out = seed_average(lambda seed: 0.75, [1, 2, 3, 4, 5])
        assert out["mean"] == 0.75
        assert out["variance"] == 0.0

    def test_single_seed(self):
        out = seed_average(lambda seed: 0.6, [42])
        assert out["mean"] == 0.6

    def test_population_variance(self):
        out = seed_average(lambda seed: float(seed), [0, 1])
        assert out["mean"] == 0.5
        assert out["variance"] == 0.25


class TestTransfer:
    def test_head_reinit_trunk_preserved(self, tmp_path):
        tr_a, dv_a, vocab = tiny_suite(task="cip")
        mcfg = tiny_model_cfg(vocab)
        model, _ = fit("mhka", mcfg, vocab, tr_a, dv_a, TrainConfig(epochs=1, seed=1))
        ckpt = tmp_path / "cip.npz"
        save_checkpoint(ckpt, model)

        alpha_cfg = SynthConfig(n_instances=12, seed=8, rules_per_instance=2, vocab_size=10)
        alpha, _ = synth_alpha_nli(alpha_cfg)
        cfg = TrainConfig(epochs=1, seed=2)
        from mhka.checkpoint import load_checkpoint

        loaded = load_checkpoint(ckpt)
        trunk_before = {
            k: v.data.copy() for k, v in loaded.parameters().items()
            if not k.startswith("head.")
        }
        import numpy as np

        head_rng = np.random.default_rng(cfg.seed)
        loaded.head.reinit(head_rng, loaded.cfg)
        for k, v in trunk_before.items():
            assert np.array_equal(loaded.parameters()[k].data, v)

        model2, metrics = transfer(ckpt, alpha[:8], alpha[8:], cfg)
        assert isinstance(metrics.best_dev_accuracy, float)

    def test_missing_checkpoint(self, tmp_path):
        from mhka.errors import CheckpointError

        with pytest.raises(CheckpointError):
            transfer(tmp_path / "nope.npz", [], [], TrainConfig())

    def test_loaded_trunk_behaves_like_source_on_probe_batch(self, tmp_path):
        tr_c, dv_c, vocab = tiny_suite(task="cip")
        mcfg = tiny_model_cfg(vocab)
        model, _ = fit("mhka", mcfg, vocab, tr_c, dv_c, TrainConfig(epochs=1, seed=1))
        ckpt = tmp_path / "cip.npz"
        save_checkpoint(ckpt, model)
        from mhka.checkpoint import load_checkpoint

        loaded = load_checkpoint(ckpt)
        loaded.head.reinit(np.random.default_rng(0), loaded.cfg)
        loaded.eval_mode()
        model.eval_mode()
        probe = np.array([0, 5, 6, 7, 1])
        a = model.ctx.encode(probe)[0].data
        b = loaded.ctx.encode(probe)[0].data
        assert np.array_equal(a, b)
        ka = model.know.encode(np.array([5, 8]))[0].data
        kb = loaded.know.encode(np.array([5, 8]))[0].data
        assert np.array_equal(ka, kb)

    def test_untrained_transferred_head_sits_near_chance(self, tmp_path):
        tr_c, dv_c, vocab = tiny_suite(task="cip", n=30)
        mcfg = tiny_model_cfg(vocab)
        model, _ = fit("mhka", mcfg, vocab, tr_c, dv_c, TrainConfig(epochs=1, seed=1))
        ckpt = tmp_path / "cip.npz"
        save_checkpoint(ckpt, model)
        from mhka.checkpoint import load_checkpoint

        alpha_cfg = SynthConfig(n_instances=100, seed=8, rules_per_instance=2,
                                vocab_size=10)
        alpha, _ = synth_alpha_nli(alpha_cfg)
        loaded = load_checkpoint(ckpt)
        loaded.head.reinit(np.random.default_rng(3), loaded.cfg)
        loaded.eval_mode()
        acc = evaluate(loaded, alpha)
        assert 0.3 <= acc <= 0.7


class TestMonotoneDataProperty:
    def test_accuracy_non_decreasing_in_fraction_within_noise(self):
        # the stated fraction ladder on a configuration that actually learns
        from dataclasses import replace

        from mhka.model import ModelConfig

        cfg = SynthConfig(n_instances=1400, seed=21, rules_per_instance=4)
        instances, _ = synth_alpha_nli(cfg)
        tr_set, dv_set, te_set = instances[:1000], instances[1000:1100], instances[1100:]
        vocab = tx.build_vocab(corpus_texts(tr_set))
        mc = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4, ctx_layers=1,
                         know_layers=1, reason_layers=1, d_ff=64, max_positions=256,
                         dropout=0.1, dtype="float32")
        base = TrainConfig(lr=1e-3, batch_size=8, epochs=6, seed=5)
        accs = []
        for fraction in (0.01, 0.02, 0.05, 0.10, 1.0):
            model, _ = fit("mhka", mc, vocab, tr_set, dv_set,
                           replace(base, train_fraction=fraction))
            accs.append(evaluate(model, te_set))
        assert all(b >= a - 0.03 for a, b in zip(accs, accs[1:])), accs
        assert accs[-1] > accs[0] + 0.2  # the ladder really climbs


class TestSyntheticRegimeProbe:
    def test_worked_example_predicts_second_hypothesis(self):
        from mhka.data import AlphaNliInstance, KnowledgeRule
        from mhka.model import ModelConfig
        from mhka.synth import AFFIRM, REFUTE

        cfg = SynthConfig(n_instances=400, seed=7, rules_per_instance=4)
        instances, _ = synth_alpha_nli(cfg)
        vocab = tx.build_vocab(corpus_texts(instances[:300]))
        mc = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4, ctx_layers=1,
                         know_layers=1, reason_layers=1, d_ff=64, max_positions=256,
                         dropout=0.1, dtype="float32")
        model, _ = fit("mhka", mc, vocab, instances[:300], instances[300:],
                       TrainConfig(lr=1e-3, batch_size=8, epochs=6, seed=3))
        dotty = AlphaNliInstance(
            id="dotty",
            o1="Dotty was being very grumpy.",
            o2="She felt much better afterwards.",
            h1="Dotty ate something bad.",
            h2="Dotty call some close friends to chat.",
            gold=2,
            rules_per_option=[
                [KnowledgeRule(head="Dotty ate something bad",
                               relation="xReact", tail=REFUTE)],
                [KnowledgeRule(head="Dotty call some close friends to chat",
                               relation="xReact", tail=AFFIRM)],
            ],
        )
        _, prediction, _ = model.forward(dotty)
        assert prediction == 2
