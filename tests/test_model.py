"""Architecture contracts: shapes, masking, symmetry, gradient integrity."""

import numpy as np
import pytest

from mhka import text as tx
from mhka.data import AlphaNliInstance, CipInstance, KnowledgeRule
from mhka.errors import ConfigError, DimensionError
from mhka.gradcheck import check_gradients
from mhka.model import (
    EncoderClassifier,
    MhkaModel,
    ModelConfig,
    build_model,
    classify,
)
from mhka.synth import SynthConfig, corpus_texts, synth_generate
from mhka.tensor import Tensor


def tiny_config(**kw):
    base = dict(
        vocab_size=0,  # filled per vocab
        d_model=8,
        n_heads=2,
        ctx_layers=1,
        know_layers=1,
        reason_layers=1,
        d_ff=16,
        max_positions=32,
        dropout=0.0,
        dtype="float64",
    )
    base.update(kw)
    return base


@pytest.fixture
def vocab():
    return tx.build_vocab(["a b c d e f g h i j k l m n o p q r s t"])


@pytest.fixture
def alpha(vocab):
    rules1 = [KnowledgeRule(head="a b", relation="xWant", tail="c")]
    rules2 = [KnowledgeRule(head="d e", relation="xReact", tail="f")]
    return AlphaNliInstance(
        id="t1", o1="a b c", o2="g h", h1="d e", h2="e d f",
        gold=1, rules_per_option=[rules1, rules2],
    )


@pytest.fixture
def cip(vocab):
    return CipInstance(
        id="c1", s1="a b", s2="c d", s3="e f", s2_cf="g h", gold="yes",
        rules=[KnowledgeRule(head="g h", relation="xEffect", tail="i")],
    )


def make_model(vocab, arch="mhka", seed=0, **kw):
    cfg = ModelConfig(**{**tiny_config(**kw), "vocab_size": len(vocab)})
    model = build_model(arch, cfg, vocab, seed=seed)
    model.eval_mode()
    return model


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_counts_at_least_one(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, know_layers=0)

    def test_roundtrip(self):
        cfg = ModelConfig(vocab_size=11, d_model=16, n_heads=4)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestContextEncoder:
    def test_output_shape(self, vocab):
        model = make_model(vocab)
        seq = tx.TokenSequence(np.array([0, 5, 6, 7, 1]))
        h = model.encode_context(seq)
        assert h.shape == (5, 8)

    def test_eval_determinism(self, vocab):
        model = make_model(vocab)
        seq = tx.TokenSequence(np.array([0, 5, 6, 1]))
        a = model.encode_context(seq).data
        b = model.encode_context(seq).data
        assert np.array_equal(a, b)

    def test_bidirectional_sensitivity(self, vocab):
        # perturbing a later token changes earlier outputs: no causal mask
        model = make_model(vocab)
        a = model.encode_context(tx.TokenSequence(np.array([0, 5, 6, 1]))).data
        b = model.encode_context(tx.TokenSequence(np.array([0, 5, 7, 1]))).data
        assert not np.allclose(a[1], b[1])


class TestKnowledgeEncoder:
    def test_causal_invariance_under_truncation(self, vocab):
        model = make_model(vocab)
        ids = np.array([5, 6, 7, 8, 9, 10])
        full = model.encode_knowledge_stack(tx.TokenSequence(ids)).data
        for cut in (2, 4):
            part = model.encode_knowledge_stack(tx.TokenSequence(ids[:cut])).data
            assert np.max(np.abs(part - full[:cut])) < 1e-6

    def test_output_shape(self, vocab):
        model = make_model(vocab)
        h = model.encode_knowledge_stack(tx.TokenSequence(np.array([5, 6, 7])))
        assert h.shape == (3, 8)


class TestReasoningCell:
    def test_singleton_knowledge_attention_is_one(self, vocab):
        model = make_model(vocab)
        h_x = model.encode_context(tx.TokenSequence(np.array([0, 5, 1])))
        h_k = model.encode_knowledge_stack(tx.TokenSequence(np.array([4])))
        _, weights = model.reasoning_attention(h_x, h_k)
        assert np.allclose(weights, 1.0)

    def test_identical_keys_uniform(self, vocab):
        model = make_model(vocab)
        h_x = model.encode_context(tx.TokenSequence(np.array([0, 5, 1])))
        h_k = model.encode_knowledge_stack(tx.TokenSequence(np.array([6, 6, 6])))
        # same token, but positions differ; force identical rows instead
        h_k = Tensor(np.tile(h_k.data[:1], (4, 1)))
        _, weights = model.reasoning_attention(h_x, h_k)
        assert np.allclose(weights, 0.25)

    def test_query_length_preserved(self, vocab):
        for layers in (1, 2, 3):
            model = make_model(vocab, reason_layers=layers)
            h_x = model.encode_context(tx.TokenSequence(np.array([0, 5, 6, 1])))
            h_k = model.encode_knowledge_stack(tx.TokenSequence(np.array([7, 8])))
            out = model.reasoning_cell(h_x, h_k)
            assert out.shape == h_x.shape

    def test_zeroed_value_path_severs_knowledge(self, vocab):
        model = make_model(vocab)
        for blk in model.reason.blocks:
            blk.wv.data[:] = 0.0
            blk.bv.data[:] = 0.0
            blk.wo.data[:] = 0.0
            blk.bo.data[:] = 0.0
        h_x = model.encode_context(tx.TokenSequence(np.array([0, 5, 6, 1])))
        out1 = model.reasoning_cell(
            h_x, model.encode_knowledge_stack(tx.TokenSequence(np.array([7, 8])))
        ).data
        out2 = model.reasoning_cell(
            h_x, model.encode_knowledge_stack(tx.TokenSequence(np.array([9, 10, 11])))
        ).data
        assert np.allclose(out1, out2)

    def test_depth_changes_output(self, vocab):
        one = make_model(vocab, reason_layers=1)
        two = make_model(vocab, reason_layers=2)
        inst_ids = tx.TokenSequence(np.array([0, 5, 6, 1]))
        know_ids = tx.TokenSequence(np.array([7, 8]))
        a = one.reasoning_cell(
            one.encode_context(inst_ids), one.encode_knowledge_stack(know_ids)
        ).data
        b = two.reasoning_cell(
            two.encode_context(inst_ids), two.encode_knowledge_stack(know_ids)
        ).data
        assert not np.allclose(a, b)

    def test_width_mismatch(self, vocab):
        model = make_model(vocab)
        h_x = model.encode_context(tx.TokenSequence(np.array([0, 5, 1])))
        with pytest.raises(DimensionError):
            model.reasoning_cell(h_x, Tensor(np.zeros((2, 4))))


class TestClassify:
    def test_argmax(self):
        assert classify(np.array([0.3, 0.9])) == 2

    def test_zero_logit_is_no(self):
        assert classify(np.array([0.0])) == "no"

    def test_tie_breaks_low(self):
        assert classify(np.array([0.5, 0.5])) == 1


class TestAlphaForward:
    def test_option_swap_swaps_logits_exactly(self, vocab, alpha):
        model = make_model(vocab)
        logits, pred = model.forward_alpha_nli(alpha)
        swapped = AlphaNliInstance(
            id="t1s", o1=alpha.o1, o2=alpha.o2, h1=alpha.h2, h2=alpha.h1,
            gold=2, rules_per_option=[alpha.rules_per_option[1], alpha.rules_per_option[0]],
        )
        logits_s, pred_s = model.forward_alpha_nli(swapped)
        assert logits.data[0] == logits_s.data[1]
        assert logits.data[1] == logits_s.data[0]
        if pred == 1:
            assert pred_s == 2

    def test_identical_options_tie_to_one(self, vocab, alpha):
        model = make_model(vocab)
        same = AlphaNliInstance(
            id="t2", o1=alpha.o1, o2=alpha.o2, h1=alpha.h1, h2=alpha.h1,
            gold=1, rules_per_option=[alpha.rules_per_option[0], alpha.rules_per_option[0]],
        )
        logits, pred = model.forward_alpha_nli(same)
        assert logits.data[0] == logits.data[1]
        assert pred == 1

    def test_severed_knowledge_still_finite(self, vocab, alpha):
        model = make_model(vocab)
        bare = AlphaNliInstance(
            id="t3", o1=alpha.o1, o2=alpha.o2, h1=alpha.h1, h2=alpha.h2,
            gold=1, rules_per_option=[[], []],
        )
        logits, _ = model.forward_alpha_nli(bare)
        assert np.all(np.isfinite(logits.data))
        assert model.last_traces[1].knowledge_seq.ids.tolist() == [vocab.noknow_id]


class TestCipForward:
    def test_sign_rule_no_dead_zone(self, vocab, cip):
        model = make_model(vocab)
        logit, answer = model.forward_cip(cip)
        assert answer == ("yes" if logit.data[0] > 0 else "no")

    def test_loss_uses_binary_gold(self, vocab, cip):
        model = make_model(vocab)
        loss, _ = model.instance_loss(cip)
        assert np.isfinite(loss.item())


class TestBaselines:
    def test_blind_ignores_knowledge(self, vocab, alpha):
        model = make_model(vocab, arch="blind")
        logits_a, _ = model.forward_alpha_nli(alpha)
        stripped = AlphaNliInstance(
            id="t4", o1=alpha.o1, o2=alpha.o2, h1=alpha.h1, h2=alpha.h2,
            gold=1, rules_per_option=[[], []],
        )
        logits_b, _ = model.forward_alpha_nli(stripped)
        assert np.array_equal(logits_a.data, logits_b.data)

    def test_joint_sees_knowledge(self, vocab, alpha):
        model = make_model(vocab, arch="joint")
        logits_a, _ = model.forward_alpha_nli(alpha)
        stripped = AlphaNliInstance(
            id="t5", o1=alpha.o1, o2=alpha.o2, h1=alpha.h1, h2=alpha.h2,
            gold=1, rules_per_option=[[], []],
        )
        logits_b, _ = model.forward_alpha_nli(stripped)
        assert not np.array_equal(logits_a.data, logits_b.data)

    def test_joint_deterministic(self, vocab, alpha):
        model = make_model(vocab, arch="joint")
        a, _ = model.forward_alpha_nli(alpha)
        b, _ = model.forward_alpha_nli(alpha)
        assert np.array_equal(a.data, b.data)

    def test_unknown_arch(self, vocab):
        with pytest.raises(ConfigError):
            make_model(vocab, arch="rnn")


class TestAttentionRows:
    def test_rows_sum_to_one_randomized(self, vocab):
        rng = np.random.default_rng(0)
        model = make_model(vocab)
        for _ in range(25):
            n_ctx = int(rng.integers(2, 8))
            n_k = int(rng.integers(1, 8))
            ids = rng.integers(5, len(vocab), size=n_ctx)
            kids = rng.integers(5, len(vocab), size=n_k)
            h_x = model.encode_context(tx.TokenSequence(ids))
            h_k = model.encode_knowledge_stack(tx.TokenSequence(kids))
            model.reasoning_cell(h_x, h_k)
            for blk in model.reason.blocks:
                sums = blk.last_attention.sum(axis=-1)
                assert np.max(np.abs(sums - 1.0)) < 1e-6


class TestGradientIntegrity:
    def test_full_alpha_forward_matches_finite_differences(self, vocab, alpha):
        model = make_model(vocab, max_positions=16)
        params = model.parameters()

        def loss_fn():
            loss, _ = model.instance_loss(alpha)
            return loss

        report = check_gradients(loss_fn, params, h=1e-4)
        assert report.ok(1e-3), f"{report.worst_param}: {report.max_rel_error}"

    def test_shared_embedding_flag(self, vocab, alpha):
        model = make_model(vocab, share_embeddings=True, max_positions=16)
        params = model.parameters()
        assert "know.tok_emb" not in params
        assert model.know.tok_emb is model.ctx.tok_emb

        def loss_fn():
            loss, _ = model.instance_loss(alpha)
            return loss

        report = check_gradients(loss_fn, params, h=1e-4)
        assert report.ok(1e-3), f"{report.worst_param}: {report.max_rel_error}"


def _graph(root):
    seen, stack, nodes = {id(root)}, [root], [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
                nodes.append(p)
    return nodes


class TestFloat32Graph:
    @pytest.mark.parametrize("arch", ["mhka", "joint", "blind"])
    @pytest.mark.parametrize("task", ["alpha", "cip"])
    def test_every_node_and_gradient_float32(self, vocab, alpha, cip, arch, task):
        model = make_model(vocab, arch, dtype="float32", dropout=0.1)
        model.train_mode()  # dropout nodes too
        loss, _ = model.instance_loss(alpha if task == "alpha" else cip)
        nodes = _graph(loss)
        wide = [n.shape for n in nodes if n.data.dtype != np.float32]
        assert not wide, f"{len(wide)} of {len(nodes)} nodes are not float32: {wide[:5]}"
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and p.grad.dtype == np.float32, name

    @pytest.mark.parametrize("arch", ["mhka", "joint", "blind"])
    def test_float32_logits_track_float64(self, arch):
        suites = synth_generate(SynthConfig(n_instances=12, seed=5, rules_per_instance=8))
        vocab = tx.build_vocab(corpus_texts(suites["alpha"] + suites["cip"]))
        cfg = dict(vocab_size=len(vocab), d_model=32, n_heads=4, ctx_layers=1,
                   know_layers=1, reason_layers=2, d_ff=64)
        m32 = build_model(arch, ModelConfig(**cfg, dtype="float32"), vocab, seed=1)
        m64 = build_model(arch, ModelConfig(**cfg, dtype="float64"), vocab, seed=1)
        for name, p in m64.parameters().items():
            p.data = m32.parameters()[name].data.astype(np.float64)
        m32.eval_mode()
        m64.eval_mode()
        for inst in suites["alpha"] + suites["cip"]:
            forward = "forward_alpha_nli" if isinstance(inst, AlphaNliInstance) else "forward_cip"
            z32 = getattr(m32, forward)(inst)[0].data
            z64 = getattr(m64, forward)(inst)[0].data
            assert z32.dtype == np.float32
            assert np.all(np.abs(z32 - z64) <= 1e-5 * (1.0 + np.abs(z64))), inst.id
