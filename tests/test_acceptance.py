"""Acceptance suite: nine go/no-go checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete. The synthetic-model checks share trained fixtures, so the
whole module is minutes of wall time, dominated by criterion 3's three
training runs and criterion 5's ten fine-tuning runs.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mhka import text as tx
from mhka.analysis import PerturbationSpec, decisive_top_rate, perturbation_experiment
from mhka.checkpoint import save_checkpoint
from mhka.cli import main as cli_main
from mhka.cli import run_from_manifest
from mhka.data import AlphaNliInstance, CipInstance, KnowledgeRule
from mhka.gradcheck import check_gradients
from mhka.model import ModelConfig, build_model
from mhka.synth import ANTONYMS, SynthConfig, corpus_texts, synth_generate
from mhka.train import TrainConfig, evaluate, fit, seed_average, subsample, transfer

SYNTH_SEED = 7
TRAIN_SEED = 11


def verdict(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def suite():
    cfg = SynthConfig(n_instances=1700, seed=SYNTH_SEED, rules_per_instance=16)
    suites = synth_generate(cfg)
    alpha, cip = suites["alpha"], suites["cip"]
    return {
        "alpha_train": alpha[:1000],
        "alpha_dev": alpha[1000:1200],
        "alpha_test": alpha[1200:],
        "alpha_decisive": suites["alpha_decisive"],
        "cip_train": cip[:1000],
        "cip_dev": cip[1000:1200],
        "vocab": tx.build_vocab(corpus_texts(alpha[:1000])),
        "cip_vocab": tx.build_vocab(corpus_texts(cip[:1000])),
    }


def desk_model_config(vocab, dtype="float32"):
    return ModelConfig(
        vocab_size=len(vocab), d_model=64, n_heads=4, ctx_layers=1,
        know_layers=1, reason_layers=2, d_ff=128, max_positions=256,
        dropout=0.1, dtype=dtype,
    )


@pytest.fixture(scope="module")
def trained(suite):
    cfg = desk_model_config(suite["vocab"])
    tc = TrainConfig(lr=3e-4, batch_size=8, epochs=8, seed=TRAIN_SEED)
    t0 = time.time()
    models, accuracy = {}, {}
    for arch in ("blind", "joint", "mhka"):
        model, _ = fit(arch, cfg, suite["vocab"], suite["alpha_train"],
                       suite["alpha_dev"], tc)
        models[arch] = model
        accuracy[arch] = evaluate(model, suite["alpha_test"])
    return {"models": models, "accuracy": accuracy, "seconds": time.time() - t0}


def test_criterion_1_gradient_integrity():
    start = time.time()
    vocab = tx.build_vocab(["a b c d e f g h affirm refute"])
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, ctx_layers=1,
        know_layers=1, reason_layers=1, d_ff=16, max_positions=24,
        dropout=0.0, dtype="float64",
    )
    model = build_model("mhka", cfg, vocab, seed=0)
    model.eval_mode()
    # six task tokens across the three spans, two rules per option
    instance = AlphaNliInstance(
        id="gc", o1="a b", o2="e f", h1="c d", h2="g h", gold=1,
        rules_per_option=[
            [KnowledgeRule(head="c d", relation="xWant", tail="affirm"),
             KnowledgeRule(head="g h", relation="xAttr", tail="b")],
            [KnowledgeRule(head="g h", relation="xReact", tail="refute"),
             KnowledgeRule(head="a b", relation="oWant", tail="f")],
        ],
    )

    def loss_fn():
        loss, _ = model.instance_loss(instance)
        return loss

    report = check_gradients(loss_fn, model.parameters(), h=1e-4)
    elapsed = time.time() - start
    verdict(
        1,
        report.max_rel_error <= 1e-3 and elapsed < 60.0,
        f"max rel gradient error {report.max_rel_error:.2e} (tol 1e-3, "
        f"worst {report.worst_param}) in {elapsed:.1f}s",
    )


def test_criterion_2_attention_normalization_and_masking():
    vocab = tx.build_vocab(["a b c d e f g h i j k l m n o p"])
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=4, ctx_layers=1,
        know_layers=2, reason_layers=1, d_ff=32, max_positions=32,
        dropout=0.0, dtype="float64",
    )
    model = build_model("mhka", cfg, vocab, seed=1)
    model.eval_mode()
    rng = np.random.default_rng(123)
    worst_row = 0.0
    worst_mask = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        w = int(rng.integers(2, 12))
        ctx_ids = rng.integers(5, len(vocab), size=m)
        know_ids = rng.integers(5, len(vocab), size=w)
        h_x, ctx_weights = model.ctx.encode(ctx_ids)
        h_k, know_weights = model.know.encode(know_ids)
        _, reason_weights = model.reason.forward(h_x, h_k)
        for weights in ctx_weights + know_weights + reason_weights:
            sums = weights.sum(axis=-1)
            worst_row = max(worst_row, float(np.max(np.abs(sums - 1.0))))
        cut = int(rng.integers(1, w))
        h_cut, _ = model.know.encode(know_ids[:cut])
        worst_mask = max(
            worst_mask, float(np.max(np.abs(h_cut.data - h_k.data[:cut])))
        )
    verdict(
        2,
        worst_row <= 1e-6 and worst_mask <= 1e-6,
        f"1000 passes: worst row-sum error {worst_row:.2e}, "
        f"worst causal-mask deviation {worst_mask:.2e} (tol 1e-6)",
    )


def test_criterion_3_knowledge_dependence_separation(trained):
    acc = trained["accuracy"]
    margin = (acc["mhka"] - acc["joint"]) * 100.0
    ok = (
        0.46 <= acc["blind"] <= 0.54
        and acc["joint"] > acc["blind"]
        and acc["mhka"] >= 0.95
        and margin >= 20.0
        and trained["seconds"] < 600.0
    )
    verdict(
        3,
        ok,
        f"blind {acc['blind']:.3f} (50±4), joint {acc['joint']:.3f} (>blind), "
        f"mhka {acc['mhka']:.3f} (≥0.95), margin {margin:.1f} pts (≥20) "
        f"in {trained['seconds']:.0f}s (<600s)",
    )


def test_criterion_4_perturbation_direction(trained, suite):
    model = trained["models"]["mhka"]
    rows = perturbation_experiment(
        model,
        suite["alpha_test"],
        [
            PerturbationSpec(mode="replace_relevant"),
            PerturbationSpec(
                mode="drop_random", k=1, seed=5,
                exclude_relevance=frozenset({"relevant"}),
            ),
        ],
        ANTONYMS,
    )
    replace_drop = -rows[1]["delta_points"]
    random_drop = abs(rows[2]["delta_points"])
    verdict(
        4,
        replace_drop >= 20.0 and random_drop <= 3.0,
        f"replace_relevant costs {replace_drop:.1f} pts (≥20); dropping one "
        f"non-decisive rule moves {random_drop:.1f} pts (≤3)",
    )


def test_criterion_5_transfer_direction(suite, tmp_path):
    vocab = suite["cip_vocab"]
    cfg = desk_model_config(vocab)
    pretrain_cfg = TrainConfig(lr=3e-4, batch_size=8, epochs=8, seed=TRAIN_SEED)
    pre, _ = fit("mhka", cfg, vocab, suite["cip_train"], suite["cip_dev"], pretrain_cfg)
    ckpt = tmp_path / "cip.npz"
    save_checkpoint(ckpt, pre)
    seeds = [1, 2, 3, 4, 5]

    def scratch_run(seed):
        tc = TrainConfig(lr=3e-4, batch_size=8, epochs=10, seed=seed,
                         train_fraction=0.05)
        model, _ = fit("mhka", cfg, vocab, suite["alpha_train"],
                       suite["alpha_dev"], tc)
        return evaluate(model, suite["alpha_test"])

    def transfer_run(seed):
        tc = TrainConfig(lr=3e-4, batch_size=8, epochs=10, seed=seed)
        subset = subsample(suite["alpha_train"], 0.05, seed)
        model, _ = transfer(ckpt, subset, suite["alpha_dev"], tc)
        return evaluate(model, suite["alpha_test"])

    scratch = seed_average(scratch_run, seeds)
    moved = seed_average(transfer_run, seeds)
    gain = (moved["mean"] - scratch["mean"]) * 100.0
    verdict(
        5,
        gain >= 5.0,
        f"5-seed means at 5% data: scratch {scratch['mean']:.3f} -> "
        f"transfer {moved['mean']:.3f} (gain {gain:.1f} pts, ≥5)",
    )


def test_criterion_6_cip_builder(tmp_path):
    rows = []
    for i in range(20):
        invariant = i < 12
        rows.append({
            "id": f"rw{i}",
            "s1": f"Sam walked to the store {i}.",
            "s2": "It started raining.",
            "s3": "Sam bought an umbrella.",
            "s4": "The rain got worse.",
            "s5": "Sam stayed dry.",
            "s2_cf": f"The sun came out {i}.",
            "s3_cf": "Sam BOUGHT an umbrella!" if invariant else f"Sam bought ice cream {i}.",
            "s4_cf": "It grew hot.",
            "s5_cf": "Sam cooled off.",
        })
    src = tmp_path / "rewrites.jsonl"
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "built"
    code = cli_main(["build-cip", "--data", str(src), "--out", str(out), "--seed", "3"])
    assert code == 0
    built = [json.loads(l) for l in (out / "cip_built.jsonl").read_text().splitlines()]
    yes = [r for r in built if r["label"] == "yes"]
    no = [r for r in built if r["label"] == "no"]
    instances = [CipInstance(id=r["id"], s1=r["s1"], s2=r["s2"], s3=r["s3"],
                             s2_cf=r["s2_cf"], gold=r["label"]) for r in built]
    verdict(
        6,
        len(yes) == 8 and len(no) == 8 and len(instances) == 16,
        f"20 rewrites (12 match / 8 mismatch) -> {len(yes)} yes + {len(no)} no, "
        f"all instances valid",
    )


GOLDEN_ALPHA_H1 = [
    "[CLS]", "dotty", "was", "being", "very", "grumpy", ".",
    "dotty", "ate", "something", "bad", ".", "[SEP]",
    "she", "felt", "much", "better", "afterwards", ".", "[SEP]",
]
GOLDEN_ALPHA_H2 = [
    "[CLS]", "dotty", "was", "being", "very", "grumpy", ".",
    "dotty", "call", "some", "close", "friends", "to", "chat", ".", "[SEP]",
    "she", "felt", "much", "better", "afterwards", ".", "[SEP]",
]
GOLDEN_CIP = [
    "[CLS]", "bob", "had", "to", "get", "to", "work", "in", "the", "morning", ".",
    "his", "car", "battery", "was", "struggling", "to", "start", "the", "car", ".",
    "he", "called", "his", "neighbor", "for", "a", "jump", "start", ".", "[SEP]",
    "bob", "had", "to", "get", "to", "work", "in", "the", "morning", ".",
    "his", "car", "won't", "start", ".",
    "he", "called", "his", "neighbor", "for", "a", "jump", "start", ".", "[SEP]",
]


def test_criterion_7_encoding_bit_exactness():
    dotty = AlphaNliInstance(
        id="dotty",
        o1="Dotty was being very grumpy.",
        o2="She felt much better afterwards.",
        h1="Dotty ate something bad.",
        h2="Dotty call some close friends to chat.",
        gold=2,
    )
    bob = CipInstance(
        id="bob",
        s1="Bob had to get to work in the morning.",
        s2="His car battery was struggling to start the car.",
        s3="He called his neighbor for a jump start.",
        s2_cf="His car won't start.",
        gold="yes",
    )
    va = tx.build_vocab([dotty.o1, dotty.o2, dotty.h1, dotty.h2])
    vc = tx.build_vocab([bob.s1, bob.s2, bob.s3, bob.s2_cf])
    got_h1 = va.decode(tx.encode_alpha_nli(dotty, 1, va).ids)
    got_h2 = va.decode(tx.encode_alpha_nli(dotty, 2, va).ids)
    got_cip = vc.decode(tx.encode_cip(bob, vc).ids)
    verdict(
        7,
        got_h1 == GOLDEN_ALPHA_H1 and got_h2 == GOLDEN_ALPHA_H2 and got_cip == GOLDEN_CIP,
        "golden token sequences match for both templates on the worked examples",
    )


def test_criterion_8_manifest_determinism(tmp_path):
    def synth_into(where):
        return cli_main([
            "synth", "--n", "16", "--n_dev", "8", "--n_test", "8", "--seed", "5",
            "--rules_per_instance", "3", "--out", str(where),
        ])

    first = tmp_path / "first"
    assert synth_into(first) == 0
    train_out = tmp_path / "train"
    assert cli_main([
        "train", "--data", str(first), "--out", str(train_out), "--seed", "2",
        "--d_model", "8", "--n_heads", "2", "--ctx_layers", "1",
        "--know_layers", "1", "--reason_layers", "1", "--d_ff", "16",
        "--epochs", "1", "--batch_size", "4", "--lr", "1e-3",
    ]) == 0

    synth_replay = tmp_path / "synth_replay"
    assert run_from_manifest(first / "manifest.json", out=synth_replay) == 0
    synth_same = all(
        (first / p.name).read_bytes() == p.read_bytes()
        for p in sorted(synth_replay.glob("*.jsonl"))
    )
    train_replay = tmp_path / "train_replay"
    assert run_from_manifest(train_out / "manifest.json", out=train_replay) == 0
    train_same = (
        (train_out / "metrics.jsonl").read_bytes()
        == (train_replay / "metrics.jsonl").read_bytes()
    )
    verdict(
        8,
        synth_same and train_same,
        "synth and train reruns from their manifests reproduce byte-identical reports",
    )


def test_criterion_9_inspection_signal(trained, suite):
    model = trained["models"]["mhka"]
    result = decisive_top_rate(model, suite["alpha_test"], suite["alpha_decisive"])
    verdict(
        9,
        result["rate"] >= 0.70 and result["correct_with_decisive"] > 0,
        f"decisive rule holds top attention mass in {result['top_hits']}/"
        f"{result['correct_with_decisive']} correct instances "
        f"(rate {result['rate']:.2f}, ≥0.70)",
    )
