"""Vocabulary construction and the task/knowledge sequence templates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhka import text as tx
from mhka.data import AlphaNliInstance, CipInstance
from mhka.errors import CorpusError, EncodingError


@pytest.fixture
def dotty():
    return AlphaNliInstance(
        id="dotty",
        o1="Dotty was being very grumpy.",
        o2="She felt much better afterwards.",
        h1="Dotty ate something bad.",
        h2="Dotty call some close friends to chat.",
        gold=2,
    )


@pytest.fixture
def bob():
    return CipInstance(
        id="bob",
        s1="Bob had to get to work in the morning.",
        s2="His car battery was struggling to start the car.",
        s3="He called his neighbor for a jump start.",
        s2_cf="His car won't start.",
        gold="yes",
    )


def vocab_over(*texts):
    return tx.build_vocab(list(texts), min_count=1)


class TestTokenizer:
    def test_punctuation_splits(self):
        assert tx.tokenize("Dotty was grumpy.") == ["dotty", "was", "grumpy", "."]

    def test_apostrophes_stay_in_word(self):
        assert tx.tokenize("His car won't start.") == ["his", "car", "won't", "start", "."]


class TestBuildVocab:
    def test_min_count_threshold(self):
        vocab = tx.build_vocab(["a a b"], min_count=2)
        assert "a" in vocab and "b" not in vocab

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            tx.build_vocab([""])

    def test_stated_tokenizer(self):
        vocab = tx.build_vocab(["Dotty was grumpy."])
        for tok in ("dotty", "was", "grumpy", "."):
            assert tok in vocab

    def test_reserved_tokens_lead(self):
        vocab = vocab_over("some words here")
        assert tuple(vocab.id_to_token[:5]) == tx.RESERVED

    def test_deterministic_id_order(self):
        # count desc then lexicographic
        vocab = tx.build_vocab(["b b a a c"])
        assert vocab.id_to_token[5:] == ["a", "b", "c"]

    def test_roundtrip_file(self, tmp_path):
        vocab = vocab_over("alpha beta gamma")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = tx.Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    def test_decode_roundtrip(self):
        text = "she felt much better afterwards ."
        vocab = vocab_over(text)
        assert vocab.decode(vocab.encode_text(text)) == tx.tokenize(text)


class TestAlphaTemplate:
    def test_minimal_template(self):
        inst = AlphaNliInstance(id="t", o1="a", o2="c", h1="b", h2="z", gold=1)
        vocab = vocab_over("a b c z")
        seq = tx.encode_alpha_nli(inst, 1, vocab)
        assert vocab.decode(seq.ids) == ["[CLS]", "a", "b", "[SEP]", "c", "[SEP]"]

    def test_hypothesis_swap_touches_only_hyp_span(self):
        inst = AlphaNliInstance(id="t", o1="a a", o2="c", h1="b", h2="z z z", gold=1)
        vocab = vocab_over("a b c z")
        one = vocab.decode(tx.encode_alpha_nli(inst, 1, vocab).ids)
        two = vocab.decode(tx.encode_alpha_nli(inst, 2, vocab).ids)
        assert one == ["[CLS]", "a", "a", "b", "[SEP]", "c", "[SEP]"]
        assert two == ["[CLS]", "a", "a", "z", "z", "z", "[SEP]", "c", "[SEP]"]

    def test_dotty_prefix(self, dotty):
        vocab = vocab_over(dotty.o1, dotty.o2, dotty.h1, dotty.h2)
        seq = tx.encode_alpha_nli(dotty, 1, vocab)
        assert vocab.decode(seq.ids)[:6] == ["[CLS]", "dotty", "was", "being", "very", "grumpy"]

    def test_truncation_removes_from_longest_span(self):
        inst = AlphaNliInstance(id="t", o1="a a a a a a", o2="c", h1="b", h2="z", gold=1)
        vocab = vocab_over("a b c z")
        seq = tx.encode_alpha_nli(inst, 1, vocab, max_positions=9)
        # o1 is longest; its trailing tokens go first
        assert vocab.decode(seq.ids) == [
            "[CLS]", "a", "a", "a", "a", "b", "[SEP]", "c", "[SEP]",
        ]

    def test_impossible_budget(self):
        inst = AlphaNliInstance(id="t", o1="a", o2="c", h1="b", h2="z", gold=1)
        with pytest.raises(EncodingError):
            tx.encode_alpha_nli(inst, 1, vocab_over("a b c z"), max_positions=3)


class TestCipTemplate:
    def test_minimal_template(self):
        inst = CipInstance(id="t", s1="a", s2="b", s3="c", s2_cf="d", gold="no")
        vocab = vocab_over("a b c d")
        seq = tx.encode_cip(inst, vocab)
        assert vocab.decode(seq.ids) == [
            "[CLS]", "a", "b", "c", "[SEP]", "a", "d", "c", "[SEP]",
        ]

    def test_bob_contains_jump_start_twice(self, bob):
        vocab = vocab_over(bob.s1, bob.s2, bob.s3, bob.s2_cf)
        toks = vocab.decode(tx.encode_cip(bob, vocab).ids)
        joined = " ".join(toks)
        assert joined.count("jump start") == 2

    def test_factual_half_precedes_counterfactual(self, bob):
        vocab = vocab_over(bob.s1, bob.s2, bob.s3, bob.s2_cf)
        toks = vocab.decode(tx.encode_cip(bob, vocab).ids)
        first_sep = toks.index("[SEP]")
        assert "battery" in toks[:first_sep]
        assert "won't" in toks[first_sep:]

    def test_unchanged_counterfactual_gives_identical_halves(self):
        # CipInstance forbids s2_cf == s2, so probe the encoder directly
        from types import SimpleNamespace

        inst = SimpleNamespace(s1="a", s2="b", s3="c", s2_cf="b")
        vocab = vocab_over("a b c")
        toks = vocab.decode(tx.encode_cip(inst, vocab).ids)
        mid = toks.index("[SEP]")
        assert toks[1:mid] == toks[mid + 1 : -1]


class TestKnowledgeSequence:
    def test_empty_rules_yield_noknow(self):
        vocab = vocab_over("x wants y")
        seq = tx.encode_knowledge([], vocab)
        assert vocab.decode(seq.ids) == ["[NOKNOW]"]
        assert seq.rule_spans == []

    def test_single_rule_no_separator(self):
        vocab = vocab_over("x wants y")
        seq = tx.encode_knowledge(["x wants y"], vocab)
        assert vocab.decode(seq.ids) == ["x", "wants", "y"]
        assert seq.rule_spans == [(0, 3)]

    def test_three_rules_of_four_tokens_give_fourteen(self):
        vocab = vocab_over("a b c d e f g h i j k l")
        rules = ["a b c d", "e f g h", "i j k l"]
        seq = tx.encode_knowledge(rules, vocab)
        assert len(seq) == 14
        assert seq.rule_spans == [(0, 4), (5, 9), (10, 14)]

    def test_overflow_drops_whole_rules_from_the_end(self):
        vocab = vocab_over("a b c d e f")
        seq = tx.encode_knowledge(["a b", "c d", "e f"], vocab, max_positions=7)
        assert vocab.decode(seq.ids) == ["a", "b", "[SEP]", "c", "d"]
        assert seq.rule_spans == [(0, 2), (3, 5)]


class TestJointSequence:
    def test_knowledge_prepended(self):
        inst = AlphaNliInstance(id="t", o1="a", o2="c", h1="b", h2="z", gold=1)
        vocab = vocab_over("a b c z k1 k2")
        task = tx.encode_alpha_nli(inst, 1, vocab)
        seq = tx.encode_joint(task, ["k1 k2"], vocab)
        assert vocab.decode(seq.ids) == [
            "[CLS]", "k1", "k2", "[SEP]", "a", "b", "[SEP]", "c", "[SEP]",
        ]

    def test_empty_knowledge_reduces_to_blind_plus_noknow(self):
        inst = AlphaNliInstance(id="t", o1="a", o2="c", h1="b", h2="z", gold=1)
        vocab = vocab_over("a b c z")
        task = tx.encode_alpha_nli(inst, 1, vocab)
        seq = tx.encode_joint(task, [], vocab)
        assert vocab.decode(seq.ids) == [
            "[CLS]", "[NOKNOW]", "[SEP]", "a", "b", "[SEP]", "c", "[SEP]",
        ]


words = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=1, max_size=6
).map(" ".join)


class TestFramingProperties:
    @given(o1=words, o2=words, h1=words, h2=words, hyp=st.sampled_from([1, 2]))
    @settings(deadline=None, max_examples=50)
    def test_task_framing_invariants(self, o1, o2, h1, h2, hyp):
        inst = AlphaNliInstance(id="p", o1=o1, o2=o2, h1=h1, h2=h2, gold=1)
        vocab = vocab_over(o1, o2, h1, h2)
        seq = tx.encode_alpha_nli(inst, hyp, vocab)
        assert seq.ids[0] == vocab.cls_id
        assert seq.ids[-1] == vocab.sep_id
        assert vocab.pad_id not in seq.ids
        assert len(seq) <= tx.MAX_TASK_POSITIONS

    @given(o1=words, o2=words, h1=words, h2=words)
    @settings(deadline=None, max_examples=50)
    def test_hypothesis_swap_leaves_other_spans(self, o1, o2, h1, h2):
        inst = AlphaNliInstance(id="p", o1=o1, o2=o2, h1=h1, h2=h2, gold=1)
        vocab = vocab_over(o1, o2, h1, h2)
        s1 = tx.encode_alpha_nli(inst, 1, vocab)
        s2 = tx.encode_alpha_nli(inst, 2, vocab)
        n1 = len(tx.tokenize(h1))
        n2 = len(tx.tokenize(h2))
        start = 1 + len(tx.tokenize(o1))
        assert s1.ids[:start].tolist() == s2.ids[:start].tolist()
        assert s1.ids[start + n1 :].tolist() == s2.ids[start + n2 :].tolist()


class TestFramingCheck:
    def test_missing_cls_rejected(self):
        vocab = vocab_over("a b")
        seq = tx.TokenSequence([vocab.encode_token("a"), vocab.sep_id])
        with pytest.raises(EncodingError, match=r"\[CLS\]"):
            tx._check_task_framing(seq, vocab)

    def test_pad_id_rejected(self):
        vocab = vocab_over("a b")
        seq = tx.TokenSequence([vocab.cls_id, vocab.pad_id, vocab.sep_id])
        with pytest.raises(EncodingError, match=r"\[PAD\]"):
            tx._check_task_framing(seq, vocab)
