"""Word-level vocabulary and the task/knowledge token sequence formats.

Task inputs follow two fixed templates:

    abductive:       [CLS] O1 Hi [SEP] O2 [SEP]
    counterfactual:  [CLS] s1 s2 s3 [SEP] s1 s2' s3 [SEP]

Knowledge sequences are rule token runs joined by [SEP] with no leading
[CLS] (they are consumed wholesale as keys/values, never pooled). An empty
rule list encodes to the single [NOKNOW] token so attention over knowledge
is always well-defined.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CorpusError, EncodingError

CLS, SEP, PAD, UNK, NOKNOW = "[CLS]", "[SEP]", "[PAD]", "[UNK]", "[NOKNOW]"
RESERVED = (CLS, SEP, PAD, UNK, NOKNOW)

MAX_TASK_POSITIONS = 128
MAX_KNOWLEDGE_POSITIONS = 256

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace; punctuation becomes its own token."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijective token/id map with the five reserved tokens at ids 0..4."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:5]) != RESERVED:
            raise CorpusError("vocabulary must start with the reserved tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @property
    def cls_id(self):
        return 0

    @property
    def sep_id(self):
        return 1

    @property
    def pad_id(self):
        return 2

    @property
    def unk_id(self):
        return 3

    @property
    def noknow_id(self):
        return 4

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def encode_text(self, text: str) -> list[int]:
        return [self.encode_token(t) for t in tokenize(text)]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh])


def build_vocab(corpus: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count tokens over the corpus and keep those seen at least min_count
    times. Ids are assigned by (count desc, token lexicographic) after the
    reserved block, which makes construction deterministic.
    """
    if min_count < 1:
        raise CorpusError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    saw_text = False
    for text in corpus:
        toks = tokenize(text)
        if toks:
            saw_text = True
        counts.update(toks)
    if not saw_text:
        raise CorpusError("corpus contains no tokens")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(RESERVED) + kept)


@dataclass
class TokenSequence:
    """Encoded ids plus optional segment tags and per-rule token spans."""

    ids: np.ndarray
    segments: Optional[np.ndarray] = None
    rule_spans: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    def __len__(self):
        return len(self.ids)


def _check_task_framing(seq: TokenSequence, vocab: Vocabulary):
    ids = seq.ids
    if ids[0] != vocab.cls_id or ids[-1] != vocab.sep_id:
        raise EncodingError("task sequence must open with [CLS] and close with [SEP]")
    if vocab.pad_id in ids:
        raise EncodingError("task sequence must not contain [PAD]")


def _truncate_longest_first(spans: list[list[int]], budget: int):
    """Drop trailing tokens from whichever span is currently longest until
    the combined length fits the budget. Ties go to the earliest span."""
    while sum(len(s) for s in spans) > budget:
        longest = max(range(len(spans)), key=lambda i: (len(spans[i]), -i))
        if not spans[longest]:
            raise EncodingError("sequence cannot be truncated to fit")
        spans[longest].pop()


def encode_alpha_nli(
    instance, hyp_index: int, vocab: Vocabulary, max_positions: int = MAX_TASK_POSITIONS
) -> TokenSequence:
    """[CLS] O1 Hi [SEP] O2 [SEP] with longest-span trailing truncation."""
    if hyp_index not in (1, 2):
        raise EncodingError(f"hypothesis index must be 1 or 2, got {hyp_index}")
    hyp = instance.h1 if hyp_index == 1 else instance.h2
    for name, textv in (("o1", instance.o1), ("o2", instance.o2), ("hypothesis", hyp)):
        if not textv.strip():
            raise EncodingError(f"alpha-nli field {name} is empty")
    spans = [vocab.encode_text(instance.o1), vocab.encode_text(hyp), vocab.encode_text(instance.o2)]
    if max_positions < 4:
        raise EncodingError(f"max_positions {max_positions} cannot hold the template")
    _truncate_longest_first(spans, max_positions - 3)
    ids = [vocab.cls_id, *spans[0], *spans[1], vocab.sep_id, *spans[2], vocab.sep_id]
    segs = (
        [0]
        + [0] * len(spans[0])
        + [1] * len(spans[1])
        + [0]
        + [2] * len(spans[2])
        + [2]
    )
    seq = TokenSequence(np.array(ids), segments=np.array(segs, dtype=np.int64))
    _check_task_framing(seq, vocab)
    return seq


def encode_cip(
    instance, vocab: Vocabulary, max_positions: int = MAX_TASK_POSITIONS
) -> TokenSequence:
    """[CLS] s1 s2 s3 [SEP] s1 s2' s3 [SEP]; the factual triple comes first."""
    for name in ("s1", "s2", "s3", "s2_cf"):
        if not getattr(instance, name).strip():
            raise EncodingError(f"cip field {name} is empty")
    spans = [
        vocab.encode_text(instance.s1),
        vocab.encode_text(instance.s2),
        vocab.encode_text(instance.s3),
        vocab.encode_text(instance.s1),
        vocab.encode_text(instance.s2_cf),
        vocab.encode_text(instance.s3),
    ]
    if max_positions < 4:
        raise EncodingError(f"max_positions {max_positions} cannot hold the template")
    _truncate_longest_first(spans, max_positions - 3)
    ids = (
        [vocab.cls_id]
        + spans[0]
        + spans[1]
        + spans[2]
        + [vocab.sep_id]
        + spans[3]
        + spans[4]
        + spans[5]
        + [vocab.sep_id]
    )
    segs = [0] + [0] * (len(spans[0]) + len(spans[1]) + len(spans[2])) + [0]
    segs += [1] * (len(spans[3]) + len(spans[4]) + len(spans[5])) + [1]
    seq = TokenSequence(np.array(ids), segments=np.array(segs, dtype=np.int64))
    _check_task_framing(seq, vocab)
    return seq


def encode_knowledge(
    rule_texts: Sequence[str], vocab: Vocabulary, max_positions: int = MAX_KNOWLEDGE_POSITIONS
) -> TokenSequence:
    """Rule token runs joined by [SEP]; whole rules are dropped from the end
    on overflow, never split mid-rule."""
    runs = [vocab.encode_text(t) for t in rule_texts]
    runs = [r for r in runs if r]
    kept: list[list[int]] = []
    used = 0
    for run in runs:
        extra = len(run) + (1 if kept else 0)
        if used + extra > max_positions:
            break
        kept.append(run)
        used += extra
    if not kept:
        return TokenSequence(np.array([vocab.noknow_id]), rule_spans=[])
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    for i, run in enumerate(kept):
        if i:
            ids.append(vocab.sep_id)
        start = len(ids)
        ids.extend(run)
        spans.append((start, len(ids)))
    return TokenSequence(np.array(ids), rule_spans=spans)


def encode_joint(
    task_seq: TokenSequence,
    rule_texts: Sequence[str],
    vocab: Vocabulary,
    max_positions: int = MAX_KNOWLEDGE_POSITIONS,
) -> TokenSequence:
    """Knowledge prepended to a task sequence: [CLS] K [SEP] input-text.

    Used by the joint-encoding baseline, which runs everything through the
    context encoder alone. Whole rules are dropped from the end if the
    combined sequence would overflow.
    """
    task_ids = list(task_seq.ids[1:])  # drop the task [CLS], keep trailing [SEP]
    budget = max_positions - 2 - len(task_ids)  # [CLS] and the joining [SEP]
    if budget < 1:
        raise EncodingError(
            f"task sequence of {len(task_seq)} leaves no room for knowledge "
            f"in {max_positions} positions"
        )
    know = encode_knowledge(rule_texts, vocab, max_positions=budget)
    ids = [vocab.cls_id, *know.ids.tolist(), vocab.sep_id, *task_ids]
    seq = TokenSequence(np.array(ids))
    _check_task_framing(seq, vocab)
    return seq
