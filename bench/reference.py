"""An independent float64 forward of the mhka architecture.

The program under test is a small autodiff library; this file recomputes its
model's outputs with plain numpy so that the benchmark can check them without
trusting the program's own code. It reads the fitted weights from
`model.parameters()` and the token ids from the program's encoders, and it
uses those ids only after checking their framing:

* a task sequence is [CLS] ... [SEP] with exactly two [SEP] and no [PAD];
* a knowledge sequence is the rule token runs joined by single [SEP] tokens,
  the program's rule spans tile it exactly, one span per rule, and an empty
  rule list is the lone [NOKNOW] token.

The architecture, as written here: post-norm blocks (attention, residual,
layer norm, then a tanh-GELU feed-forward, residual, layer norm); a
bidirectional context encoder; a causally masked knowledge encoder with its
own token and position tables; a reasoning stack that adds its query
position table once and cross-attends from the context to the knowledge in
every block; and a linear head on the [CLS] row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLS, SEP, PAD, NOKNOW = "[CLS]", "[SEP]", "[PAD]", "[NOKNOW]"
FRAMING = frozenset({CLS, SEP, PAD, NOKNOW})  # [UNK] may stand for any rule word
LN_EPS = 1e-5
GELU_C, GELU_A = math.sqrt(2.0 / math.pi), 0.044715
# Decisions closer than this, relative to the logits' scale, are set aside
# rather than compared. The program's float32 logits differ from these by at
# most about 1e-8 relative on every workload.
MARGIN_TOL = 1e-6
ROW_SUM_TOL = 1e-9


class FramingError(Exception):
    """The program's encoder produced a sequence that breaks the format."""


def check_task_framing(ids, id_to_token) -> None:
    toks = [id_to_token[int(i)] for i in ids]
    if len(toks) < 3 or toks[0] != CLS or toks[-1] != SEP:
        raise FramingError(f"task sequence is not [CLS] ... [SEP]: {toks[:3]}...{toks[-1:]}")
    if toks.count(CLS) != 1 or toks.count(SEP) != 2 or PAD in toks:
        raise FramingError("task sequence must hold one [CLS], two [SEP] and no [PAD]")


def check_knowledge_framing(ids, spans, n_rules: int, id_to_token) -> None:
    toks = [id_to_token[int(i)] for i in ids]
    if n_rules == 0:
        if toks != [NOKNOW] or spans:
            raise FramingError(f"empty rule list must encode to [NOKNOW], got {toks}")
        return
    if len(spans) != n_rules:
        raise FramingError(f"{len(spans)} rule spans for {n_rules} rules")
    pos = 0
    for i, (a, b) in enumerate(spans):
        if a != pos or b <= a:
            raise FramingError(f"rule span {i} = ({a}, {b}) does not continue at {pos}")
        if any(t in FRAMING for t in toks[a:b]):
            raise FramingError(f"rule span {i} holds a framing token")
        if b < len(toks) and toks[b] != SEP:
            raise FramingError(f"rule span {i} is not followed by [SEP]")
        pos = b + 1
    if spans[-1][1] != len(toks):
        raise FramingError("rule spans do not reach the end of the knowledge sequence")


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x * x * x)))


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class OptionResult:
    logit: float
    rule_masses: np.ndarray  # final reasoning layer mass per rule, sums to 1
    attentions: list         # every (heads, queries, keys) matrix, with its causal flag


class ReferenceModel:
    """Float64 copy of a fitted mhka model's weights and its forward."""

    def __init__(self, params: dict, n_heads: int):
        """`params` maps the program's parameter names to its tensors."""
        self.w = {k: np.array(v.data, dtype=np.float64) for k, v in params.items()}
        self.n_heads = n_heads
        self.depth = {
            stack: len({k.split(".")[1] for k in self.w if k.startswith(stack + ".b")})
            for stack in ("ctx", "know", "reason")
        }

    def _attend(self, p, x, kv, causal):
        d = x.shape[1]
        h, dz = self.n_heads, d // self.n_heads
        q = x @ self.w[p + "attn.wq"] + self.w[p + "attn.bq"]
        k = kv @ self.w[p + "attn.wk"] + self.w[p + "attn.bk"]
        v = kv @ self.w[p + "attn.wv"] + self.w[p + "attn.bv"]
        qh = q.reshape(len(x), h, dz).transpose(1, 0, 2)
        kh = k.reshape(len(kv), h, dz).transpose(1, 0, 2)
        vh = v.reshape(len(kv), h, dz).transpose(1, 0, 2)
        scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dz)
        if causal:
            scores = np.where(np.tri(len(x), len(kv), dtype=bool), scores, -np.inf)
        a = _softmax_rows(scores)
        out = (a @ vh).transpose(1, 0, 2).reshape(len(x), d)
        return out @ self.w[p + "attn.wo"] + self.w[p + "attn.bo"], a

    def _block(self, p, x, memory=None, causal=False):
        att, a = self._attend(p, x, x if memory is None else memory, causal)
        h = _layer_norm(x + att, self.w[p + "ln1.gamma"], self.w[p + "ln1.beta"])
        ff = _gelu(h @ self.w[p + "ff.w1"] + self.w[p + "ff.b1"]) @ self.w[p + "ff.w2"]
        out = _layer_norm(h + ff + self.w[p + "ff.b2"], self.w[p + "ln2.gamma"],
                          self.w[p + "ln2.beta"])
        return out, a

    def _encode(self, stack, ids, causal, attentions):
        h = self.w[stack + ".tok_emb"][ids] + self.w[stack + ".pos_emb"][: len(ids)]
        for i in range(self.depth[stack]):
            h, a = self._block(f"{stack}.b{i}.", h, causal=causal)
            attentions.append((a, causal))
        return h

    def option(self, task_ids, know_ids, spans) -> OptionResult:
        attentions = []
        h_x = self._encode("ctx", np.asarray(task_ids), False, attentions)
        h_k = self._encode("know", np.asarray(know_ids), True, attentions)
        h = h_x + self.w["reason.pos_emb"][: len(h_x)]
        for i in range(self.depth["reason"]):
            h, a = self._block(f"reason.b{i}.", h, memory=h_k)
            attentions.append((a, False))
        logit = float(h[0] @ self.w["head.w"][:, 0] + self.w["head.b"][0])
        final = attentions[-1][0]
        masses = np.array([final[:, :, a:b].sum() for a, b in spans], dtype=np.float64)
        if masses.size:
            masses /= masses.sum()
        return OptionResult(logit, masses, attentions)


def attention_faults(attentions) -> list[str]:
    """Rows that do not sum to 1, or causal matrices with weight above the
    diagonal."""
    faults = []
    for n, (a, causal) in enumerate(attentions):
        if not np.all(np.abs(a.sum(axis=-1) - 1.0) <= ROW_SUM_TOL):
            faults.append(f"attention {n}: a row does not sum to 1")
        if causal and np.any(np.triu(a, k=1) != 0.0):
            faults.append(f"attention {n}: weight above the causal diagonal")
    return faults


@dataclass
class InstanceVerdict:
    """The reference's decision for one instance, and whether each part of it
    is clear of rounding."""

    correct: bool
    decided: bool          # prediction margin clear of rounding
    top_hit: bool          # planted rule carries the top mass (correct instances)
    top_decided: bool      # top-two mass gap clear of rounding
    faults: list
    option: int = 1        # the predicted option, whose rules are inspected
    top: int = -1          # index of the rule with the top mass in that option


def _top(masses):
    if not len(masses):
        return -1, True
    order = np.argsort(-masses, kind="stable")
    gap = masses[order[0]] - masses[order[1]] if len(masses) > 1 else 1.0
    return int(order[0]), gap > MARGIN_TOL


def judge(results: list[OptionResult], gold, planted: dict) -> InstanceVerdict:
    """`results` holds one OptionResult per option (two for abductive pairs,
    one for counterfactual instances); `gold` is the 1-based option or
    yes/no; `planted` maps option to the decisive rule index."""
    logits = [r.logit for r in results]
    scale = 1.0 + max(abs(x) for x in logits)
    if len(results) == 2:
        pred = 1 if logits[0] >= logits[1] else 2
        margin = abs(logits[0] - logits[1])
        option = pred
    else:
        pred = "yes" if logits[0] > 0 else "no"
        margin = abs(logits[0])
        option = 1
    correct = pred == gold
    top, top_decided = _top(results[option - 1].rule_masses)
    faults = [f for r in results for f in attention_faults(r.attentions)]
    return InstanceVerdict(correct, margin > MARGIN_TOL * scale,
                           correct and top == planted.get(option), top_decided, faults,
                           option, top)
