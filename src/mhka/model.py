"""The knowledge-attention architecture and its two baselines.

Three stacks share one construction idiom:

* a context encoder (bidirectional self-attention over the task sequence),
* a knowledge encoder (causally masked self-attention with its own token and
  position tables, repeated over know_layers blocks),
* a reasoning stack whose blocks cross-attend from the running context
  representation (query) to the encoded knowledge (keys and values) and
  refine it through feed-forward sublayers.

A linear head maps the [CLS] position of the final representation to one
logit per option: two independent per-option passes with shared weights for
abductive pairs, a single pass thresholded at zero for counterfactual
invariance. The joint baseline prepends verbalized knowledge to the task
sequence and uses the context encoder alone; the blind baseline never sees
knowledge at all.

Forward keeps no state on the model: every block returns its attention
weights, and `forward(instance)` returns (logits, prediction, traces), where
traces maps each option to the `OptionTrace` the analysis module reads
(empty for the two baselines).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from . import text as tx
from .data import NO, YES, AlphaNliInstance, CipInstance, verbalize_rule
from .errors import ConfigError, DimensionError, EncodingError
from .tensor import Tensor

ARCHS = ("mhka", "joint", "blind")


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    ctx_layers: int = 2
    know_layers: int = 2
    reason_layers: int = 2
    d_ff: int = 256
    max_positions: int = 256
    dropout: float = 0.1
    share_embeddings: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        for name in ("vocab_size", "d_model", "n_heads", "ctx_layers",
                     "know_layers", "reason_layers", "d_ff", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


INIT_STD = 0.02


def _normal(rng, shape, dtype, std=INIT_STD) -> Tensor:
    return Tensor((rng.normal(size=shape) * std).astype(dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


class Block:
    """One post-norm transformer block: attention, then feed-forward, each
    wrapped in residual + layer norm. `causal` masks self-attention to the
    past; with a memory argument the block cross-attends instead."""

    def __init__(self, rng, cfg: ModelConfig, causal: bool = False):
        d, f, dt = cfg.d_model, cfg.d_ff, cfg.np_dtype
        self.cfg = cfg
        self.causal = causal
        self.wq, self.wk, self.wv, self.wo = (_normal(rng, (d, d), dt) for _ in range(4))
        self.bq, self.bk, self.bv, self.bo = (_zeros(d, dt) for _ in range(4))
        self.ln1_g, self.ln1_b = _ones(d, dt), _zeros(d, dt)
        self.w1, self.b1 = _normal(rng, (d, f), dt), _zeros(f, dt)
        self.w2, self.b2 = _normal(rng, (f, d), dt), _zeros(d, dt)
        self.ln2_g, self.ln2_b = _ones(d, dt), _zeros(d, dt)
        self._masks: dict[int, np.ndarray] = {}

    def params(self) -> dict[str, Tensor]:
        return {
            "attn.wq": self.wq, "attn.wk": self.wk, "attn.wv": self.wv, "attn.wo": self.wo,
            "attn.bq": self.bq, "attn.bk": self.bk, "attn.bv": self.bv, "attn.bo": self.bo,
            "ln1.gamma": self.ln1_g, "ln1.beta": self.ln1_b,
            "ff.w1": self.w1, "ff.b1": self.b1, "ff.w2": self.w2, "ff.b2": self.b2,
            "ln2.gamma": self.ln2_g, "ln2.beta": self.ln2_b,
        }

    def _mask(self, n: int) -> np.ndarray:
        if n not in self._masks:
            self._masks[n] = T.causal_mask(n, dtype=self.cfg.np_dtype)
        return self._masks[n]

    def forward(self, x: Tensor, memory=None, training=False, rng=None):
        """(output, attention weights of shape (heads, queries, keys))."""
        kv = memory if memory is not None else x
        q = T.matmul(x, self.wq) + self.bq
        k = T.matmul(kv, self.wk) + self.bk
        v = T.matmul(kv, self.wv) + self.bv
        mask = self._mask(x.shape[0]) if (self.causal and memory is None) else None
        attn, weights = T.attention(q, k, v, self.cfg.n_heads, mask=mask)
        attn = T.matmul(attn, self.wo) + self.bo
        if training and self.cfg.dropout:
            attn = T.dropout(attn, self.cfg.dropout, rng)
        h = T.layer_norm(x + attn, self.ln1_g, self.ln1_b)
        ff = T.matmul(T.gelu(T.matmul(h, self.w1) + self.b1), self.w2) + self.b2
        if training and self.cfg.dropout:
            ff = T.dropout(ff, self.cfg.dropout, rng)
        return T.layer_norm(h + ff, self.ln2_g, self.ln2_b), weights


class Encoder:
    """Token + position embeddings followed by a block stack."""

    def __init__(self, rng, cfg: ModelConfig, layers: int, causal: bool):
        dt = cfg.np_dtype
        self.cfg = cfg
        self.tok_emb = _normal(rng, (cfg.vocab_size, cfg.d_model), dt)
        self.pos_emb = _normal(rng, (cfg.max_positions, cfg.d_model), dt)
        self.blocks = [Block(rng, cfg, causal=causal) for _ in range(layers)]

    def params(self) -> dict[str, Tensor]:
        out = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for i, blk in enumerate(self.blocks):
            out.update({f"b{i}.{k}": v for k, v in blk.params().items()})
        return out

    def encode(self, ids: np.ndarray, training=False, rng=None):
        """(hidden states, [attention weights per block])."""
        ids = np.asarray(ids)
        if len(ids) > self.cfg.max_positions:
            raise EncodingError(
                f"sequence of {len(ids)} exceeds max_positions {self.cfg.max_positions}"
            )
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise EncodingError(
                f"token id out of range for vocabulary of {self.cfg.vocab_size}"
            )
        h = T.embedding(self.tok_emb, ids) + T.slice_rows(self.pos_emb, 0, len(ids))
        weights = []
        for blk in self.blocks:
            h, w = blk.forward(h, training=training, rng=rng)
            weights.append(w)
        return h, weights


class ReasoningStack:
    """Cross-attention refinement of the context representation over the
    encoded knowledge. Position embeddings are added to the query once, in
    front of the first block."""

    def __init__(self, rng, cfg: ModelConfig):
        self.cfg = cfg
        self.pos_emb = _normal(rng, (cfg.max_positions, cfg.d_model), cfg.np_dtype)
        self.blocks = [Block(rng, cfg, causal=False) for _ in range(cfg.reason_layers)]

    def params(self) -> dict[str, Tensor]:
        out = {"pos_emb": self.pos_emb}
        for i, blk in enumerate(self.blocks):
            out.update({f"b{i}.{k}": v for k, v in blk.params().items()})
        return out

    def forward(self, h_x: Tensor, h_k: Tensor, training=False, rng=None):
        """(refined query rows, [cross-attention weights per block])."""
        if h_x.shape[1] != h_k.shape[1]:
            raise DimensionError(
                f"context width {h_x.shape[1]} != knowledge width {h_k.shape[1]}"
            )
        h = h_x + T.slice_rows(self.pos_emb, 0, h_x.shape[0])
        weights = []
        for blk in self.blocks:
            h, w = blk.forward(h, memory=h_k, training=training, rng=rng)
            weights.append(w)
        return h, weights


class Head:
    """Linear projection of the [CLS] position to a single logit."""

    def __init__(self, rng, cfg: ModelConfig):
        self.w = _normal(rng, (cfg.d_model, 1), cfg.np_dtype)
        self.b = _zeros(1, cfg.np_dtype)

    def params(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}

    def logit(self, h: Tensor) -> Tensor:
        return T.reshape(T.matmul(T.slice_rows(h, 0, 1), self.w) + self.b, (1,))

    def reinit(self, rng, cfg: ModelConfig):
        self.w.data = (rng.normal(size=self.w.data.shape) * INIT_STD).astype(cfg.np_dtype)
        self.b.data = np.zeros_like(self.b.data)


def classify(scores: np.ndarray):
    """n >= 2: 1-based argmax, ties to the lower option. n == 1: yes iff the
    logit is strictly positive."""
    scores = np.asarray(scores).reshape(-1)
    if scores.shape[0] == 1:
        return YES if scores[0] > 0 else NO
    return int(np.argmax(scores)) + 1


@dataclass
class OptionTrace:
    """What one option's forward computed, for the analysis module. The
    arrays belong to that call alone: each forward builds fresh ones."""

    knowledge_seq: tx.TokenSequence
    knowledge_hidden: np.ndarray
    reasoning_attention: np.ndarray  # final layer: (heads, queries, knowledge positions)
    cls_vector: np.ndarray


class _Base:
    """Shared plumbing: parameter map, rng, train/eval switch, and the option
    loop of both tasks. Each architecture supplies `_option(task_seq, rules)
    -> (logit tensor of shape (1,), OptionTrace or None)`."""

    arch: str

    def __init__(self, cfg: ModelConfig, vocab: tx.Vocabulary, seed: int):
        if len(vocab) != cfg.vocab_size:
            raise ConfigError(
                f"config vocab_size {cfg.vocab_size} != vocabulary size {len(vocab)}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.training = True

    def train_mode(self):
        self.training = True

    def eval_mode(self):
        self.training = False

    def parameters(self) -> dict[str, Tensor]:
        raise NotImplementedError

    def _task_limit(self) -> int:
        return min(tx.MAX_TASK_POSITIONS, self.cfg.max_positions)

    def _know_limit(self) -> int:
        return min(tx.MAX_KNOWLEDGE_POSITIONS, self.cfg.max_positions)

    def _option(self, task_seq: tx.TokenSequence, rules):
        raise NotImplementedError

    def forward_alpha_nli(self, instance: AlphaNliInstance):
        """Both options run independently with shared weights; returns
        (logits tensor of shape (2,), predicted option, traces)."""
        logits, traces = [], {}
        for option in (1, 2):
            seq = tx.encode_alpha_nli(instance, option, self.vocab, self._task_limit())
            logit, trace = self._option(seq, instance.rules_per_option[option - 1])
            logits.append(logit)
            if trace is not None:
                traces[option] = trace
        stacked = T.concat(logits, axis=0)
        return stacked, classify(stacked.data), traces

    def forward_cip(self, instance: CipInstance):
        """Single factual/counterfactual sequence, one logit, thresholded at
        zero (strictly positive means yes); returns (logit, answer, traces)."""
        seq = tx.encode_cip(instance, self.vocab, self._task_limit())
        logit, trace = self._option(seq, instance.rules)
        return logit, classify(logit.data), {} if trace is None else {1: trace}

    def forward(self, instance):
        """(logits, prediction, {option: OptionTrace}) for either task."""
        if isinstance(instance, AlphaNliInstance):
            return self.forward_alpha_nli(instance)
        return self.forward_cip(instance)

    def predict(self, instance):
        return self.forward(instance)[1]

    def instance_loss(self, instance):
        """(cross-entropy loss tensor, prediction-correct flag)."""
        logits, pred, _ = self.forward(instance)
        gold = instance.gold - 1 if isinstance(instance, AlphaNliInstance) else instance.gold
        return T.cross_entropy(logits, gold), pred == instance.gold


class MhkaModel(_Base):
    arch = "mhka"

    def __init__(self, cfg: ModelConfig, vocab: tx.Vocabulary, seed: int = 0):
        super().__init__(cfg, vocab, seed)
        self.ctx = Encoder(self.rng, cfg, cfg.ctx_layers, causal=False)
        self.know = Encoder(self.rng, cfg, cfg.know_layers, causal=True)
        if cfg.share_embeddings:
            self.know.tok_emb = self.ctx.tok_emb
        self.reason = ReasoningStack(self.rng, cfg)
        self.head = Head(self.rng, cfg)

    def parameters(self) -> dict[str, Tensor]:
        out = {f"ctx.{k}": v for k, v in self.ctx.params().items()}
        for k, v in self.know.params().items():
            if self.cfg.share_embeddings and k == "tok_emb":
                continue  # aliased to ctx.tok_emb
            out[f"know.{k}"] = v
        out.update({f"reason.{k}": v for k, v in self.reason.params().items()})
        out.update({f"head.{k}": v for k, v in self.head.params().items()})
        return out

    def _option(self, task_seq: tx.TokenSequence, rules) -> tuple[Tensor, OptionTrace]:
        know_seq = tx.encode_knowledge(
            [verbalize_rule(r) for r in rules], self.vocab, self._know_limit()
        )
        h_x, _ = self.ctx.encode(task_seq.ids, training=self.training, rng=self.rng)
        h_k, _ = self.know.encode(know_seq.ids, training=self.training, rng=self.rng)
        refined, weights = self.reason.forward(h_x, h_k, training=self.training, rng=self.rng)
        logit = self.head.logit(refined)
        trace = OptionTrace(
            knowledge_seq=know_seq,
            knowledge_hidden=h_k.data,
            reasoning_attention=weights[-1],
            cls_vector=refined.data[0],
        )
        return logit, trace


class EncoderClassifier(_Base):
    """Context encoder + head. `use_knowledge` selects the joint baseline
    (knowledge prepended to the input) over the knowledge-blind one."""

    def __init__(self, cfg: ModelConfig, vocab: tx.Vocabulary, seed: int = 0,
                 use_knowledge: bool = False):
        super().__init__(cfg, vocab, seed)
        self.use_knowledge = use_knowledge
        self.arch = "joint" if use_knowledge else "blind"
        self.ctx = Encoder(self.rng, cfg, cfg.ctx_layers, causal=False)
        self.head = Head(self.rng, cfg)

    def parameters(self) -> dict[str, Tensor]:
        out = {f"ctx.{k}": v for k, v in self.ctx.params().items()}
        out.update({f"head.{k}": v for k, v in self.head.params().items()})
        return out

    def _option(self, task_seq: tx.TokenSequence, rules) -> tuple[Tensor, None]:
        seq = task_seq
        if self.use_knowledge:
            # the combined sequence is a task input, so it lives under the task
            # position budget; overflowing rules are dropped whole from the end
            seq = tx.encode_joint(
                task_seq, [verbalize_rule(r) for r in rules], self.vocab, self._task_limit()
            )
        h, _ = self.ctx.encode(seq.ids, training=self.training, rng=self.rng)
        return self.head.logit(h), None


def build_model(arch: str, cfg: ModelConfig, vocab: tx.Vocabulary, seed: int = 0) -> _Base:
    if arch == "mhka":
        return MhkaModel(cfg, vocab, seed)
    if arch == "joint":
        return EncoderClassifier(cfg, vocab, seed, use_knowledge=True)
    if arch == "blind":
        return EncoderClassifier(cfg, vocab, seed, use_knowledge=False)
    raise ConfigError(f"unknown architecture {arch!r}; expected one of {ARCHS}")
