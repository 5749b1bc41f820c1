"""Seeded synthetic datasets in the mhka file formats.

The construction follows the planted-rule design the package documents, but
is written here from scratch so that the benchmark's inputs do not change when
the package's own generator does. Per instance the label is a fair coin and
the task sentences are uniform random words, so the text alone says nothing
about the label. One decisive rule per option restates the option's
distinguishing sentence through a fixed word pairing (w_i -> k_i) and carries
an affirm/refute marker that agrees with the coin. With probability one half a
confuser rule carries the opposite marker under an unrelated head. The other
rules are distractors over a filler pool disjoint from the task words. A model
that ignores the knowledge therefore stays at 0.5 accuracy.

Only the standard library is used, so generation imports neither numpy nor
mhka and stays outside the timed set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RELATIONS = ("xIntent", "xNeed", "xAttr", "xReact", "xWant", "xEffect",
             "oReact", "oWant", "oEffect")
AFFIRM, REFUTE = "affirm", "refute"
TASK_WORDS = [f"w{i}" for i in range(32)]
HEAD_WORDS = {w: f"k{i}" for i, w in enumerate(TASK_WORDS)}
FILLER_WORDS = [f"d{i}" for i in range(16)]
SENTENCE_LEN, HYPOTHESIS_LEN = 3, 4
CONFUSER_PROB = 0.5


@dataclass(frozen=True)
class Split:
    """Paths of one split's instance file and knowledge sidecar, and the
    planted decisive-rule index per (instance id, option)."""

    data: Path
    knowledge: Path
    decisive: dict


def _sentence(rng: random.Random, k: int, words=TASK_WORDS) -> str:
    return " ".join(rng.choice(words) for _ in range(k))


def _rule(head: str, tail: str, rng: random.Random, relevance: str) -> dict:
    return {"head": head, "relation": rng.choice(RELATIONS), "tail": tail,
            "relevance": relevance}


def _rules(rng: random.Random, n_rules: int, matched: str, marker: str):
    """One option's rule list and the index of its decisive rule."""
    rules = [_rule(_sentence(rng, HYPOTHESIS_LEN, FILLER_WORDS), rng.choice(FILLER_WORDS),
                   rng, "irrelevant") for _ in range(n_rules)]
    slots = rng.sample(range(n_rules), min(2, n_rules))
    head = " ".join(HEAD_WORDS[w] for w in matched.split())
    rules[slots[0]] = _rule(head, marker, rng, "relevant")
    if len(slots) > 1 and rng.random() < CONFUSER_PROB:
        confuser = _sentence(rng, HYPOTHESIS_LEN, FILLER_WORDS)
        rules[slots[1]] = _rule(confuser, REFUTE if marker == AFFIRM else AFFIRM, rng,
                                "partial")
    return rules, slots[0]


def _alpha(rng: random.Random, iid: str, n_rules):
    o1, o2 = _sentence(rng, SENTENCE_LEN), _sentence(rng, SENTENCE_LEN)
    h1 = _sentence(rng, HYPOTHESIS_LEN)
    h2 = _sentence(rng, HYPOTHESIS_LEN)
    while h2 == h1:
        h2 = _sentence(rng, HYPOTHESIS_LEN)
    gold = rng.randint(1, 2)
    record = {"id": iid, "obs1": o1, "obs2": o2, "hyp1": h1, "hyp2": h2, "label": gold}
    knowledge, decisive = [], {}
    for option, hyp in ((1, h1), (2, h2)):
        rules, at = _rules(rng, n_rules(rng), hyp, AFFIRM if option == gold else REFUTE)
        knowledge += [{"id": iid, "option": option, **r} for r in rules]
        decisive[(iid, option)] = at
    return record, knowledge, decisive


def _cip(rng: random.Random, iid: str, n_rules):
    s1, s2, s3 = (_sentence(rng, SENTENCE_LEN) for _ in range(3))
    s2_cf = _sentence(rng, SENTENCE_LEN)
    while s2_cf == s2:
        s2_cf = _sentence(rng, SENTENCE_LEN)
    gold = rng.choice(("yes", "no"))
    record = {"id": iid, "s1": s1, "s2": s2, "s3": s3, "s2_cf": s2_cf, "label": gold}
    rules, at = _rules(rng, n_rules(rng), s2_cf, AFFIRM if gold == "yes" else REFUTE)
    return record, [{"id": iid, "option": 1, **r} for r in rules], {(iid, 1): at}


def _write_jsonl(path: Path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def generate(out: Path, task: str, seed: int, sizes: dict, rules: tuple[int, int]) -> dict:
    """Write one JSONL file and one knowledge sidecar per split into `out`.

    `sizes` maps split name to instance count; every option draws its rule
    count uniformly from the inclusive range `rules`. Returns {split: Split}.
    """
    if task not in ("alpha", "cip"):
        raise ValueError(f"unknown task {task!r}")
    rng = random.Random(f"{task}:{seed}")
    lo, hi = rules
    make = _alpha if task == "alpha" else _cip
    out.mkdir(parents=True, exist_ok=True)
    splits, n = {}, 0
    for split, size in sizes.items():
        records, knowledge, decisive = [], [], {}
        for _ in range(size):
            rec, kno, dec = make(rng, f"{task}-{n}", lambda r: r.randint(lo, hi))
            records.append(rec)
            knowledge += kno
            decisive.update(dec)
            n += 1
        data, kpath = out / f"{task}_{split}.jsonl", out / f"knowledge_{task}_{split}.jsonl"
        _write_jsonl(data, records)
        _write_jsonl(kpath, knowledge)
        splits[split] = Split(data, kpath, decisive)
    return splits
