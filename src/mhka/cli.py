"""Command-line surface tying the modules into reproducible pipelines.

Every command writes its reports plus a manifest.json into --out; the
manifest records the exact argv, resolved configuration, and sha256 of every
artifact, so `run_from_manifest` replays the run byte for byte. Reports
carry no timestamps. The default seed comes from --seed, falling back to the
MHKA_SEED environment variable, then 0.

Dataset directory layout (as produced by `synth`):

    <task>_train.jsonl / <task>_dev.jsonl / <task>_test.jsonl
    knowledge_<task>_<split>.jsonl      knowledge sidecars
    decisive_<task>_<split>.jsonl       planted-rule indices (synthetic only)
    antonyms.json                       marker antonym map (synthetic only)

where <task> is `alpha` or `cip`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis as an
from . import data as D
from . import synth as sy
from . import text as tx
from . import train as tr
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, MhkaError
from .gradcheck import check_gradients
from .model import ModelConfig, build_model

TASKS = ("alpha", "cip")

MODEL_FLAGS = (
    "d_model", "n_heads", "ctx_layers", "know_layers", "reason_layers",
    "d_ff", "max_positions", "dropout",
)
TRAIN_FLAGS = ("lr", "batch_size", "epochs", "train_fraction")


def _default_seed() -> int:
    return int(os.environ.get("MHKA_SEED", "0"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _finish(args, resolved: dict, reports: list[Path]) -> None:
    out = Path(args.out)
    manifest = {
        "command": args.command,
        "argv": args._argv,
        "config": resolved,
        "seed": getattr(args, "seed", None),
        "out": str(out),
        "artifacts": {p.name: _sha256(p) for p in sorted(reports)},
    }
    _write_json(out / "manifest.json", manifest)


def run_from_manifest(manifest_path, out=None) -> int:
    """Re-run a recorded command; `out` optionally redirects the output."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    argv = list(manifest["argv"])
    if out is not None:
        for i, arg in enumerate(argv):
            if arg == "--out":
                argv[i + 1] = str(out)
                break
            if arg.startswith("--out="):
                argv[i] = f"--out={out}"
                break
        else:
            raise ConfigError(f"manifest {manifest_path} records no --out flag to redirect")
    return main(argv)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _resolve_configs(args, vocab_size: int) -> tuple[ModelConfig, tr.TrainConfig, dict]:
    file_cfg = _load_config_file(getattr(args, "config", None))
    model_d = dict(file_cfg.get("model", {}))
    train_d = dict(file_cfg.get("train", {}))
    for flag in MODEL_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            model_d[flag] = value
    for flag in TRAIN_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            train_d[flag] = value
    model_d["vocab_size"] = vocab_size
    model_d.setdefault("share_embeddings", file_cfg.get("share_embeddings", False))
    train_d["seed"] = args.seed
    arch = getattr(args, "arch", None) or file_cfg.get("arch", "mhka")
    task = getattr(args, "task", None) or file_cfg.get("task", "alpha")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    mc = ModelConfig.from_dict(model_d)
    tc = tr.TrainConfig(**train_d)
    return mc, tc, {"arch": arch, "task": task, "model": mc.to_dict(), "train": tc.to_dict()}


def _split_path(data_dir, task, split) -> Path:
    return Path(data_dir) / f"{task}_{split}.jsonl"


def _load_split(data_dir, task, split, knowledge_override=None):
    path = _split_path(data_dir, task, split)
    if not path.exists():
        raise ConfigError(f"dataset file {path} does not exist")
    if knowledge_override:
        kno = Path(knowledge_override)
        if not kno.exists():
            raise ConfigError(f"knowledge sidecar {kno} does not exist")
    else:
        kpath = Path(data_dir) / f"knowledge_{task}_{split}.jsonl"
        kno = kpath if kpath.exists() else None
    if task == "alpha":
        return D.parse_alpha_nli(path, kno)
    return D.parse_cip(path, kno)


def _load_decisive(data_dir, task, split) -> dict:
    path = Path(data_dir) / f"decisive_{task}_{split}.jsonl"
    if not path.exists():
        raise ConfigError(f"decisive-rule file {path} does not exist")
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[(rec["id"], rec["option"])] = rec["rule_index"]
    return out


def _corpus(instances) -> list[str]:
    return sy.corpus_texts(instances)


def _build_vocab_for(args, instances) -> tx.Vocabulary:
    return tx.build_vocab(_corpus(instances), min_count=getattr(args, "min_count", 1) or 1)


def _metrics_rows(run_id, arch, task, seed, metrics, test_accuracy=None,
                  config=None, checkpoint=None) -> list[dict]:
    base = {"run_id": run_id, "arch": arch, "task": task, "seed": seed}
    if config is not None:
        base["config"] = config
    if checkpoint is not None:
        base["checkpoint"] = checkpoint
    rows = []
    for epoch, (loss, acc) in enumerate(zip(metrics.train_loss, metrics.dev_accuracy)):
        rows.append({**base, "epoch": epoch, "train_loss": loss,
                     "split": "dev", "accuracy": acc})
    rows.append({**base, "split": "dev_best", "epoch": metrics.best_epoch,
                 "accuracy": metrics.best_dev_accuracy})
    if test_accuracy is not None:
        rows.append({**base, "split": "test", "accuracy": test_accuracy})
    return rows


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_total = args.n + args.n_dev + args.n_test
    cfg = sy.SynthConfig(
        n_instances=n_total,
        vocab_size=args.vocab_size,
        rules_per_instance=args.rules_per_instance,
        fraction_decisive=args.fraction_decisive,
        confuser_prob=args.confuser_prob,
        seed=args.seed,
    )
    suites = sy.synth_generate(cfg)
    written = []
    bounds = {"train": (0, args.n), "dev": (args.n, args.n + args.n_dev),
              "test": (args.n + args.n_dev, n_total)}
    for task in TASKS:
        instances = suites["alpha" if task == "alpha" else "cip"]
        decisive = suites[f"{task}_decisive"]
        record = D.alpha_nli_record if task == "alpha" else D.cip_record
        for split, (lo, hi) in bounds.items():
            chunk = instances[lo:hi]
            dpath = _split_path(out, task, split)
            _write_jsonl(dpath, [record(i) for i in chunk])
            kpath = out / f"knowledge_{task}_{split}.jsonl"
            _write_jsonl(kpath, [r for i in chunk for r in D.knowledge_records(i)])
            ipath = out / f"decisive_{task}_{split}.jsonl"
            _write_jsonl(
                ipath,
                [
                    {"id": i.id, "option": opt, "rule_index": decisive[(i.id, opt)]}
                    for i in chunk
                    for opt in ((1, 2) if task == "alpha" else (1,))
                ],
            )
            written += [dpath, kpath, ipath]
    apath = out / "antonyms.json"
    _write_json(apath, sy.ANTONYMS)
    written.append(apath)
    _finish(args, {"synth": cfg.__dict__}, written)
    print(f"synth: wrote {len(written)} files to {out}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args.config)
    task = args.task or file_cfg.get("task", "alpha")
    kno = getattr(args, "knowledge", None)
    train_set = _load_split(args.data, task, "train", kno)
    dev_set = _load_split(args.data, task, "dev", kno)
    vocab = _build_vocab_for(args, train_set)
    mc, tc, resolved = _resolve_configs(args, len(vocab))
    model, metrics = tr.fit(resolved["arch"], mc, vocab, train_set, dev_set, tc)
    test_path = _split_path(args.data, task, "test")
    test_acc = None
    if test_path.exists():
        test_acc = tr.evaluate(model, _load_split(args.data, task, "test", kno))
    ckpt = out / "checkpoint.npz"
    save_checkpoint(ckpt, model)
    vocab.save(out / "vocab.txt")
    rows = _metrics_rows(f"train-{args.seed}", resolved["arch"], task, args.seed,
                         metrics, test_acc, config=tc.to_dict(),
                         checkpoint=ckpt.name)  # relative to the run's out dir
    _write_jsonl(out / "metrics.jsonl", rows)
    _finish(args, resolved, [out / "metrics.jsonl", out / "vocab.txt"])
    print(f"train: best dev {metrics.best_dev_accuracy:.4f} "
          f"(epoch {metrics.best_epoch})"
          + (f", test {test_acc:.4f}" if test_acc is not None else ""))
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    task = args.task or ("alpha" if "alpha" in Path(args.data).name else None)
    task = task or "alpha"
    instances = _load_split(args.data, task, args.split, args.knowledge)
    acc = tr.evaluate(model, instances)
    report = out / "eval.jsonl"
    _write_jsonl(report, [{
        "checkpoint": str(args.checkpoint), "task": task, "split": args.split,
        "n": len(instances), "accuracy": acc,
    }])
    _finish(args, {"task": task, "split": args.split}, [report])
    print(f"eval: accuracy {acc:.4f} on {len(instances)} instances")
    return 0


def _fit_metrics(arch, mc, vocab, train_set, dev_set, cfg: tr.TrainConfig) -> tr.Metrics:
    return tr.fit(arch, mc, vocab, train_set, dev_set, cfg)[1]


def cmd_gridsearch(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.grid == "paper":
        grid = tr.PAPER_GRID
    elif args.grid == "desk":
        grid = tr.DESK_GRID
    else:
        grid = json.loads(args.grid)
    file_cfg = _load_config_file(args.config)
    task = args.task or file_cfg.get("task", "alpha")
    train_set = _load_split(args.data, task, "train")
    dev_set = _load_split(args.data, task, "dev")
    vocab = _build_vocab_for(args, train_set)
    mc, tc, resolved = _resolve_configs(args, len(vocab))
    # module-level and bound by partial, so that worker processes can unpickle it
    run = functools.partial(_fit_metrics, resolved["arch"], mc, vocab, train_set, dev_set)
    best, table = tr.grid_search(run, grid, tc, jobs=args.jobs)
    _write_jsonl(out / "grid.jsonl", table)
    _write_json(out / "best_config.json", best.to_dict())
    _finish(args, {**resolved, "grid": grid}, [out / "grid.jsonl", out / "best_config.json"])
    print(f"gridsearch: {len(table)} runs, best lr={best.lr} "
          f"batch={best.batch_size} epochs={best.epochs}")
    return 0


def cmd_lowresource(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args.config)
    task = args.task or file_cfg.get("task", "alpha")
    train_set = _load_split(args.data, task, "train")
    dev_set = _load_split(args.data, task, "dev")
    test_set = _load_split(args.data, task, "test")
    vocab = _build_vocab_for(args, train_set)
    mc, tc, resolved = _resolve_configs(args, len(vocab))
    fractions = [float(f) / 100.0 for f in args.fractions.split(",")]
    rows = []
    for fraction in fractions:
        cfg = replace(tc, train_fraction=fraction)
        model, metrics = tr.fit(resolved["arch"], mc, vocab, train_set, dev_set, cfg)
        rows.append(
            {"fraction_percent": fraction * 100.0,
             "n_train": len(tr.subsample(train_set, fraction, cfg.seed)),
             "dev_accuracy": metrics.best_dev_accuracy,
             "test_accuracy": tr.evaluate(model, test_set),
             "seed": cfg.seed}
        )
    _write_jsonl(out / "lowresource.jsonl", rows)
    _finish(args, {**resolved, "fractions": fractions}, [out / "lowresource.jsonl"])
    for row in rows:
        print(f"lowresource: {row['fraction_percent']:g}% -> test {row['test_accuracy']:.4f}")
    return 0


def cmd_transfer(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args.config)
    task = args.task or file_cfg.get("task", "alpha")
    train_set = _load_split(args.data, task, "train")
    dev_set = _load_split(args.data, task, "dev")
    test_set = _load_split(args.data, task, "test")
    fraction = (args.fraction if args.fraction is not None else 5.0) / 100.0
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    vocab = _build_vocab_for(args, train_set)
    mc, tc, resolved = _resolve_configs(args, len(vocab))
    rows = []

    def scratch_run(seed: int) -> float:
        cfg = replace(tc, seed=seed, train_fraction=fraction)
        model, _ = tr.fit(resolved["arch"], mc, vocab, train_set, dev_set, cfg)
        return tr.evaluate(model, test_set)

    def transfer_run(seed: int) -> float:
        cfg = replace(tc, seed=seed)
        subset = tr.subsample(train_set, fraction, seed)
        model, _ = tr.transfer(args.checkpoint, subset, dev_set, cfg)
        return tr.evaluate(model, test_set)

    scratch = tr.seed_average(scratch_run, seeds)
    transferred = tr.seed_average(transfer_run, seeds)
    for name, result in (("scratch", scratch), ("transfer", transferred)):
        for seed, acc in zip(result["seeds"], result["per_seed"]):
            rows.append({"run": name, "seed": seed, "split": "test", "accuracy": acc})
        rows.append({"run": name, "split": "test", "mean": result["mean"],
                     "variance": result["variance"]})
    _write_jsonl(out / "transfer.jsonl", rows)
    _finish(args, {**resolved, "fraction": fraction, "seeds": seeds},
            [out / "transfer.jsonl"])
    print(f"transfer: scratch {scratch['mean']:.4f} -> transfer {transferred['mean']:.4f}")
    return 0


def cmd_perturb(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    task = args.task or "alpha"
    instances = _load_split(args.data, task, args.split, args.knowledge)
    antonyms = {}
    if args.antonyms:
        antonyms = json.loads(Path(args.antonyms).read_text(encoding="utf-8"))
    relations = frozenset(args.relations.split(",")) if args.relations else None
    spec = an.PerturbationSpec(
        mode=args.mode, relation_set=relations, k=args.k, seed=args.seed
    )
    rows = an.perturbation_experiment(model, instances, [spec], antonyms)
    _write_jsonl(out / "perturb.jsonl", rows)
    _finish(args, {"mode": args.mode, "task": task}, [out / "perturb.jsonl"])
    for row in rows:
        print(f"perturb: {row['spec']} accuracy {row['accuracy']:.4f} "
              f"({row['delta_points']:+.1f} pts)")
    return 0


def cmd_ablate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    file_cfg = _load_config_file(args.config)
    task = args.task or file_cfg.get("task", "alpha")
    train_set = _load_split(args.data, task, "train")
    dev_set = _load_split(args.data, task, "dev")
    test_set = _load_split(args.data, task, "test")
    vocab = _build_vocab_for(args, train_set)
    mc, tc, resolved = _resolve_configs(args, len(vocab))
    heads = [int(h) for h in args.heads.split(",")]
    layers = [int(l) for l in args.layers.split(",")]
    grid = an.ablate_heads_layers(
        heads, layers, mc, vocab, train_set, dev_set, test_set, tc,
        arch=resolved["arch"],
    )
    _write_jsonl(out / "ablation.jsonl", grid)
    _finish(args, {**resolved, "heads": heads, "layers": layers},
            [out / "ablation.jsonl"])
    for cell in grid:
        status = cell.get("skipped") or f"accuracy {cell['accuracy']:.4f}"
        print(f"ablate: heads={cell['heads']} layers={cell['layers']} {status}")
    return 0


def cmd_inspect(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(args.checkpoint)
    task = args.task or "alpha"
    instances = _load_split(args.data, task, args.split, args.knowledge)
    if args.k:
        instances = instances[: args.k]
    rows = [{"pooling": "cls", "attention": "final reasoning layer, "
             "summed over rule span, averaged over heads and queries"}]
    for inst in instances:
        report = an.inspect(model, inst)
        for rule in report.rules:
            rows.append(
                {"instance_id": report.instance_id, "option": report.option,
                 "rule_index": rule.index, "relation": rule.relation,
                 "attention_mass": rule.attention_mass,
                 "similarity": rule.similarity, "relevance": rule.relevance}
            )
    _write_jsonl(out / "attention.jsonl", rows)
    _finish(args, {"task": task, "split": args.split}, [out / "attention.jsonl"])
    print(f"inspect: wrote per-rule reports for {len(instances)} instances")
    return 0


def cmd_gradcheck(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab = tx.build_vocab(["a b c d e f g h i j affirm refute"])
    mc = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_heads=2, ctx_layers=1,
        know_layers=1, reason_layers=1, d_ff=16, max_positions=16,
        dropout=0.0, dtype="float64",
    )
    model = build_model("mhka", mc, vocab, seed=args.seed)
    model.eval_mode()
    instance = D.AlphaNliInstance(
        id="gc", o1="a b", o2="c d", h1="e f", h2="g h", gold=1,
        rules_per_option=[
            [D.KnowledgeRule(head="e f", relation="xWant", tail="affirm")],
            [D.KnowledgeRule(head="g h", relation="xReact", tail="refute")],
        ],
    )

    def loss_fn():
        loss, _ = model.instance_loss(instance)
        return loss

    report = check_gradients(loss_fn, model.parameters(), h=1e-4)
    payload = {
        "max_rel_error": report.max_rel_error,
        "worst_param": report.worst_param,
        "tolerance": 1e-3,
        "pass": report.ok(1e-3),
    }
    _write_json(out / "gradcheck.json", payload)
    _finish(args, {"model": mc.to_dict()}, [out / "gradcheck.json"])
    print(f"gradcheck: max relative error {report.max_rel_error:.3e} "
          f"({'PASS' if payload['pass'] else 'FAIL'} at 1e-3)")
    return 0 if payload["pass"] else 1


def cmd_build_cip(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rewrites = D.parse_rewrites(args.data)
    instances = D.build_cip_from_rewrites(rewrites, seed=args.seed)
    path = out / "cip_built.jsonl"
    _write_jsonl(path, [D.cip_record(i) for i in instances])
    counts = {"yes": sum(1 for i in instances if i.gold == "yes"),
              "no": sum(1 for i in instances if i.gold == "no")}
    _write_json(out / "build_cip_report.json", counts)
    _finish(args, {"source": str(args.data)}, [path, out / "build_cip_report.json"])
    print(f"build-cip: {counts['yes']} yes + {counts['no']} no instances")
    return 0


# ---------------------------------------------------------------- parser


def _add_common(p, *, needs_out=True):
    p.add_argument("--config", help="JSON config file with model/train sections")
    p.add_argument("--seed", type=int, default=None)
    if needs_out:
        p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--jobs", type=int, default=1)
    for flag in MODEL_FLAGS:
        typ = float if flag == "dropout" else int
        p.add_argument(f"--{flag}", type=typ)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--train_fraction", type=float)
    p.add_argument("--arch", choices=("mhka", "joint", "blind"))
    p.add_argument("--min_count", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhka",
        description="knowledge-attentive sequence classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic suites")
    _add_common(p)
    p.add_argument("--n", type=int, default=1000, help="train split size")
    p.add_argument("--n_dev", type=int, default=200)
    p.add_argument("--n_test", type=int, default=500)
    p.add_argument("--vocab_size", type=int, default=32)
    p.add_argument("--rules_per_instance", type=int, default=4)
    p.add_argument("--fraction_decisive", type=float, default=1.0)
    p.add_argument("--confuser_prob", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--knowledge", help="explicit knowledge sidecar overriding the colocated files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--knowledge", help="explicit knowledge sidecar file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter sweep")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", default="desk", help="'paper', 'desk', or JSON")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("lowresource", help="train on data fractions")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", default="1,2,5,10,100",
                   help="comma-separated percents")
    p.set_defaults(func=cmd_lowresource)

    p = sub.add_parser("transfer", help="fine-tune a checkpoint on another task")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fraction", type=float, help="training percent, default 5")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("perturb", help="knowledge perturbation experiment")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--knowledge", help="explicit knowledge sidecar file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--mode", required=True, choices=an.PERTURBATION_MODES)
    p.add_argument("--relations", help="comma-separated relation subset")
    p.add_argument("--k", type=int)
    p.add_argument("--antonyms", help="JSON file mapping tails to antonyms")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("ablate", help="head/layer ablation grid")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--heads", default="1,2,4")
    p.add_argument("--layers", default="1,2")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="per-rule attention and similarity")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--knowledge", help="explicit knowledge sidecar file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--k", type=int, help="inspect only the first k instances")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("build-cip", help="build balanced CIP data from rewrites")
    _add_common(p)
    p.add_argument("--data", required=True, help="rewrites jsonl")
    p.set_defaults(func=cmd_build_cip)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    if args.seed is None:
        args.seed = _default_seed()
    try:
        return args.func(args)
    except MhkaError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
