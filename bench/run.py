"""Run one benchmark workload of the mhka package and print its metrics.

    python3 bench/run.py --workload alpha-desk --seed 1 --seconds 30 --trace 0

The run generates its dataset files from the seed, then times one closed
loop with a single caller: set-up (import, parse, vocabulary, model), one
`train.fit`, `train.evaluate` over the held-out split in chunks, and
`analysis.decisive_top_rate` over the same chunks. Afterwards, untimed, it
checks every held-out output against an independent float64 forward. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
wraps the package's layers in spans and reports per-layer metrics instead.
A full record (environment, chunk times, checks) goes to bench/results/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from the process's start to _T0, or 0 where /proc lacks it."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - _T0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return elapsed if 0.0 <= elapsed < 10.0 else 0.0


_STARTUP_S = _since_process_start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import datagen  # noqa: E402
from reference import (FramingError, InstanceVerdict, ReferenceModel,  # noqa: E402
                       check_knowledge_framing, check_task_framing, judge)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
WORK = HERE / ".work"


class SetupError(Exception):
    """The checkout does not hold the program the benchmark runs."""


def host_probe_ms() -> float:
    """A fixed numpy + Python kernel; its time moves with the host, not the
    program."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    t = time.perf_counter()
    for _ in range(300):
        a = np.tanh(a @ b * 0.1)
    s = 0
    for i in range(200_000):
        s += i % 7
    return (time.perf_counter() - t) * 1e3


def environment() -> dict:
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, libs = None, set()
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="ascii",
                                            errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


def load_program():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "mhka" / "__init__.py").is_file():
        raise SetupError(f"no mhka package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mhka
    from mhka import analysis, data, model, optim, tensor, text, train

    if not Path(mhka.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"mhka imported from {mhka.__file__}, not from {SRC}")
    return dict(analysis=analysis, data=data, model=model, optim=optim, tensor=tensor,
                text=text, train=train)


def install_hooks(tracer: Tracer, p: dict):
    """Wrap the layers' public functions and methods in spans."""
    M, tx, T = p["model"], p["text"], p["tensor"]
    counts = tracer.counts

    def options(n):
        def count(*_):
            counts["model.options"] += n
        return count

    def nodes(root, *_):
        seen, stack = {id(root)}, [root]
        while stack:
            for parent in getattr(stack.pop(), "_parents", ()):
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        counts["tensor.nodes"] += len(seen)

    tracer.wrap(M, "verbalize_rule", "data.verbalize")
    for fn in ("encode_alpha_nli", "encode_cip", "encode_knowledge"):
        tracer.wrap(tx, fn, "text.encode")
    tracer.wrap(M.Encoder, "encode",
                lambda enc, *_: "model.know_fwd" if enc.blocks[0].causal else "model.ctx_fwd")
    tracer.wrap(M.ReasoningStack, "forward", "model.reason_fwd")
    tracer.wrap(M.Head, "logit", "model.head_fwd")
    tracer.wrap(M.MhkaModel, "forward_alpha_nli", "model.forward",
                instance_of=lambda _, inst: inst.id, before=options(2))
    tracer.wrap(M.MhkaModel, "forward_cip", "model.forward",
                instance_of=lambda _, inst: inst.id, before=options(1))
    tracer.wrap(T.Tensor, "backward", "tensor.backward", before=nodes)
    tracer.wrap(p["optim"].Adam, "step", "optim.adam_step")
    tracer.wrap(p["train"], "evaluate", "train.evaluate")
    tracer.wrap(p["analysis"], "inspect", "analysis.inspect")


def layer_metrics(tracer: Tracer, run: dict) -> dict:
    st = tracer.self_times()
    opts = tracer.counts["model.options"]
    trained = run["sizes"]["train"] * run["epochs"]
    n_test = run["sizes"]["test"]
    ms = 1e3
    steps = tracer.count("optim.adam_step")
    dev_eval = sum(s.end - s.start for i, s in enumerate(tracer.spans)
                   if s.name == "train.evaluate" and tracer.has_ancestor(i, "train.fit"))
    values = {
        "data.parse_ms": (tracer.total("data.parse") * ms, "ms"),
        "text.vocab_ms": (tracer.total("text.vocab") * ms, "ms"),
        "model.build_ms": (tracer.total("model.build") * ms, "ms"),
        "data.verbalize_ms_per_option": (st["data.verbalize"] * ms / opts, "ms"),
        "text.encode_ms_per_option": (st["text.encode"] * ms / opts, "ms"),
        "model.ctx_fwd_ms_per_option": (st["model.ctx_fwd"] * ms / opts, "ms"),
        "model.know_fwd_ms_per_option": (st["model.know_fwd"] * ms / opts, "ms"),
        "model.reason_fwd_ms_per_option": (st["model.reason_fwd"] * ms / opts, "ms"),
        "model.head_fwd_ms_per_option": (st["model.head_fwd"] * ms / opts, "ms"),
        "tensor.backward_ms_per_instance": (st["tensor.backward"] * ms / trained, "ms"),
        "tensor.nodes_per_instance": (tracer.counts["tensor.nodes"] / trained, "count"),
        "optim.adam_step_ms": (st["optim.adam_step"] * ms / steps, "ms"),
        "train.dev_eval_ms_per_epoch": (dev_eval * ms / run["epochs"], "ms"),
        "analysis.forwards_per_instance": (
            tracer.count("model.forward", under="analysis.decisive_top_rate") / n_test,
            "count"),
        "analysis.inspect_ms_per_instance": (
            tracer.total("analysis.decisive_top_rate") * ms / n_test, "ms"),
        "host.probe_start_ms": (run["probe_ms"][0], "ms"),
        "host.probe_end_ms": (run["probe_ms"][1], "ms"),
        "trace.train_inst_per_s": (trained / run["fit_s"], "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def reference_verdicts(p, model, instances, decisive, task, tamper_ref=None):
    """Per instance, the reference forward's verdict; untimed."""
    tx, D = p["text"], p["data"]
    cfg, vocab = model.cfg, model.vocab
    ref = ReferenceModel(model.parameters(), cfg.n_heads)
    if tamper_ref:
        tamper_ref(ref)
    task_limit = min(tx.MAX_TASK_POSITIONS, cfg.max_positions)
    know_limit = min(tx.MAX_KNOWLEDGE_POSITIONS, cfg.max_positions)
    out = []
    for inst in instances:
        if task == "alpha":
            opts = [(o, tx.encode_alpha_nli(inst, o, vocab, task_limit),
                     inst.rules_per_option[o - 1]) for o in (1, 2)]
        else:
            opts = [(1, tx.encode_cip(inst, vocab, task_limit), inst.rules)]
        try:
            results = []
            for _, seq, rules in opts:
                know = tx.encode_knowledge([D.verbalize_rule(r) for r in rules], vocab,
                                           know_limit)
                check_task_framing(seq.ids, vocab.id_to_token)
                check_knowledge_framing(know.ids, know.rule_spans, len(rules),
                                        vocab.id_to_token)
                results.append(ref.option(seq.ids, know.ids, know.rule_spans))
        except FramingError as exc:
            out.append(InstanceVerdict(False, False, False, False, [f"{inst.id}: {exc}"]))
            continue
        planted = {o: decisive.get((inst.id, o)) for o, _, _ in opts}
        out.append(judge(results, inst.gold, planted))
    return out


def chunk_rate(chunks, seconds) -> float:
    """Upper quartile of the per-chunk rates, in instances per second.

    The host has slow spells of one to ten seconds in which everything runs
    1.4 to 2 times slower. The median chunk flips between the two speeds
    when about half the chunks fall in a spell; the upper quartile reads the
    program's unhindered rate as long as a quarter of them do not.
    """
    rates = [(b - a) / s for (a, b), s in zip(chunks, seconds)]
    return statistics.quantiles(rates, n=4)[2] if len(rates) > 1 else rates[0]


def corpus(instances, verbalize) -> list[str]:
    texts = []
    for inst in instances:
        if hasattr(inst, "rules_per_option"):
            texts += [inst.o1, inst.o2, inst.h1, inst.h2]
            rule_lists = inst.rules_per_option
        else:
            texts += [inst.s1, inst.s2, inst.s3, inst.s2_cf]
            rule_lists = [inst.rules]
        texts += [verbalize(r) for rules in rule_lists for r in rules]
    return texts


def run_workload(w, seed: int, seconds: float, trace: bool, workdir: Path,
                 tamper: dict | None = None) -> dict:
    """One run of workload `w`.

    `tamper` is for the self-tests, which use it to show that each check can
    trip: "program" maps (test, decisive) to what the program's evaluate and
    inspect calls see instead, and "reference" alters the ReferenceModel.
    """
    tamper = tamper or {}
    sizes = w.sizes(seconds)
    t = time.perf_counter()
    splits = datagen.generate(workdir, w.task, seed, sizes, w.rules)
    gen_s = time.perf_counter() - t

    tracer = Tracer() if trace else None
    span = tracer.span if tracer else (lambda *a, **k: contextlib.nullcontext())
    p = load_program()
    if tracer:
        install_hooks(tracer, p)
    D, tx, M, TR = p["data"], p["text"], p["model"], p["train"]
    parse = D.parse_alpha_nli if w.task == "alpha" else D.parse_cip
    with span("data.parse"):
        data = {name: parse(s.data, s.knowledge) for name, s in splits.items()}
    with span("text.vocab"):
        vocab = tx.build_vocab(corpus(data["train"], D.verbalize_rule))
    cfg = M.ModelConfig(vocab_size=len(vocab), **w.model)
    with span("model.build"):
        M.build_model("mhka", cfg, vocab, seed=seed)
    setup_s = _STARTUP_S + (time.perf_counter() - _T0) - gen_s

    probes = [host_probe_ms()]
    tc = TR.TrainConfig(lr=w.lr, batch_size=w.batch_size, epochs=w.epochs, seed=seed)
    train_set, dev_set, test = data["train"], data["dev"], data["test"]
    decisive = {k: v for s in splits.values() for k, v in s.decisive.items()}
    program_test, program_decisive = test, decisive
    if "program" in tamper:
        program_test, program_decisive = tamper["program"](test, decisive)

    t = time.perf_counter()
    with span("train.fit"):
        model, fit_metrics = TR.fit("mhka", cfg, vocab, train_set, dev_set, tc)
    fit_s = time.perf_counter() - t

    # Evaluation and inspection alternate chunk by chunk, so that a slow spell
    # of the host, which can last seconds, falls on both phases alike.
    chunks = [(i, min(i + w.chunk, len(test))) for i in range(0, len(test), w.chunk)]
    eval_s, eval_correct, inspect_s, inspect_out = [], [], [], []
    for k, (a, b) in enumerate(chunks):
        t = time.perf_counter()
        with span("bench.eval_chunk", f"test[{k}]"):
            acc = TR.evaluate(model, program_test[a:b])
        eval_s.append(time.perf_counter() - t)
        eval_correct.append(round(acc * (b - a)))
        t = time.perf_counter()
        with span("bench.inspect_chunk", f"test[{k}]"), span("analysis.decisive_top_rate"):
            res = p["analysis"].decisive_top_rate(model, program_test[a:b], program_decisive)
        inspect_s.append(time.perf_counter() - t)
        inspect_out.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.append(host_probe_ms())
    if tracer:
        tracer.restore()

    verdicts = reference_verdicts(p, model, test, decisive, w.task, tamper.get("reference"))
    failures = {"fit": [], "eval": [], "inspect": []}
    for msg in (checks.loss_falls(fit_metrics.train_loss),
                checks.above_chance(sum(eval_correct), len(test), w.accuracy_margin)):
        if msg:
            failures["fit"].append(msg)
    for k, (a, b) in enumerate(chunks):
        faults = [f for v in verdicts[a:b] for f in v.faults]
        for phase, msg in (("eval", checks.eval_chunk(eval_correct[k], verdicts[a:b])),
                           ("inspect", checks.inspect_chunk(inspect_out[k], verdicts[a:b]))):
            if msg or faults:
                failures[phase].append(f"test[{k}]: {msg or faults[0]}")

    trained = sizes["train"] * w.epochs
    run = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes, "epochs": w.epochs, "generate_s": gen_s, "setup_s": setup_s,
        "startup_s": _STARTUP_S, "fit_s": fit_s, "eval_chunk_s": eval_s,
        "inspect_chunk_s": inspect_s, "chunk": w.chunk, "probe_ms": probes,
        "train_loss": fit_metrics.train_loss, "dev_accuracy": fit_metrics.dev_accuracy,
        "test_correct": sum(eval_correct),
        "top_hits": sum(r["top_hits"] for r in inspect_out),
        "correct_with_decisive": sum(r["correct_with_decisive"] for r in inspect_out),
        "set_aside": sum(not v.decided for v in verdicts),
        "failures": failures,
        "attempted": 1 + 2 * len(chunks),
        "failed": int(bool(failures["fit"])) + len(failures["eval"]) + len(failures["inspect"]),
    }
    run["verdicts"] = verdicts
    if tracer:
        run["metrics"] = layer_metrics(tracer, run)
        run["tracer"] = tracer
    else:
        run["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "train_inst_per_s": {"value": trained / fit_s, "unit": "1/s"},
            "eval_inst_per_s": {"value": chunk_rate(chunks, eval_s), "unit": "1/s"},
            "inspect_inst_per_s": {"value": chunk_rate(chunks, inspect_s), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        run = run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    tracer = run.pop("tracer", None)
    del run["verdicts"]
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    run["env"] = environment()
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print(json.dumps({"env": run["env"], "probe_ms": run["probe_ms"],
                      "failures": run["failures"]}))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
