"""The benchmark's workloads: data shape, model shape, training settings,
and how many instances each phase gets for a given run length.

Sizes scale with the run length through nominal rates, instances per second
measured on the reference host (2 cores, one BLAS thread), so that a run of
`seconds` spends about 70% of it in `train.fit` and the rest in evaluation
and inspection of one held-out split. The fit gets the larger share because
it is one call and cannot be split into chunks. Sizes depend only on the run
length, never on a measurement, so a seed fixes the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

DESK_MODEL = dict(d_model=64, n_heads=4, ctx_layers=1, know_layers=1, reason_layers=2,
                  d_ff=128, max_positions=256, dropout=0.1, dtype="float32")
WIDE_MODEL = dict(DESK_MODEL, d_model=256, n_heads=8, ctx_layers=2, know_layers=2,
                  d_ff=1024)

TRAIN_SHARE = 0.7
MIN_CHUNKS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                 # "alpha" (abductive pairs) or "cip" (counterfactual)
    rules: tuple[int, int]    # inclusive range of rules per option
    model: dict
    lr: float
    epochs: int
    chunk: int                # held-out instances per evaluate / inspect call
    train_rate: float         # nominal fit instances/s, dev evaluation included
    test_rate: float          # nominal held-out instances/s, evaluate then inspect
    accuracy_margin: float | None = None  # held-out accuracy must exceed 0.5 + this
    batch_size: int = 8

    def sizes(self, seconds: float) -> dict:
        n_train = max(self.batch_size, round(seconds * TRAIN_SHARE * self.train_rate
                                             / self.epochs))
        chunks = max(MIN_CHUNKS,
                     round(seconds * (1 - TRAIN_SHARE) * self.test_rate / self.chunk))
        return {"train": n_train, "dev": max(self.chunk // 2, n_train // 4),
                "test": chunks * self.chunk}


WORKLOADS = {w.name: w for w in (
    # BENCHMARK.json says why each workload is there. At lr 1e-3 some
    # alpha-desk seeds saw their training loss climb back to chance in the
    # last epoch (see CHANGES.md), so the desk model trains at 5e-4.
    # accuracy_margin applies where the fit is long enough to learn the rules.
    Workload(
        name="alpha-desk",
        task="alpha", rules=(16, 16), model=DESK_MODEL, lr=5e-4, epochs=3, chunk=40,
        train_rate=62.0, test_rate=65.0, accuracy_margin=0.1),
    Workload(
        name="cip-mixed",
        task="cip", rules=(2, 24), model=DESK_MODEL, lr=5e-4, epochs=4, chunk=40,
        train_rate=120.0, test_rate=130.0, accuracy_margin=0.1),
    Workload(
        name="alpha-wide",
        task="alpha", rules=(16, 16), model=WIDE_MODEL, lr=3e-4, epochs=2, chunk=8,
        train_rate=5.4, test_rate=7.3, batch_size=4),
)}
