"""Output checks that compare the program with the reference forward, and
the two properties of the method that every run asserts.

Each check returns None when it holds and a one-line reason when it fails.
Counts from the program are compared with ranges from the reference: an
instance whose reference decision sits within rounding may go either way.
"""

from __future__ import annotations

from reference import InstanceVerdict


def eval_chunk(program_correct: int, verdicts: list[InstanceVerdict]) -> str | None:
    """`train.evaluate`'s correct count against the reference predictions."""
    sure = sum(v.correct for v in verdicts if v.decided)
    unsure = sum(not v.decided for v in verdicts)
    if not sure <= program_correct <= sure + unsure:
        return (f"evaluate counted {program_correct} correct, reference "
                f"{sure} (+{unsure} within rounding)")
    return None


def inspect_chunk(program: dict, verdicts: list[InstanceVerdict]) -> str | None:
    """`analysis.decisive_top_rate`'s counts against the reference's final
    reasoning layer rule masses."""
    unsure_pred = sum(not v.decided for v in verdicts)
    sure_correct = sum(v.correct for v in verdicts if v.decided)
    sure_hits = sum(v.top_hit for v in verdicts if v.decided and v.top_decided)
    unsure_hits = unsure_pred + sum(v.correct and not v.top_decided
                                    for v in verdicts if v.decided)
    cwd, hits = program["correct_with_decisive"], program["top_hits"]
    if not sure_correct <= cwd <= sure_correct + unsure_pred:
        return (f"decisive_top_rate saw {cwd} correct instances, reference "
                f"{sure_correct} (+{unsure_pred} within rounding)")
    if not sure_hits <= hits <= sure_hits + unsure_hits:
        return (f"decisive_top_rate counted {hits} top hits, reference "
                f"{sure_hits} (+{unsure_hits} within rounding)")
    return None


def loss_falls(train_loss: list[float]) -> str | None:
    if len(train_loss) < 2 or not train_loss[-1] < train_loss[0]:
        return f"training loss did not fall from first to last epoch: {train_loss}"
    return None


def above_chance(correct: int, total: int, margin: float | None) -> str | None:
    if margin is not None and not correct / total > 0.5 + margin:
        return (f"held-out accuracy {correct}/{total} = {correct / total:.3f} "
                f"is not above 0.5 + {margin}")
    return None
