"""Classification metrics, grouped breakdowns, correlation statistics,
and report rendering.

Every statistic here is computed from its textbook formula in numpy,
so the tests can cross-check each value against an independent route.
Zero-denominator cases never raise: the metric is reported as 0.0 and
the condition is recorded in the report's flags.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .bpe import MARKER, UNK_ID, Vocab
from .data import Instance
from .errors import ContractError
from .model import Prediction


@dataclass
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    n: int
    flags: list[str] = field(default_factory=list)


def score_predictions(predicted: list[int], gold: list[int]) -> MetricsReport:
    """Precision/recall/F1 for the positive (metaphor) class."""
    if len(predicted) != len(gold):
        raise ContractError(f"{len(predicted)} predictions for {len(gold)} gold labels")
    if not predicted:
        raise ContractError("cannot score an empty prediction list")
    p = np.asarray(predicted)
    g = np.asarray(gold)
    if not (np.isin(p, (0, 1)).all() and np.isin(g, (0, 1)).all()):
        raise ContractError("labels must be 0 or 1")
    tp = int(((p == 1) & (g == 1)).sum())
    fp = int(((p == 1) & (g == 0)).sum())
    fn = int(((p == 0) & (g == 1)).sum())
    tn = int(((p == 0) & (g == 0)).sum())
    flags = []
    if tp + fp == 0:
        precision = 0.0
        flags.append("no_positive_predictions")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append("no_positive_gold")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        flags.append("f1_undefined")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(tp, fp, fn, tn, precision, recall, f1, n=len(predicted), flags=flags)


def breakdown(
    predicted: list[int], gold: list[int], keys: list
) -> tuple[dict[str, MetricsReport], int]:
    """Per-group metrics; instances with a missing key are counted, not scored."""
    if not len(predicted) == len(gold) == len(keys):
        raise ContractError("predictions, gold labels, and group keys must align")
    groups: dict[str, tuple[list[int], list[int]]] = {}
    skipped = 0
    for p, g, k in zip(predicted, gold, keys):
        if k is None:
            skipped += 1
            continue
        groups.setdefault(str(k), ([], []))
        groups[str(k)][0].append(p)
        groups[str(k)][1].append(g)
    reports = {k: score_predictions(ps, gs) for k, (ps, gs) in sorted(groups.items())}
    return reports, skipped


@dataclass
class EvalReport:
    overall: MetricsReport
    by_genre: dict[str, MetricsReport]
    by_pos: dict[str, MetricsReport]
    skipped_genre: int = 0
    flags: dict = field(default_factory=dict)


def evaluate_model(model, instances: list[Instance]) -> EvalReport:
    """Run predictions and aggregate overall and per-group metrics.

    Works for anything with a predict(instance) -> Prediction method,
    which covers both single models and CV ensembles.
    """
    if not instances:
        raise ContractError("cannot evaluate on an empty dataset")
    preds: list[Prediction] = [model.predict(inst) for inst in instances]
    labels = [p.label for p in preds]
    gold = [int(i.gold) for i in instances]
    overall = score_predictions(labels, gold)
    by_genre, skipped = breakdown(labels, gold, [i.genre for i in instances])
    by_pos, _ = breakdown(labels, gold, [i.pos_tag for i in instances])
    return EvalReport(overall=overall, by_genre=by_genre, by_pos=by_pos, skipped_genre=skipped)


@dataclass
class RegressionReport:
    pearson: float
    spearman: float
    n: int
    flags: list[str] = field(default_factory=list)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, each tie group given its mean rank."""
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # each group's highest rank
    return ((2 * last - counts + 1) / 2)[group]


def regression_scores(predicted, target) -> RegressionReport:
    """Pearson and Spearman correlation for graded novelty scores.

    A constant series has no defined correlation; both values are
    reported as 0.0 with a flag instead of dividing by zero.
    """
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError("predicted and target must be equal-length vectors")
    if x.size < 3:
        raise ContractError("correlation needs at least three pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ContractError("correlation needs finite values")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return RegressionReport(0.0, 0.0, n=x.size, flags=["constant_series"])

    def pearson(u, v):
        uc = u - u.mean()
        vc = v - v.mean()
        return float((uc * vc).sum() / np.sqrt((uc * uc).sum() * (vc * vc).sum()))

    # a series that varies has at least two distinct ranks
    return RegressionReport(pearson(x, y), pearson(_average_ranks(x), _average_ranks(y)), n=x.size)


def unknown_rates(vocab: Vocab, instances: list[Instance]) -> dict[str, float]:
    """How much of a corpus the vocabulary cannot see: the share of targets
    that dissolve entirely into [UNK], and of sub-tokens that are [UNK].

    A target with no known content leaves the interaction head blind, so
    ``eval`` reports both rates next to its metrics.
    """
    unk_targets = unk_tokens = total_tokens = 0
    for inst in instances:
        words = [vocab.encode_word(word, initial=pos == 0) for pos, word in enumerate(inst.tokens)]
        total_tokens += sum(len(ids) for ids in words)
        unk_tokens += sum(ids.count(UNK_ID) for ids in words)
        # the word-start sentinel is always known; the question is whether
        # any actual content of the target survives
        content = [i for i in words[inst.target_index] if vocab.id_to_token.get(i) != MARKER]
        if content and all(i == UNK_ID for i in content):
            unk_targets += 1
    return {"unk_target_rate": unk_targets / len(instances),
            "unk_token_rate": unk_tokens / total_tokens if total_tokens else 0.0}


def render_table(rows: dict[str, MetricsReport], title: str = "") -> str:
    """Fixed-width table with percentages to one decimal."""
    lines = []
    if title:
        lines.append(title)
    name_w = max([len(k) for k in rows] + [len("group")])
    lines.append(f"{'group':<{name_w}}  {'n':>6}  {'prec':>6}  {'rec':>6}  {'f1':>6}")
    for name, r in rows.items():
        lines.append(
            f"{name:<{name_w}}  {r.n:>6}  {100 * r.precision:>6.1f}  "
            f"{100 * r.recall:>6.1f}  {100 * r.f1:>6.1f}"
        )
    return "\n".join(lines)


def report_to_json(report: EvalReport, config: dict, dataset_sha256: str) -> str:
    """Serialize a full evaluation with its provenance for later diffing."""
    doc = {"config": config, "dataset_sha256": dataset_sha256, **asdict(report)}
    return json.dumps(doc, indent=2, sort_keys=True)

