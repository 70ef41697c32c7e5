"""Bagging over k-fold splits: several okay models vote better than one.

Each fold trains on its own subset with its own seed. At prediction
time the ensemble averages the member scores before thresholding, which
smooths out individual wobbles. The fold splits group by sentence so no
sentence leaks between a member's train and heldout parts.
"""

from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.evaluation import evaluate_model, render_table
from melbert.model import ModelConfig
from melbert.training import TrainConfig, bagging_cv_train


def main():
    train_set = make_synthetic_corpus(31, 600)
    heldout = make_synthetic_corpus(32, 200)
    vocab = train_bpe((" ".join(i.tokens) for i in train_set), 300)

    enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                        hidden_dim=64, ffn_dim=256, dropout=0.0, init_std=0.1)
    model_cfg = ModelConfig(encoder=enc)
    # each member sees only k-1 folds, so it needs a longer run than a
    # model trained on everything
    train_cfg = TrainConfig(epochs=28, batch_size=8, peak_lr=1e-3,
                            warmup_fraction=1 / 6, grad_clip=1.0)

    k = 3
    print(f"training a {k}-fold bagged ensemble ({k} models)...")
    ensemble, results = bagging_cv_train(model_cfg, vocab, train_set, k=k,
                                         cfg=train_cfg, seed=40)

    rows = {}
    for i, res in enumerate(results):
        rows[f"fold {i} alone"] = evaluate_model(res.model, heldout).overall
    rows["ensemble"] = evaluate_model(ensemble, heldout).overall

    print()
    print(render_table(rows, title="members vs. their average"))
    print("\nscores are averaged before thresholding, so one shaky member "
          "rarely flips a prediction")


if __name__ == "__main__":
    main()
