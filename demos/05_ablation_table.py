"""Which ingredients matter? Train all five variants under one protocol.

The full model uses both heads: one compares the target-in-context
against the target-in-isolation, the other compares the sentence gist
against the target-in-context. The ablations drop one head each; the
baselines drop the two-pass design entirely. Every run shares the same
corpus, schedule, and seed, so the table isolates architecture.
"""

from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.evaluation import evaluate_model, render_table
from melbert.model import ModelConfig, Variant
from melbert.training import TrainConfig, train_single

DESCRIPTIONS = {
    "melbert": "both heads, two encoder passes",
    "no_spv": "interaction head only",
    "no_mip": "contrast head only",
    "base_all2all": "single pass, unmarked pair",
    "seq": "classify the marked target vector",
}


def main():
    train_set = make_synthetic_corpus(21, 600)
    heldout = make_synthetic_corpus(22, 200)
    vocab = train_bpe((" ".join(i.tokens) for i in train_set), 300)
    train_cfg = TrainConfig(epochs=18, batch_size=8, peak_lr=1e-3,
                            warmup_fraction=1 / 6, grad_clip=1.0)

    rows = {}
    for variant in Variant:
        enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden_dim=64, ffn_dim=256, dropout=0.0, init_std=0.1)
        cfg = ModelConfig(encoder=enc, variant=variant)
        best = {}

        def keep_best(epoch, model, losses):
            report = evaluate_model(model, heldout).overall
            if not best or report.f1 > best["report"].f1:
                best["report"], best["epoch"] = report, epoch
            return report.f1 >= 0.97

        train_single(cfg, vocab, train_set, train_cfg, seed=0, after_epoch=keep_best)
        rows[variant.value] = best["report"]
        print(f"trained {variant.value:<13} ({DESCRIPTIONS[variant.value]}), "
              f"best at epoch {best['epoch']}")

    print()
    print(render_table(rows, title="same data, same schedule, same seed; "
                                   "each row keeps its best epoch"))
    print("\nparameter counts differ across variants because dropped heads "
          "are never allocated")


if __name__ == "__main__":
    main()
