"""Train the full two-pass model on a synthetic corpus and watch it
learn.

The corpus pairs target words with contexts that either share their
semantic field (literal) or clash with it (metaphoric), so the gold
rule is known exactly. A couple of thousand gradient steps take the
model from coin-flipping to near-perfect F1.
"""

from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.evaluation import evaluate_model, render_table
from melbert.model import ModelConfig
from melbert.training import TrainConfig, train_single


def main():
    train_set = make_synthetic_corpus(11, 600)
    heldout = make_synthetic_corpus(12, 200)
    vocab = train_bpe((" ".join(i.tokens) for i in train_set), 300)
    print(f"{len(train_set)} training instances, {len(heldout)} held out, "
          f"{len(vocab)} vocabulary entries")

    enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                        hidden_dim=64, ffn_dim=256, dropout=0.0, init_std=0.1)
    model_cfg = ModelConfig(encoder=enc)
    train_cfg = TrainConfig(epochs=14, batch_size=8, peak_lr=1e-3,
                            warmup_fraction=1 / 6, grad_clip=1.0)

    print(f"\n{'epoch':>5}  {'loss':>7}  {'held F1':>8}")

    def report(epoch, model, curve):
        f1 = evaluate_model(model, heldout).overall.f1
        print(f"{epoch:>5}  {curve[-1]:>7.4f}  {f1:>8.3f}")
        return f1 >= 0.97

    result = train_single(model_cfg, vocab, train_set, train_cfg, seed=0,
                          after_epoch=report)

    final = evaluate_model(result.model, heldout)
    print()
    print(render_table({"overall": final.overall, **final.by_pos}))
    print("\nmetaphor here is literally a clash of semantic fields, and the "
          "model finds it")


if __name__ == "__main__":
    main()
