"""What training computes, pinned: the step log and the trained parameters
of short runs, as SHA-256 digests.

Each of the five variants trains a tiny model for two epochs with dropout,
a gradient clip that fires and a positive-class weight. One more run trains
under mse, and one takes all 24 sentences as one batch: each of its steps
packs 403 rows, so ``feed_forward`` runs in two row chunks. The melbert
run is also stopped at its epoch-1 checkpoint and resumed from it. The
runs take place in one subprocess with ``OPENBLAS_NUM_THREADS=1``, set
before numpy loads, so every BLAS reduction has one order.

A change that moves a trained number on purpose re-pins ``PINS`` and
states the old and new digests and the cause in CHANGES.md. Run this file
as a script to print the digests it computes.
"""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from melbert import training
from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.model import ModelConfig, Variant
from melbert.training import TrainConfig, train_single

SRC = Path(__file__).resolve().parents[1] / "src"

# run -> (SHA-256 of the step log's bytes, SHA-256 of the parameters as
# little-endian float64 bytes in parameters() order)
PINS = {
    "base_all2all": ("fee9a47e96924611865eeeba10e2b8b3e33ca747654bb71ab0cb73abaa449bc9",
                     "ea0d74862fb582693d4458e0f5e75b9f58455e4e620f7837c3e00e5e3e5f9e8e"),
    "melbert": ("b5760ea858aab16e8a2981a251d09bbff6c74217bdc06171280fa5cf39bd9041",
                "0fabcb042b22b4f4c091f324fd471423f73f84556dd706f8a07c8f330f4e6f80"),
    "melbert batch 24": ("e18912e7012b6a2f839a5f6b48c91ffd04634978c041aed8188ddcda3488a710",
                         "8962070e9ed7312cff2872757f0fd3fd0107226f7feb64482d762f3c00c0930a"),
    "melbert epoch 1": ("f75d56d33652ffe837d0af25d1dcf0dc548cc4bfcba2591b46a88ef20a701cf9",
                        "d2e89847f241730bb7b01acdbc968e4dfea275f1e7f8fbb521de97b27cf2c821"),
    "melbert mse": ("cd207301e1b7e32854d9bb76e8d3f7dba2e618d54808c7dba7ee5337fa823d39",
                    "2fbbc2f1e1496d1b43e8359d113703e3594714b7d8a2f02498b4cfda93c6211b"),
    "melbert resumed": ("d1ac399c8b343b7aa8c4d18007b91b4bdefadd05848043335b08575dd44e2d7c",
                        "0fabcb042b22b4f4c091f324fd471423f73f84556dd706f8a07c8f330f4e6f80"),
    "no_mip": ("a94429b0d44819d535b7c2b57f32cd5a36b9f984aefcfa6551fa0e7f3a4944a2",
               "2cbd210700158db9a59b21463cbb69dd77f21e2720a4c1576bb403368253c1df"),
    "no_spv": ("9fc59f56c86938fd2865b4d3d6b9678c33053ea567dbc0f133bb0343e776d9b8",
               "be69119572ad45a3d97fea972af9d6a0d3e82f7859cd4ff42850926e68e9eb2d"),
    "seq": ("b4376b8c9bb922f4212f8653539d29ce714e7aa04e1829494da95bc15b5a89f9",
            "401426ee4cea25d2d0e02ee02e08ec53d288cebe523c8e001d5bf92f84e81b9e"),
}


def run_digests() -> dict:
    """The digests of every pinned run, and in how many of its steps the clip fired."""
    corpus = make_synthetic_corpus(7, 24)
    vocab = train_bpe((" ".join(i.tokens) for i in corpus), 220)
    encoder = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2, hidden_dim=16, ffn_dim=32,
                            dropout=0.1)
    bce = TrainConfig(epochs=2, batch_size=8, peak_lr=1e-3, pos_weight=2.0, grad_clip=0.2)
    mse = TrainConfig(epochs=2, batch_size=8, peak_lr=1e-3, grad_clip=0.05, objective="mse")
    runs, clipped = {}, {}
    clip = training.clip_gradients

    def run(name, variant, cfg, **kwargs):
        def counting_clip(params, max_norm):
            norm = clip(params, max_norm)
            clipped[name] += norm > max_norm
            return norm

        clipped[name] = 0
        training.clip_gradients = counting_clip
        log = io.StringIO()
        result = train_single(ModelConfig(encoder=encoder, variant=variant), vocab, corpus, cfg, seed=3,
                              log_fh=log, **kwargs)
        params = hashlib.sha256()
        for tensor in result.model.parameters().values():
            params.update(tensor.data.astype("<f8").tobytes())
        runs[name] = (hashlib.sha256(log.getvalue().encode()).hexdigest(), params.hexdigest())

    for variant in Variant:
        run(variant.value, variant, bce)
    run("melbert batch 24", Variant.MELBERT, dataclasses.replace(bce, batch_size=24))
    run("melbert mse", Variant.MELBERT, mse)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "epoch1.ckpt")
        run("melbert epoch 1", Variant.MELBERT, bce, checkpoint_path=ckpt, after_epoch=lambda epoch, *_: True)
        run("melbert resumed", Variant.MELBERT, bce, resume_from=ckpt)
    return {"runs": runs, "clipped": clipped}


def test_trained_numbers_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(n > 0 for n in out["clipped"].values()), out["clipped"]
    # the resumed run ends on the parameters of the run that never stopped
    assert out["runs"]["melbert resumed"][1] == out["runs"]["melbert"][1]
    assert {name: tuple(pair) for name, pair in out["runs"].items()} == PINS


if __name__ == "__main__":
    print(json.dumps(run_digests(), indent=1, sort_keys=True))
