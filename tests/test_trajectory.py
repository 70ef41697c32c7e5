"""What training computes, pinned: the step log and the trained parameters
of short runs, as SHA-256 digests.

Each of the five variants trains a tiny model for two epochs with dropout,
a gradient clip that fires and a positive-class weight. One more run trains
under mse, and the melbert run is also stopped at its epoch-1 checkpoint
and resumed from it. The runs take place in one subprocess with
``OPENBLAS_NUM_THREADS=1``, set before numpy loads, so every BLAS
reduction has one order.

A change that moves a trained number on purpose re-pins ``PINS`` and
states the old and new digests and the cause in CHANGES.md. Run this file
as a script to print the digests it computes.
"""

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
    "base_all2all": ("253ac1db727736ae439e238ec3afc8527f434d08c1717cab5edeb6a55a34e4bb",
                     "6d85c24cc4e03671ad48df38f817e547e6bd74bdef3d1639ab6eca72762e9469"),
    "melbert": ("93067467e4a5c7ba03c20573ed946399e9b8414cfc5c4ac37e70abb004a30a5b",
                "a507eaf7fb75910b9db0dbb4f4cb14eeefa40d377973ef56f5eb6d2b5ab99c67"),
    "melbert epoch 1": ("ac32e55633811d5a4e9f02a3cbb74f646ce0d8b20b6472f979bd660442a91b69",
                        "557fece63afb448b15b905113f1d1f7e00660c842ea4252c01067a70fd808236"),
    "melbert mse": ("e07612dcc636f4dd55f8c9a472dedaedcce45f25dce5e4c349484053bf62272d",
                    "240f6de74b72818eb22e9d35016944675c7557a41a47489eaa33735f8e467cd5"),
    "melbert resumed": ("6c13e74c82f140ecd3c69c8913700b628131468a0c4381e86b69892f8e84ffaa",
                        "a507eaf7fb75910b9db0dbb4f4cb14eeefa40d377973ef56f5eb6d2b5ab99c67"),
    "no_mip": ("912e08635f5d894dfbd332add6d7b467e1877a48fd949d4f9249b10925805ac0",
               "dece0f621c43441e9ca6a3ae6ffc8839ae8b5ef4f949a90db0c2d33d28dedc32"),
    "no_spv": ("faa82a688f215e1dfe4f1ea42a0611416f08f703b7dd0143fa4f3039ec88a34e",
               "f40fb5f16131cd0ef98951e346413bc41e60c30922c148d9b6387c3851f9d6c1"),
    "seq": ("ed0f9ecec2e1b51edb7d02fa0acf7300769cf86dab9435a935eb2398868f967a",
            "b15e9621ca42f25f0994964a91a2a6251392733e3b56366797bdf4ab5d4a9c7e"),
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
