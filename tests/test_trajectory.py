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
    "base_all2all": ("7cbb361f2b7936611283cd18a328c7f59800f3b94d14cb4366b33ba15df4fb85",
                    "3d6d88cef4a863a6e01f8872e6261073cf95c1a2df97411ef0adfc06dcde4761"),
    "melbert": ("3c43a67fd74b82c659005bffd1e32a9e1b09b44146381de9d368806a59cb2c39",
               "a01625d1d018278b248693fd1bdf0ef5f1c02389ad1a4455fc19518ce08548b5"),
    "melbert epoch 1": ("4128f650f6ff0c2845d7bfff6dd89b2cea13b3e0c0d562fadccce46a41500d1d",
                       "852bb270eaa667d26c19702aa34df935cb531639dab0ed951187bf242be66c5f"),
    "melbert mse": ("6710b506cdf152f091d85a2de187b2d561b5a65c637e27f3a327111aab14e444",
                   "ce07154563481265fdefaae9621c081e6c8785d0433ba0627202fa642448b985"),
    "melbert resumed": ("9553f88dd7f8342a8052804e2ef7ad1e6b2bac4eebc775fb51c6beee9cd0e752",
                       "a01625d1d018278b248693fd1bdf0ef5f1c02389ad1a4455fc19518ce08548b5"),
    "no_mip": ("c98abe1612e5abcb5e5dd267ef7e3b0672d01458d7db4e125a5a9629549e50b2",
              "7276bd1c8123bfd4f8d10bdaa14d9f9792c72f584c61889321b12acbaa4d5d83"),
    "no_spv": ("42dd062b8199ebb1ec5c232f002d36ed896907aa53bc68115f3142a12e995bed",
              "210ad43fd0e943467aa75250b46208314b385c4c9e72406005913c4d7c637815"),
    "seq": ("0596cdd5c6386a96512732d591c94dd70ac2a294ffa47cbf8b4d21f9bbfead13",
           "5a43108ec5075b3d44ced5740f20e21b05658e36688ecb08d4c028be89cc7992"),
}


def run_digests() -> dict:
    """The digests of every pinned run, and in how many of its steps the clip fired."""
    corpus = make_synthetic_corpus(7, 24)
    vocab = train_bpe((" ".join(i.tokens) for i in corpus), 220)
    encoder = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2, hidden_dim=16, ffn_dim=32,
                            dropout=0.1)
    bce = TrainConfig(epochs=2, batch_size=8, peak_lr=1e-3, pos_weight=2.0, grad_clip=0.2)
    mse = TrainConfig(epochs=2, batch_size=8, peak_lr=1e-3, grad_clip=0.1, objective="mse")
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
