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
    "base_all2all": ("918c114710885bf9c8a64446b41426a66d15b67f3b07f64b9230051492493487",
                     "6bb8d53bcedcb4674f4fd28eab479ef8c4d100e9e75ea7151cf4ef7334b7d08f"),
    "melbert": ("028e140742a523db2369648dcfc94ab0683c8aad536148872f171ab8629450cb",
                "754c81f9437cddf34fa9614ed0fdaba34a57d0567b8ef85eb87a7981634a427b"),
    "melbert batch 24": ("e18912e7012b6a2f839a5f6b48c91ffd04634978c041aed8188ddcda3488a710",
                         "8bd91fa91ff9fd0d7aea6eedfc9997383e5e7a6716f25f5a76c9aa791f3e0d85"),
    "melbert epoch 1": ("cdfe573d671e8e5e2d9c526a6620b51b266cc147a44f9d9c5a80adc59da8f431",
                        "78ccc4f80aa4125328e7cb2cb636088073ccc0ff7f761340b19ff0062a87ffb7"),
    "melbert mse": ("cd207301e1b7e32854d9bb76e8d3f7dba2e618d54808c7dba7ee5337fa823d39",
                    "2fbbc2f1e1496d1b43e8359d113703e3594714b7d8a2f02498b4cfda93c6211b"),
    "melbert resumed": ("67695b08f6b0e8d299a4d8c3d9b7b579eac03d8edbc2f820c7314a31cfb3ed1b",
                        "754c81f9437cddf34fa9614ed0fdaba34a57d0567b8ef85eb87a7981634a427b"),
    "no_mip": ("3b42b9ece674ca54823c5763b47c45e5ee2e1651cfe2cd3f55db142712108962",
               "a7c6d804feddfd2d3c10c65734f93831048b0e8fd1a15afd04810d51ff071cd7"),
    "no_spv": ("80890161d757695599503d98e5b59d1ad92aac715878ae8b414bb66176952536",
               "6701de400b9974fade8f1d72f2d657ef88e91d9162f9e772cf74cc9d76eb9f6d"),
    "seq": ("f98032baa67e5848bc85554f30cf660d45a4c4700ebaa82496c9c174028c2bba",
            "15af49ce8915a11f8262f003021ca935348f6b03fd8dd6d57a8654cdeff98756"),
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
