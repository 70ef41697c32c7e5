"""Metaphor detection with late-interaction transformer encoders.

The package is organized bottom-up:

- ``autodiff``: float64 tensors with taped reverse-mode gradients
- ``settings``: the config schema shared by checkpoints, config files and flags
- ``rng``: one seedable Philox stream feeding every random choice
- ``bpe``: word-level byte-pair-encoding tokenizer
- ``inputs``: sentence/target id sequences with segment and POS marking
- ``encoder``: post-layer-norm transformer encoder (siamese use)
- ``heads``: interaction heads, combiner, and losses
- ``model``: the five scoring variants wired to the encoder
- ``data``: corpus loading, summaries, synthesis, k-fold splits
- ``training``: Adam, warmup/decay schedule, checkpoints, bagging
- ``evaluation``: metrics, breakdowns, correlation
- ``cli``: the ``melbert`` command-line entry point
"""

__version__ = "0.1.0"
