"""Metaphor detection with late-interaction transformer encoders.

The package is organized bottom-up:

- ``autodiff``: float64 tensors with taped reverse-mode gradients
- ``settings``: the config schema shared by checkpoints, config files and flags
- ``rng``: one seedable Philox stream feeding every random choice
- ``bpe``: word-level byte-pair-encoding tokenizer
- ``inputs``: sentence/target id sequences with segment and POS marking
- ``encoder``: post-layer-norm transformer encoder (siamese use)
- ``heads``: the five variants and the heads each runs, combiner, and losses
- ``model``: the five scoring variants wired to the encoder
- ``data``: corpus loading, summaries, synthesis, k-fold splits
- ``training``: Adam, warmup/decay schedule, checkpoints, bagging
- ``evaluation``: metrics, breakdowns, correlation
- ``cli``: the ``melbert`` command-line entry point
"""

import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1  # glibc's <malloc.h> parameter numbers
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on a 64-bit build


def _keep_freed_memory() -> bool:
    """Make glibc keep the memory a training step frees; whether it took.

    A long packed training step frees about 100 MB of float64
    intermediates in its backward sweep. By default glibc then trims its
    heap, because its trim threshold follows the largest freed array
    (twice it, about 10 MB here), so the next step faults every page
    back in: about 11k minor faults a step. Fixing the mmap threshold at
    32 MiB puts every smaller array on the heap, and a trim threshold of
    -1 (read as the largest size) never trims it, so resident memory
    stays near the largest step's peak. Arrays above 32 MiB are still
    mapped and unmapped one by one. ``mallopt`` is glibc's, so on any
    other C library this does nothing. The trim threshold is set only
    once the mmap threshold has taken, so a refused call leaves glibc's
    defaults whole.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, ValueError):  # no confstr name, ctypes or symbol
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, -1) == 1


_keep_freed_memory()
