"""Reference synthetic trace, one concatenated block per draw.

:func:`intervalcast.data.generate_synthds` builds its four blocks once and
must return a byte-identical trace; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from intervalcast.data import (
    SYNTH_CLASSES,
    SYNTH_LENGTH,
    synth_hypothesis,
    synth_input_segment,
)


def per_block_synthds(seed: int, noise_sd: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    input_seg = synth_input_segment()
    pieces = []
    total = 0
    while total < SYNTH_LENGTH:
        k = int(rng.integers(0, SYNTH_CLASSES))
        block = np.concatenate([input_seg, synth_hypothesis(k)])
        pieces.append(block)
        total += block.size
    trace = np.concatenate(pieces)[:SYNTH_LENGTH]
    if noise_sd > 0:
        trace = trace + rng.normal(noise_sd, noise_sd, size=trace.size)
    return trace.reshape(-1, 1)
