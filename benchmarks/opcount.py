"""Operation counts for the ``mlp`` forecaster, computed from its dimensions.

These are counts derived on paper, not measurements.  A multiply-add is two
FLOPs; activations, bias adds and the loss are left out.  Byte counts
assume float64 arrays, each read or written once.
"""

from __future__ import annotations

FLOAT_BYTES = 8


def _mlp_dims(arch) -> tuple[int, int, int]:
    if arch.kind != "mlp":
        raise ValueError(f"operation counts cover the mlp architecture, not {arch.kind!r}")
    return arch.w * arch.n + 2, arch.hidden, 2 * arch.tau * arch.n


def forward_flop_per_row(arch) -> int:
    """Input-to-hidden and hidden-to-output products for one history."""
    d_in, hidden, d_out = _mlp_dims(arch)
    return 2 * hidden * (d_in + d_out)


def backward_flop_per_row(arch) -> int:
    """The forward pass plus the W2, hidden-activation and W1 gradient products."""
    d_in, hidden, d_out = _mlp_dims(arch)
    return forward_flop_per_row(arch) + 2 * hidden * (2 * d_out + d_in)


def adamw_bytes_per_update(arch) -> int:
    """theta, gradient and both moments read; theta and both moments written."""
    return 7 * FLOAT_BYTES * arch.param_count()
