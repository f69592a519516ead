"""Unit conventions and conversions.

The whole code base uses one convention, chosen to match how the paper
reports its numbers:

* **volumes** are in *bytes* (floats are fine: the fluid simulator transfers
  fractional bytes),
* **rates** are in *bits per second*, because link speeds in the paper are
  quoted in kbps/Mbps,
* **time** is in *seconds*.

All conversions between those domains must go through the helpers below so
there is exactly one place where a factor of 8 can hide.
"""

from __future__ import annotations

import math

#: Number of bytes in a kilobyte / megabyte / gigabyte (decimal, as used by
#: operators and by the paper when quoting file sizes and data caps).
KB = 1_000.0
MB = 1_000_000.0
GB = 1_000_000_000.0

_BITS_PER_BYTE = 8.0


def kbps(value: float) -> float:
    """Return ``value`` kilobits/second expressed in bits/second."""
    return value * 1_000.0


def mbps(value: float) -> float:
    """Return ``value`` megabits/second expressed in bits/second."""
    return value * 1_000_000.0


def megabytes(value: float) -> float:
    """Return ``value`` megabytes expressed in bytes."""
    return value * MB


def bits_to_bytes(bits: float) -> float:
    """Convert a volume in bits to bytes."""
    return bits / _BITS_PER_BYTE


def bytes_to_bits(nbytes: float) -> float:
    """Convert a volume in bytes to bits."""
    return nbytes * _BITS_PER_BYTE


def bytes_to_megabytes(nbytes: float) -> float:
    """Convert a volume in bytes to (decimal) megabytes."""
    return nbytes / MB


def rate_to_mbps(rate_bps: float) -> float:
    """Convert a rate in bits/second to megabits/second (for reporting)."""
    return rate_bps / 1_000_000.0


def rate_to_gbps(rate_bps: float) -> float:
    """Convert a rate in bits/second to gigabits/second (for reporting)."""
    return rate_bps / 1_000_000_000.0


def transfer_seconds(nbytes: float, rate_bps: float) -> float:
    """Time in seconds to move ``nbytes`` at a constant ``rate_bps``.

    Raises :class:`ValueError` for a non-positive rate because a transfer
    over a dead link never completes; callers that want "infinity" should
    handle the zero-rate case explicitly.
    """
    if not math.isfinite(rate_bps) or not math.isfinite(nbytes):
        raise ValueError(
            f"arguments must be finite, got {nbytes} bytes at {rate_bps} bps"
        )
    if rate_bps <= 0.0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if nbytes < 0.0:
        raise ValueError(f"volume must be non-negative, got {nbytes}")
    return bytes_to_bits(nbytes) / rate_bps


#: Historical name of :func:`transfer_seconds`, kept for callers that
#: predate the repro-lint RL002 sweep.
seconds_to_transfer = transfer_seconds


def transfer_rate(nbytes: float, seconds: float) -> float:
    """Rate in bits/second that moves ``nbytes`` in ``seconds`` seconds.

    The inverse of :func:`transfer_seconds`: what a throughput sample
    computes from an observed transfer. Raises :class:`ValueError` for a
    non-positive duration (an instantaneous transfer has no finite rate).
    """
    if not math.isfinite(seconds) or not math.isfinite(nbytes):
        raise ValueError(
            f"arguments must be finite, got {nbytes} bytes in {seconds} s"
        )
    if seconds <= 0.0:
        raise ValueError(f"duration must be positive, got {seconds}")
    if nbytes < 0.0:
        raise ValueError(f"volume must be non-negative, got {nbytes}")
    return bytes_to_bits(nbytes) / seconds


def transfer_volume(rate_bps: float, seconds: float) -> float:
    """Bytes moved at a constant ``rate_bps`` over ``seconds`` seconds."""
    if not math.isfinite(rate_bps) or not math.isfinite(seconds):
        raise ValueError(
            f"arguments must be finite, got {rate_bps} bps for {seconds} s"
        )
    if rate_bps < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate_bps}")
    if seconds < 0.0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    return bits_to_bytes(rate_bps * seconds)
