"""Transfer items and transactions.

§2.4 of the paper defines the scheduler's job: "we have N available paths
[…] and M items to download/upload, from/to a given server. We refer to the
action of downloading/uploading the set of M items a *transaction*. The
scheduler goal is to transfer the full set of M items as fast as possible."
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.util.stats import ordered_sum
from repro.util.units import bytes_to_megabytes
from repro.util.validate import check_positive


class Direction(enum.Enum):
    """Which way a transaction moves data."""

    DOWNLOAD = "download"
    UPLOAD = "upload"


@dataclass(frozen=True)
class TransferItem:
    """One item of a transaction: a video segment, a photo, a generic file.

    ``metadata`` carries application context (e.g. the HLS segment index
    the item corresponds to) without the scheduler having to know about
    applications.
    """

    label: str
    size_bytes: float
    metadata: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("item label must be non-empty")
        check_positive("size_bytes", self.size_bytes)


class Transaction:
    """An ordered set of items to move in one direction.

    Order matters: HLS segments must be *scheduled* in playout order (the
    player needs earlier segments first), and the greedy scheduler's
    "oldest scheduled item" tie-breaking is defined on this order.
    """

    _ids = itertools.count(1)

    @classmethod
    def _reset_ids(cls) -> None:
        """Restart the id stream (per-experiment isolation; see runner)."""
        cls._ids = itertools.count(1)

    def __init__(
        self,
        items: Sequence[TransferItem],
        direction: Direction = Direction.DOWNLOAD,
        name: Optional[str] = None,
    ) -> None:
        if not items:
            raise ValueError("transaction must contain at least one item")
        labels = [item.label for item in items]
        if len(set(labels)) != len(labels):
            raise ValueError("item labels within a transaction must be unique")
        self.transaction_id = next(Transaction._ids)
        self.items: List[TransferItem] = list(items)
        self.direction = direction
        self.name = name or f"txn-{self.transaction_id}"

    @property
    def total_bytes(self) -> float:
        """Sum of item sizes."""
        return ordered_sum(item.size_bytes for item in self.items)

    @property
    def max_item_bytes(self) -> float:
        """Largest item size (the S_m of the paper's waste bound)."""
        return max(item.size_bytes for item in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[TransferItem]:
        return iter(self.items)

    def __repr__(self) -> str:
        return (
            f"Transaction({self.name!r}, {len(self.items)} items, "
            f"{bytes_to_megabytes(self.total_bytes):.2f} MB, "
            f"{self.direction.value})"
        )


def items_from_sizes(  # repro-lint: disable=RL014  # b: test fixtures
    sizes: Sequence[float], prefix: str = "item"
) -> List[TransferItem]:
    """Convenience: build items labelled ``prefix-0…`` from raw sizes."""
    if not sizes:
        raise ValueError("need at least one size")
    return [
        TransferItem(label=f"{prefix}-{i}", size_bytes=float(size))
        for i, size in enumerate(sizes)
    ]
