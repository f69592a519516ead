"""Transfer items and transactions."""

import pytest

from repro.core.items import (
    Direction,
    Transaction,
    TransferItem,
    items_from_sizes,
)


class TestTransferItem:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferItem(label="", size_bytes=1.0)
        with pytest.raises(ValueError):
            TransferItem(label="a", size_bytes=0.0)

    def test_metadata_carried(self):
        item = TransferItem("seg", 10.0, {"index": 3})
        assert item.metadata["index"] == 3


class TestTransaction:
    def test_totals(self):
        txn = Transaction(items_from_sizes([100.0, 200.0, 50.0]))
        assert txn.total_bytes == 350.0
        assert txn.max_item_bytes == 200.0
        assert len(txn) == 3

    def test_preserves_order(self):
        items = items_from_sizes([1.0, 2.0, 3.0])
        txn = Transaction(items)
        assert [i.label for i in txn] == ["item-0", "item-1", "item-2"]

    def test_default_direction_download(self):
        txn = Transaction(items_from_sizes([1.0]))
        assert txn.direction is Direction.DOWNLOAD

    def test_duplicate_labels_rejected(self):
        items = [TransferItem("x", 1.0), TransferItem("x", 2.0)]
        with pytest.raises(ValueError, match="unique"):
            Transaction(items)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Transaction([])

    def test_names_unique_by_default(self):
        a = Transaction(items_from_sizes([1.0]))
        b = Transaction(items_from_sizes([1.0]))
        assert a.name != b.name


class TestItemsFromSizes:
    def test_labels(self):
        items = items_from_sizes([5.0, 6.0], prefix="photo")
        assert items[0].label == "photo-0"
        assert items[1].size_bytes == 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            items_from_sizes([])
