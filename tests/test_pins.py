"""Every command pin in ``pins.json`` holds in process (see ``pins.py``)."""

import gc

import pytest

import pins


@pytest.mark.parametrize("row", pins.ROWS, ids=[row["id"] for row in pins.ROWS])
def test_pin(row):
    observed = pins.observe(row)
    assert observed == row, pins.report(row, observed)


def test_a_pin_row_leaves_no_object_frozen():
    """``cli.main`` freezes every object alive at its call; ``pins.run``
    unfreezes them, so running rows in one process frees what they drop."""
    pins.run(pins.ROWS[0])
    assert gc.get_freeze_count() == 0
