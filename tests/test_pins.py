"""Every command pin in ``pins.json`` holds in process (see ``pins.py``)."""

import pytest

import pins


@pytest.mark.parametrize("row", pins.ROWS, ids=[row["id"] for row in pins.ROWS])
def test_pin(row):
    observed = pins.observe(row)
    assert observed == row, pins.report(row, observed)
