"""The north star as a test: the golden config grid emits its pinned bytes.

tests/golden/pin.py defines the grid and writes the pins. They hold for the
python and numpy versions recorded with them; under others this module skips.
"""

import json

import pytest

from golden import pin

PINNED = json.loads(pin.DIGESTS.read_text(encoding="utf-8"))

pytestmark = pytest.mark.skipif(
    PINNED["environment"] != pin.environment(),
    reason="golden digests pinned under python {python} and numpy {numpy}".format(
        **PINNED["environment"]
    ),
)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return pin.run_grid(tmp_path_factory.mktemp("golden"))


def test_every_pinned_case_runs():
    assert sorted(PINNED["cases"]) == sorted(name for name, _, _ in pin.cases())


@pytest.mark.parametrize("name", [name for name, _, _ in pin.cases()])
def test_case_bytes(grid, name):
    assert grid[name] == PINNED["cases"][name]
