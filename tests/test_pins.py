"""Every model value and reference stream of tests/pins.json, recomputed.

A failure lists each (config, field, pinned, got). If the move is an
intended model change, regenerate the file with `python tests/make_pins.py`
and declare its diff in CHANGES.md.
"""

import pytest

from make_pins import load_pins, pins_of

PINS = load_pins()


@pytest.mark.parametrize("name", list(PINS))
def test_pins(name):
    pinned = PINS[name]
    got = pins_of(pinned["set"])
    moved = [(name, field, pinned.get(field), got.get(field))
             for field in dict.fromkeys([*pinned, *got])
             if pinned.get(field) != got.get(field)]
    if moved:
        pytest.fail("\n".join(map(repr, moved)), pytrace=False)
