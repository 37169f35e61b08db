from math import pi

import pytest

from blockadesim.units import parse_frequency


@pytest.mark.parametrize("text, value", [
    ("2", 2.0),
    ("1Hz", 2 * pi * 1e-6), ("1HZ", 2 * pi * 1e-6),
    ("1kHz", 2 * pi * 1e-3), ("1khz", 2 * pi * 1e-3),
    ("1MHz", 2 * pi), ("1Mhz", 2 * pi), ("1MHZ", 2 * pi),
    ("1GHz", 2 * pi * 1e3), ("1ghz", 2 * pi * 1e3),
    ("1rad/s", 1e-6), ("1krad/s", 1e-3), ("1Grad/s", 1e3),
    ("1Mrad/s", 1.0), ("1MRAD/S", 1.0),
    ("1rad/us", 1.0), ("1RAD/US", 1.0),
])
def test_accepted_suffixes(text, value):
    assert parse_frequency(text) == value


@pytest.mark.parametrize("text", ["1mHz", "1mhz", "1mHZ", "1mrad/s", "1mRAD/S"])
def test_milli_suffixes_refused(text):
    # a lower-case m would be milli, which is not supported: never mega
    with pytest.raises(ValueError, match="unknown frequency unit"):
        parse_frequency(text)
