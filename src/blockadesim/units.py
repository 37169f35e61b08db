"""Frequency-unit parsing at the CLI boundary.

Everything inside the package is angular (rad/us).  Quoted laboratory
frequencies are ambiguous between ordinary and angular readings, so
suffixed inputs are explicit: ordinary-frequency suffixes (Hz, kHz, MHz,
GHz) are multiplied by 2 pi, angular suffixes (rad/s family and rad/us)
are not.  Bare numbers are taken as rad/us.  Suffixes match
case-insensitively, except that mega is an upper-case M: a suffix starting
with a lower-case m would read milli, which is not supported, and is refused.
"""

from __future__ import annotations

import re
from math import pi

_ANGULAR = {
    "rad/us": 1.0,
    "rad/s": 1e-6,
    "krad/s": 1e-3,
    "mrad/s": 1.0,      # Mrad/s (upper-case M only)
    "grad/s": 1e3,
}
_ORDINARY = {
    "hz": 2.0 * pi * 1e-6,
    "khz": 2.0 * pi * 1e-3,
    "mhz": 2.0 * pi,      # MHz (upper-case M only)
    "ghz": 2.0 * pi * 1e3,
}

_PATTERN = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Z/]*)\s*$")


def parse_frequency(value) -> float:
    """Convert a number or suffixed string to angular rad/us."""
    if isinstance(value, (int, float)):
        return float(value)
    m = _PATTERN.match(str(value))
    if not m:
        raise ValueError(f"unparseable frequency {value!r}")
    num, suffix = float(m.group(1)), m.group(2)
    if not suffix:
        return num
    if suffix.startswith("m"):      # milli, not mega: not supported
        raise ValueError(f"unknown frequency unit {suffix!r} in {value!r}")
    key = suffix.lower()
    if key in _ORDINARY:
        return num * _ORDINARY[key]
    if key in _ANGULAR:
        return num * _ANGULAR[key]
    raise ValueError(f"unknown frequency unit {suffix!r} in {value!r}")
