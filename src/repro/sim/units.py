"""Unit constants.

Simulated time is measured in **nanoseconds** (floats), sizes in **bytes**
(ints), and bandwidths in **bytes per nanosecond** (floats; 1 B/ns == 1 GB/s).
Keeping a single convention across the codebase avoids an entire class of
unit bugs; these names make call sites read naturally::

    yield engine.timeout(5 * MICROS)
    ring = SequencedRing(capacity=64 * KIB)
"""

# --- sizes (bytes) -----------------------------------------------------------
# Decimal units, as used for device bandwidth specs.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Binary units, as used for memory/page/queue sizes.
KIB = 1_024
MIB = 1_024 * 1_024
GIB = 1_024 * 1_024 * 1_024

# --- time (nanoseconds) ------------------------------------------------------
NANOS = 1.0
MICROS = 1_000.0
MILLIS = 1_000_000.0
SECONDS = 1_000_000_000.0

