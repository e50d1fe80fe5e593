"""Units, conversions and physical constants used throughout the simulator.

The simulator's canonical units are:

* **time** — microseconds (``float``). A microsecond is a convenient grain
  because the paper reports bus activity in *transactions per microsecond*
  and scheduling quanta in milliseconds.
* **bus activity** — transactions per microsecond (``tx/us``). The paper's
  experimental platform transfers 64 bytes per bus transaction, so rates in
  MB/s convert with :func:`mbps_to_txus` / :func:`txus_to_mbps`.
* **work** — abstract "standalone microseconds": one unit of work is the
  amount of computation an application thread completes in one microsecond
  when running alone on an unloaded machine. Turnaround times are therefore
  directly comparable to the solo execution time.

Nothing in this module holds state; it is safe to import from anywhere.
"""

from __future__ import annotations

# --- time helpers -----------------------------------------------------------

#: One microsecond, the canonical time unit.
USEC: float = 1.0

#: One millisecond expressed in microseconds.
MSEC: float = 1_000.0

#: One second expressed in microseconds.
SEC: float = 1_000_000.0


def ms(value: float) -> float:
    """Convert milliseconds to canonical microseconds.

    >>> ms(200)
    200000.0
    """
    return float(value) * MSEC


def seconds(value: float) -> float:
    """Convert seconds to canonical microseconds.

    >>> seconds(1.5)
    1500000.0
    """
    return float(value) * SEC


# --- bus transaction helpers -------------------------------------------------

#: Bytes moved by one front-side-bus transaction on the paper's platform
#: (Intel Xeon, 400 MHz FSB): one full L2 cache line.
BYTES_PER_TRANSACTION: int = 64

#: L2 cache size of the paper's Xeon processors, in bytes (256 KB).
XEON_L2_BYTES: int = 256 * 1024

#: L2 cache line size in bytes.
XEON_L2_LINE_BYTES: int = 64

#: Number of cache lines in the Xeon L2 (4096).
XEON_L2_LINES: int = XEON_L2_BYTES // XEON_L2_LINE_BYTES

#: Sustained bus capacity measured by STREAM on the paper's platform, in
#: transactions per microsecond ("The highest bus transactions rate sustained
#: by STREAM is 29.5 transactions/usec").
STREAM_CAPACITY_TXUS: float = 29.5

#: Sustained bus bandwidth measured by STREAM, in MB/s (paper: 1797 MB/s).
STREAM_BANDWIDTH_MBPS: float = 1797.0

#: Theoretical peak bandwidth of the 400 MHz front-side bus, in MB/s.
PEAK_BANDWIDTH_MBPS: float = 3200.0


def mbps_to_txus(mbps: float) -> float:
    """Convert a bandwidth in MB/s to bus transactions per microsecond.

    Uses the platform's 64-byte transaction size. Note the paper's own
    pair of measurements (1797 MB/s, 29.5 tx/µs) implies ~61 B per
    transaction — "approximately 64 bytes" in the paper's words — so
    round-tripping the paper's numbers is ~5 % off by construction.

    >>> round(mbps_to_txus(1797.0), 2)
    28.08
    """
    bytes_per_usec = float(mbps) * 1e6 / SEC
    return bytes_per_usec / BYTES_PER_TRANSACTION


def txus_to_mbps(txus: float) -> float:
    """Convert bus transactions per microsecond to MB/s.

    >>> round(txus_to_mbps(29.5), 1)
    1888.0
    """
    return float(txus) * BYTES_PER_TRANSACTION * SEC / 1e6


# --- small numeric helpers ---------------------------------------------------


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    >>> clamp(5.0, 0.0, 1.0)
    1.0
    """
    if lo > hi:
        raise ValueError(f"clamp: lo={lo} exceeds hi={hi}")
    return lo if value < lo else hi if value > hi else value

