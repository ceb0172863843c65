"""Time the set-up of a workload in a fresh interpreter.

Usage: python3 pipebench/setup_probe.py PANEL_CSV

Prints the seconds spent importing splitcast, reading the panel with
``load_panel`` and building ``MarketData.from_panel``.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    import splitcast
    from splitcast.features import MarketData

    MarketData.from_panel(splitcast.load_panel(sys.argv[1]))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
