"""Wall time, peak memory and output digests of a default-config backtest.

The paper's evaluation in short form: a synthetic panel (seed 11) of
``365 + 8 + DAYS`` days, and the default configuration run over its last
``DAYS`` days with ``workers=2`` under the spawn start method::

    python3 benchmarks/paper_run.py --days 20 > run.json
    python3 benchmarks/paper_run.py --src ../parent/src --days 20 > parent.json

It prints one JSON record: the backtest's wall time and seconds per day,
the peak RSS of this process (panel, config and every day record) and of
the largest pool worker, both from ``resource.getrusage``, and one sha256
per bundle file.  ``--days 730`` is the paper's full evaluation.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time

WINDOW = 365  # the default calibration window, plus 8 days of lag history


def _digests(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=20, help="evaluation days (default 20)")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="the source tree to run (default: this checkout's src)")
    parser.add_argument("--out", help="bundle directory (default: a temporary one)")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)  # spawned workers inherit sys.path
    multiprocessing.set_start_method("spawn")

    import splitcast
    from splitcast.panel import SyntheticConfig, generate_synthetic_panel

    if not os.path.abspath(splitcast.__file__).startswith(src + os.sep):
        sys.exit(f"error: splitcast imported from {splitcast.__file__}, not {src}")
    panel = generate_synthetic_panel(SyntheticConfig(days=WINDOW + 8 + args.days), seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or os.path.join(tmp, "bundle")
        cfg = splitcast.ExperimentConfig(output_dir=out, evaluation_days=args.days, workers=2)
        started = time.perf_counter()
        splitcast.run_backtest(cfg, panel=panel)
        wall = time.perf_counter() - started
        digests = _digests(out)
    record = {
        "days": args.days,
        "panel_days": panel.n_days,
        "workers": 2,
        "start_method": "spawn",
        "wall_s": round(wall, 2),
        "s_per_day": round(wall / args.days, 3),
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest waited-for worker
        "parent_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "worker_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        "sha256": digests,
    }
    json.dump(record, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
