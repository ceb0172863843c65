"""sha256 of every file that a fixed set of command line runs writes.

Run it on a source tree to list the digests, or compare a change against
its parent commit (checked out elsewhere) in one call::

    python3 benchmarks/bundle_digest.py src /tmp/digest
    python3 benchmarks/bundle_digest.py src /tmp/digest --against ../parent/src

With ``--against PARENT_SRC`` both trees run, into the sibling directories
``change`` and ``parent`` of the output directory.  Only the lines that
differ are printed, the parent's marked ``-`` and the change's ``+``, and
the exit status is 1 if any line differs, 0 if none does.

The output directory must be new or empty.  In it the script writes a
400 day synthetic panel (seed 11) and runs, each in a child interpreter on
the given ``src`` with one BLAS thread and no ``SPLITCAST_CONFIG``:

* ``validate`` of the panel, its stdout kept as ``validate.txt``;
* the default configuration backtest of the last 3 days, ``workers=1``;
* a ``point,hist,ms`` backtest of the same days, ``workers=2``;
* ``forecast`` with ``ms --members`` over the last two days, ``workers=2``,
  with ``hist --members`` over the last two days, ``workers=1``, so that
  the second day reuses the first day's window fits, and with ``point`` and
  ``qr`` on the last day;
* ``evaluate`` of the ``ms`` fans, and ``report`` of the default backtest;
* ``forecast_day`` at the default configuration on the last two days.

It then prints one ``sha256  path`` line per file, paths relative to the
output directory, 33 lines in all.  Other console output is not digested.
The line ``sha256  forecast_day.float64`` digests the raw float64 bytes of
the two ``forecast_day`` results, which the 6 digit report files do not pin
down: per day the point forecasts, the fans, the interval bounds and every
ensemble's members, each table in sorted key order.  The last line,
``sha256  clock_change.float64``, covers the loader's repair of clock-change
cells.  It digests a copy of the panel with a doubled hour whose second
readings differ, a dropped row and one blank reading in each read series,
every gap isolated: the ``validate`` stdout of that copy, then the raw
float64 bytes of the loaded panel's hourly and daily series in sorted key
order.  One run takes about 40 s on a 2 vCPU host.
"""

import argparse
import datetime as dt
import hashlib
import os
import subprocess
import sys

DAYS = 400
START = dt.date(2020, 1, 1)

RAW_DIGEST = """
import hashlib
import numpy as np
from splitcast import ExperimentConfig, MarketData, forecast_day, load_panel

data = MarketData.from_panel(load_panel("panel.csv"))
digest = hashlib.sha256()
for day_idx in (data.n_days - 2, data.n_days - 1):
    out = forecast_day(data, ExperimentConfig(), day_idx)
    arrays = [table[key] for table in (out["point"], out["fans"], out["intervals"])
              for key in sorted(table)]
    arrays += [by_hour[hour].members for _, by_hour in sorted(out["ensembles"].items())
               for hour in sorted(by_hour)]
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
print(digest.hexdigest())
"""

# the panel copy with clock-change cells; read series i is blank at day
# 200 + 7 i, hour 12, well apart from the other gaps
CLOCK_CHANGE_DIGEST = """
import contextlib, hashlib, io, os, tempfile
import numpy as np
from splitcast import MarketData, load_panel
from splitcast.cli import main
from splitcast.panel import DEFAULT_SCHEMA, READ_SERIES

with open("panel.csv") as fh:
    header, *rows = fh.read().splitlines()
col = {name: i for i, name in enumerate(header.split(","))}
cells = [row.split(",") for row in rows]
for i, name in enumerate(READ_SERIES):
    cells[24 * (200 + 7 * i) + 11][col[DEFAULT_SCHEMA[name]]] = ""
spring, autumn = 24 * 88 + 2, 24 * 298 + 2  # 2020-03-29 h3, 2020-10-25 h3
second = list(cells[autumn])
second[col["da"]] = repr(float(second[col["da"]]) + 5.0)
second[col["wind"]] = repr(float(second[col["wind"]]) + 1.0)
second[col["res"]] = repr(float(second[col["wind"]]) + float(second[col["solar"]]))
cells = cells[:spring] + cells[spring + 1:autumn + 1] + [second] + cells[autumn + 1:]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "panel.csv")
    with open(path, "w") as fh:
        fh.write("\\n".join([header, *(",".join(row) for row in cells)]) + "\\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["validate", path]) == 0
    panel = MarketData.from_panel(load_panel(path)).panel
digest = hashlib.sha256(stdout.getvalue().encode())
for table in (panel.hourly, panel.daily):
    for key in sorted(table):
        digest.update(np.ascontiguousarray(table[key], dtype=np.float64).tobytes())
print(digest.hexdigest())
"""


def digest_lines(src, out):
    """The ``sha256  path`` lines of the runs of ``src`` into ``out``."""
    os.makedirs(out, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "SPLITCAST_CONFIG"}
    env.update(PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")

    def cli(*argv, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, "-m", "splitcast", *argv], cwd=out, env=env,
                       check=True, stdout=stdout)

    last, second_last = (str(START + dt.timedelta(days=DAYS - k)) for k in (1, 2))
    cli("synth", "--days", str(DAYS), "--seed", "11", "--start-date", str(START),
        "--out", "panel.csv")
    with open(os.path.join(out, "validate.txt"), "w") as fh:
        cli("validate", "panel.csv", stdout=fh)
    backtest = ("backtest", "--input", "panel.csv", "--eval-days", "3")
    cli(*backtest, "--workers", "1", "--out", "backtest_default")
    cli(*backtest, "--workers", "2", "--set", "methods=point,hist,ms", "--out", "backtest_phm")
    forecast = ("forecast", "--input", "panel.csv", "--end", last)
    cli(*forecast, "--method", "ms", "--members", "--start", second_last, "--set", "workers=2",
        "--out", "forecast_ms")
    cli(*forecast, "--method", "hist", "--members", "--start", second_last, "--set", "workers=1",
        "--out", "forecast_hist")
    cli(*forecast, "--method", "point", "--start", last, "--out", "forecast_point")
    cli(*forecast, "--method", "qr", "--start", last, "--out", "forecast_qr")
    cli("evaluate", "--fans", os.path.join("forecast_ms", "fans.csv"), "--input", "panel.csv",
        "--out", "evaluate_ms")
    cli("report", "--backtest-dir", "backtest_default", "--out", "report")

    def child(script):
        return subprocess.run([sys.executable, "-c", script], cwd=out, env=env, check=True,
                              stdout=subprocess.PIPE, text=True).stdout.strip()

    raw, clock_change = child(RAW_DIGEST), child(CLOCK_CHANGE_DIGEST)

    lines = []
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    lines.append(f"{raw}  forecast_day.float64")
    lines.append(f"{clock_change}  clock_change.float64")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the source tree to run, e.g. src")
    parser.add_argument("out", help="a new or empty directory for the outputs")
    parser.add_argument("--against", metavar="PARENT_SRC",
                        help="also run this tree and print only the lines that differ")
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        sys.exit(f"error: {out} is not empty")
    if args.against is None:
        print("\n".join(digest_lines(args.src, out)))
        return 0
    parent = digest_lines(args.against, os.path.join(out, "parent"))
    change = digest_lines(args.src, os.path.join(out, "change"))
    differ = [f"- {line}" for line in parent if line not in change]
    differ += [f"+ {line}" for line in change if line not in parent]
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(parent)} parent and {len(change)} change lines differ",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
