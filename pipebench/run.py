"""Pipeline benchmark of splitcast: three workloads, checked against oracles.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 pipebench/run.py --workload paper_qr --seed 1 --seconds 15 --trace 0

A run writes its workload's panel CSV from ``--seed``, times the set-up in
fresh interpreters, then repeats rounds of the workload's operations until
``--seconds`` have passed (at least one round, whole rounds only), checks
the outputs and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one more round runs under the tracer
and the metrics are the per-layer ones plus the tracer's overhead.

The miniature smoke run of every workload is ``python3 -m pytest -q pipebench``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".pipebench_out")
SETUP_REPEATS = 5
END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "crps_DA")


def peak_rss_mb():
    """Peak resident set of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def environment():
    import numpy
    from splitcast import _kernels

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "use_numba": bool(_kernels.USE_NUMBA),
            "commit": commit}


def setup_seconds(wl):
    from workloads import python_child

    proc = python_child([os.path.join(ROOT, "pipebench", "setup_probe.py"), wl.panel_csv],
                        ROOT, wl.run_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip())


def check_outputs(wl, outcomes, digests):
    """Run the oracles on round 0 and count failed operations over all rounds."""
    from checks import Report

    report = Report()
    if all(outcomes[0].values()):
        try:
            wl.check(report)
        except Exception:  # a check that cannot run is a failed check, with its traceback
            report.require("checks ran", False, wl.ops, traceback.format_exc(limit=3))
    else:
        report.require("checks ran", False, wl.ops, "an operation of the first round failed")
    report.require("every round byte-identical to the first",
                   all(d == digests[0] for d in digests), [])
    bad = report.failed_ops()
    failed = sum(1 for k, ran in enumerate(outcomes) for op in wl.ops
                 if not ran[op] or op in bad or digests[k] != digests[0])
    return report, failed


def measure(name, seed, seconds, trace):
    from checks import tree_digest
    from tracer import Tracer
    from workloads import WORKLOADS

    run_dir = os.path.join(OUT, "runs", f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = WORKLOADS[name](ROOT, run_dir, seed)
    try:
        wl.prepare()
        # set-up samples are spread over the run (two before the rounds, one
        # after each) so that their median does not rest on one spell of the host
        setup = [setup_seconds(wl) for _ in range(2)]
        outcomes, round_s = [], []
        while not round_s or sum(round_s) < seconds or len(round_s) < wl.min_rounds:
            t0 = time.perf_counter()
            outcomes.append(wl.run_round(len(round_s)))
            round_s.append(time.perf_counter() - t0)
            setup.append(setup_seconds(wl))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_seconds(wl))
        rss = peak_rss_mb()

        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(round_s), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        if trace:
            import splitcast

            tracer = Tracer().install()
            try:
                splitcast.MarketData.from_panel(splitcast.load_panel(wl.panel_csv))
            finally:
                tracer.uninstall()
            t0 = time.perf_counter()
            outcomes.append(wl.run_round(len(round_s), tracer))
            traced_s = time.perf_counter() - t0
            layer_metrics = tracer.metrics()
            layer_metrics["trace.overhead_pct"] = (
                100.0 * (traced_s / metrics["run_s"][0] - 1.0), "%")

        digests = [tree_digest(wl.round_dir(k)) for k in range(len(outcomes))]
        report, failed = check_outputs(wl, outcomes, digests)
        metrics["crps_DA"] = (wl.crps_da(), "EUR/MWh")
        if trace:
            metrics.update(layer_metrics)
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(),
            "rounds": len(round_s), "round_s": round_s, "setup_samples_s": setup,
            "correct": report.ok, "attempted": len(outcomes) * len(wl.ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "checks": report.results, "errors": wl.errors[:10],
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_qr", "paper_ensembles", "cli_session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "splitcast", "__init__.py")):
        print(f"error: no splitcast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import splitcast

    if not os.path.abspath(splitcast.__file__).startswith(src + os.sep):
        print(f"error: splitcast imported from {splitcast.__file__}, not {src}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for r in result["checks"]:
        margin = "" if r["worst"] is None else f"  worst {r['worst']:.3g} / tol {r['tol']:g}"
        print(f"check {'ok  ' if r['ok'] else 'FAIL'} {r['check']}{margin}  {r['detail']}",
              file=sys.stderr)
    for line in result["errors"]:
        print(f"error: {line}", file=sys.stderr)
    print("environment: " + json.dumps(result["environment"]))
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: v for k, v in result["metrics"].items()
                                  if (k in END_TO_END) == (args.trace == 0)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
