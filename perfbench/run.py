"""Seeded benchmark of the behavrules command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload agt-100k --seed 1 --seconds 40 --trace 0

Set-up generates the workload's input from perfbench/spec.json and the seed
(synth.generate plus writing the file). It repeats in slots spread over the
run, and reports the median slot's time per repeat as setup_s. The measured
loop runs the workload's command, `behavrules.cli.main(argv)`, one
operation at a time (closed loop, one client), each in a fresh process
(op.py). It starts another operation while that one should end within
--seconds, and it runs one operation at least. Every operation's output is
checked outside the timed span. Every time reported is normalised by the
core's speed, sampled while it was measured (speed.py). With --trace 1 the
loop alternates untraced and traced operations and reports the per-layer
metrics instead of the end-to-end ones. The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
LOOP_LIMIT_S = 110.0  # no operation starts later than this into the run
# Set-up repeats in slots: one before the first operation, then one after
# each operation until there are SETUP_MIN_SLOTS slots and SETUP_TARGET_S
# seconds of them. A slot repeats for SETUP_SLOT_S at least. Spreading the
# slots over the run keeps setup_s from sampling only the first seconds.
SETUP_MIN_SLOTS, SETUP_TARGET_S, SETUP_SLOT_S = 3, 3.0, 0.5

END_TO_END = (
    ("norm_wall_s", "s"),
    ("norm_cpu_s", "s"),
    ("norm_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def import_program():
    """Import behavrules from this checkout's src/, or exit 1."""
    if not (SRC / "behavrules" / "cli.py").is_file():
        raise SystemExit("perfbench: no behavrules source under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import behavrules

    if Path(behavrules.__file__).resolve().parent != (SRC / "behavrules").resolve():
        raise SystemExit("perfbench: behavrules imported from %s, not %s"
                         % (behavrules.__file__, SRC))


def make_inputs(spec, workload, seed, n, workdir: Path):
    """Generate the dataset and write the workload's input file; return the dataset."""
    from behavrules import harness, serialize, synth
    from behavrules.datamodel import ContextSchema

    schema = ContextSchema.create(list(spec["attributes"].items()), spec["classes"])
    planted = [
        synth.PlantedRuleSpec(
            antecedent=tuple(sorted(r["antecedent"].items())),
            consequent=r["consequent"],
            target_confidence=harness.parse_threshold(str(r["confidence"])),
            weight=float(r["weight"]),
        )
        for r in spec["rules"]
    ]
    ds = synth.generate(schema, planted, n, seed)
    if workload["input"] == "log.csv":
        synth.write_log(ds, str(workdir / "log.csv"))
    else:
        with open(workdir / workload["input"], "w", encoding="utf-8") as fh:
            fh.write(serialize.dataset_to_csv(ds))
    return ds


def run_op(argv, workdir: Path, traced: bool, timeout: float) -> dict:
    """Run one operation in a fresh process and return op.py's JSON result."""
    cmd = [sys.executable, str(HERE / "op.py"), str(SRC), str(workdir),
           "1" if traced else "0", json.dumps(argv)]
    env = {k: v for k, v in os.environ.items() if k != "BEHAVRULES_OUT"}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "operation timed out after %.0f s" % timeout}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "op.py exited %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])}


def recorded_digests(name, seed, n):
    """The output digests recorded for this workload, seed and size, if any."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    entry = recorded["workloads"].get(name)
    if entry is None or recorded["seed"] != seed or entry["n"] != n:
        return None
    return entry["digests"]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(name, seed, seconds, trace, n=None) -> dict:
    """Set up, run the measured loop and return the result object."""
    started = time.perf_counter()
    import_program()
    import checks
    from spans import LAYER_METRICS, RUN_LAYER_METRICS
    from speed import Sampler

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if name not in spec["workloads"]:
        raise SystemExit("perfbench: unknown workload %r; choose from %s"
                         % (name, ", ".join(spec["workloads"])))
    workload = spec["workloads"][name]
    argv, outputs = workload["argv"], workload["outputs"]
    n = workload["n"] if n is None else n
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    shutil.copy(HERE / "map.conf", workdir / "map.conf")

    setup: list[float] = []  # normalised seconds per repeat, one per slot

    def set_up():
        """One slot of set-up repeats; each rewrites the same input bytes."""
        sampler = Sampler()
        sampler.start()
        slot_start = time.perf_counter()
        repeats = 0
        while True:
            ds = make_inputs(spec, workload, seed, n, workdir)
            repeats += 1
            spent = time.perf_counter() - slot_start
            if spent >= SETUP_SLOT_S:
                break
        setup.append(sampler.normalise(spent, sampler.stop()) / repeats)
        return ds

    ds = set_up()

    expected = recorded_digests(name, seed, n)
    first_output = first_problems = None
    plain, traced_ops = [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    rounds: list[float] = []  # seconds per operation, checks included, set-up not
    # start another operation only if it should end within --seconds, so
    # a run lasts about as long on a slow machine as on a fast one
    while attempted < (2 if trace else 1) or (
        time.perf_counter() - loop_start + median(rounds) <= seconds
        and time.perf_counter() - started < LOOP_LIMIT_S
    ):
        round_start = time.perf_counter()
        traced = trace and attempted % 2 == 1
        for output in outputs:
            checks.output_path(workdir, output).unlink(missing_ok=True)
        result = run_op(argv, workdir, traced, RUN_LIMIT_S - (time.perf_counter() - started))
        attempted += 1
        if result.get("error"):
            problems = [result["error"]]
        elif result["rc"] != 0:
            stderr = (workdir / "stderr.txt").read_text(encoding="utf-8").strip()
            problems = ["exit status %r: %s" % (result["rc"], stderr[-400:])]
        else:
            found = checks.digests(workdir, outputs)
            if first_output is None:
                first_output = found
                first_problems = checks.check_outputs(workdir, ds, argv)
                if expected is not None and found != expected:
                    first_problems.append("output digests differ from digests.json")
                for output, digest in found.items():
                    print("perfbench: %s sha256 %s" % (output, digest), file=sys.stderr)
            if found == first_output:
                problems = first_problems
            else:
                problems = ["output bytes differ from the first operation's"]
        print("perfbench: op %d %s wall %.4f s, normalised %.4f s%s" % (
            attempted, "traced" if traced else "untraced", result.get("wall_s", 0.0),
            result.get("norm_wall_s", 0.0),
            "" if not problems else " FAILED: " + "; ".join(problems)), file=sys.stderr)
        if problems:
            failed += 1
        else:
            (traced_ops if traced else plain).append(result)
        rounds.append(time.perf_counter() - round_start)
        if len(setup) < SETUP_MIN_SLOTS or sum(setup) < SETUP_TARGET_S:
            set_up()
    while len(setup) < SETUP_MIN_SLOTS:
        set_up()

    wall = median([op["norm_wall_s"] for op in plain])
    if trace:
        values = {
            metric: median([op["layers"][metric] for op in traced_ops])
            for metric, _, _ in LAYER_METRICS if metric not in RUN_LAYER_METRICS
        }
        traced_wall = median([op["norm_wall_s"] for op in traced_ops])
        values["trace.overhead"] = traced_wall / wall if wall else 0.0
        values["cli.raw_wall_s"] = median([op["wall_s"] for op in plain])
        values["machine.slowdown"] = median([op["slowdown"] for op in plain])
        units = {metric: unit for metric, unit, _ in LAYER_METRICS}
    else:
        values = {
            "norm_wall_s": wall,
            "norm_cpu_s": median([op["norm_cpu_s"] for op in plain]),
            "norm_rows_per_s": n / wall if wall else 0.0,
            "peak_rss_mb": median([op["peak_rss_mb"] for op in plain]),
            "setup_s": median(setup),
        }
        units = dict(END_TO_END)
    print("perfbench: %s seed=%d n=%d: %d ops (%d untraced, %d traced), "
          "error_rate %d/%d; medians over %d set-up slots and %d untraced ops; "
          "raw wall %.4f s at slowdown %.3f"
          % (name, seed, n, attempted, len(plain), len(traced_ops), failed,
             attempted, len(setup), len(plain),
             median([op["wall_s"] for op in plain]),
             median([op["slowdown"] for op in plain])), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print("%-32s %14.6f %s" % (metric, entry["value"], entry["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
