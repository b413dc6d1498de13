"""squeezebath benchmark: CLI workloads, end-to-end metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload dense_output --seed 1 --seconds 30 --trace 0

Each invocation of the workload's CLI command runs in a fresh Python process
(perfbench/child.py) with BLAS/OpenMP pinned to one thread; its outputs go
through the correctness gate in perfbench/workloads.py.  --trace 0 reports
the end-to-end metrics (run means of the untraced invocations); --trace 1
alternates untraced and traced invocations and reports per-layer metrics
from the traced ones.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  The exit code is 0 when
every invocation passed the gate, 1 when one did not, 2 on a usage or
environment error (for example a checkout without src/squeezebath).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # keep the checkout free of perfbench/__pycache__
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

PIN_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_RUNS = 2          # untraced invocations per run, whatever --seconds says
CAL_REF_S = 0.005     # calibration-sample time that defines the reference host speed
SETUP_RATE = 0.3      # setup_s samples per second of run (setup-only processes top up)
CHILD_TIMEOUT = 120.0  # seconds for one invocation
DEADLINE = 150.0      # no invocation starts after this many seconds


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in PIN_VARS:
        env[var] = "1"
    return env


def run_child(mode: str, wl: workloads.Workload, work: str) -> tuple[dict, str]:
    """Run one fresh process; return its result and its output directory."""
    out_dir = tempfile.mkdtemp(prefix=mode + "-", dir=work)
    spec_path = os.path.join(out_dir, "spec.json")
    result_path = os.path.join(out_dir, "result.json")
    spec = {"mode": mode, "src": SRC, "argv": wl.argv(out_dir),
            "overrides": wl.overrides, "out": out_dir}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec_path, result_path],
        cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s child exceeded %gs" % (mode, CHILD_TIMEOUT))
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise BenchError("%s child exited %d: %s" % (mode, proc.returncode, err.strip()[-800:]))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), out_dir


def invoke(mode: str, wl, seed: int, work: str) -> tuple[dict, list[str]]:
    """One gated CLI invocation; returns the child result and its gate failures."""
    result, out_dir = run_child(mode, wl, work)
    errors = workloads.check_outputs(wl, seed, result["exit_code"], out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    if mode == "trace":
        errors += ["wrapped function %s not found" % n for n in result["missing"]]
        errors += coverage_errors(result["spans"], wl.required)
    return result, errors


# ---------------------------------------------------------------------------
# per-layer metrics from spans

# Span groups reported as one layer; a group's time counts each outermost span once.
GROUPS = {
    "states.diagnostics": ("pauli_expectations", "trace_distance", "min_eigenvalue",
                           "trace_error", "hermiticity_defect"),
    "liouvillian.operator": ("build_rate_operator", "spectrum", "steady_state"),
}


def _group_of(name: str) -> str | None:
    module, _, func = name.partition(".")
    if module == "spectral":
        return "spectral"
    for group, funcs in GROUPS.items():
        if func in funcs:
            return group
    return None


# (layer, fields) reported as they are: inclusive time, self time, call count
PLAIN_LAYERS = (
    ("gaugeflow.assemble_density", ("s", "calls")),
    ("cli.compute_frame", ("s", "self_s")),
    ("cli.write_trajectory_csv", ("s",)),
    ("bath.params_on", ("s", "calls")),
    ("integrate.plan_substeps", ("s", "calls")),
    ("verify.run_checks", ("s", "self_s")),
    ("states.trace_distance", ("s", "calls")),
    ("states.min_eigenvalue", ("s", "calls")),
    ("states.diagnostics", ("s", "calls")),
    ("spectral", ("s", "calls")),
    ("liouvillian.operator", ("s", "calls")),
)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from its spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = collections.defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "infos": []})
    for i, (name, start, end, parent, info) in enumerate(spans):
        group = _group_of(name)
        for key in (name, group) if group else (name,):
            st = stats[key]
            st["calls"] += 1
            st["self_s"] += end - start - child_time[i]
            # only an outermost span of this key adds its inclusive time
            p = parent
            while p >= 0 and key not in (spans[p][0], _group_of(spans[p][0])):
                p = spans[p][3]
            if p < 0:
                st["s"] += end - start
            if info:
                st["infos"].append(info)

    def total(key, field):
        return sum(i[field] for i in stats[key]["infos"])

    m = {}
    for key, prefix in (("gaugeflow.evolve_gauge", "gaugeflow"),
                        ("liouvillian.integrate_reference", "liouvillian")):
        st, substeps = stats[key], total(key, "substeps")
        m.update({
            key + ".s": st["s"],
            key + ".self_s": st["self_s"],
            key + ".calls": st["calls"],
            # distinct (schedule, grid, step) per call: below 1 means repeated flows
            key + ".useful_ratio": len({i["key"] for i in st["infos"]}) / max(1, st["calls"]),
            key + ".rss_growth_mb": total(key, "rss_growth_mb"),
            prefix + ".substeps": substeps,
            prefix + ".us_per_substep": 1e6 * st["self_s"] / max(1, substeps),
        })
    m["gaugeflow.rhs_evals"] = 4 * m["gaugeflow.substeps"]  # classic RK4
    # the reference stacks one 4x4 complex128 rate matrix (256 B) per node
    m["liouvillian.rate_stack_bytes"] = 256 * max(
        (i["nodes"] for i in stats["liouvillian.integrate_reference"]["infos"]), default=0)
    for key, fields in PLAIN_LAYERS:
        m.update({key + "." + f: stats[key][f] for f in fields})
    m["cli.csv_bytes"] = total("cli.write_trajectory_csv", "bytes")
    m["cli.csv_rows"] = total("cli.write_trajectory_csv", "rows")
    m["bath.params_on.nodes"] = total("bath.params_on", "nodes")
    m["integrate.substeps"] = total("integrate.plan_substeps", "substeps")
    return m


def coverage_errors(spans: list, required) -> list[str]:
    """Layers the workload must reach that recorded no call."""
    seen = set()
    for name, *_ in spans:
        seen.add(name)
        group = _group_of(name)
        if group:
            seen.add(group)
    return ["layer %s recorded no call" % key for key in required if key not in seen]


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(seed: int, wl, numpy_version: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    llc, level = "", -1
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        lvl = _read(os.path.join(cache, index, "level"))
        if lvl.isdigit() and int(lvl) > level:
            level, llc = int(lvl), _read(os.path.join(cache, index, "size"))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT) else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "squeezebath")):
        dirnames.sort()
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "llc": "L%d %s" % (level, llc) if llc else "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_pinning": {var: "1" for var in PIN_VARS},
        "seed": seed,
        "workload": wl.name,
        "command": wl.argv("<out>"),
    }


# ---------------------------------------------------------------------------
# runs


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(wl, seed: int, seconds: float, trace: bool, work: str):
    """Run gated invocations for `seconds` (at least MIN_RUNS, or one pair traced).

    A discarded setup-only process first warms the file and bytecode caches.
    No invocation starts once the mean cycle so far would carry the run past
    `seconds`, so a run ends near `seconds` whatever the workload's length.
    Setup-only processes run between invocations, so the setup_s samples are
    spread over the whole run rather than taken in one burst.  Returns every
    child's result in `children`, each with one setup_s sample.
    """
    run_child("setup", wl, work)
    t0 = time.perf_counter()
    plain, traced, children, log = [], [], [], []
    attempted = failed = 0
    while True:
        elapsed = time.perf_counter() - t0
        cycle = elapsed / len(plain) if plain else 0.0
        enough = len(plain) >= (1 if trace else MIN_RUNS)
        if (enough and elapsed + cycle > seconds) or (plain and elapsed + cycle > DEADLINE):
            break
        for mode in ("run", "trace") if trace else ("run",):
            result, errors = invoke(mode, wl, seed, work)
            attempted += 1
            failed += bool(errors)
            log.extend("%s invocation failed the gate: %s" % (mode, e) for e in errors)
            (traced if mode == "trace" else plain).append(result)
            children.append(result)
        while len(children) < SETUP_RATE * (time.perf_counter() - t0):
            children.append(run_child("setup", wl, work)[0])
    return plain, traced, children, attempted, failed, log


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write perfbench/reference.json from the default seed and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "squeezebath", "cli.py")):
        print("error: %s/squeezebath/cli.py not found; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.record_reference:
            return record_reference(work)
        wl = workloads.make(args.workload, args.seed)
        plain, traced, children, attempted, failed, log = measure(
            wl, args.seed, args.seconds, bool(args.trace), work)
        env = environment(args.seed, wl, plain[0]["numpy"])
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print("env " + json.dumps(env, sort_keys=True))
    for line in dict.fromkeys(log):  # each distinct failure once
        print(line)
    walls = [r["wall_s"] for r in plain]
    if args.trace:
        per_run = [layer_metrics(r["spans"]) for r in traced]
        metrics = {}
        for key in per_run[0]:
            values = [m[key] for m in per_run]
            if isinstance(values[0], int):
                # counts must repeat exactly; times are medians
                if len(set(values)) > 1:
                    failed += 1
                    print("count %s differs between traced runs: %r" % (key, values))
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[key] = {"value": value, "unit": _unit(key)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced) - statistics.median(walls),
            "unit": "s",
        }
        print("per-layer metrics, median of %d traced runs:" % len(traced))
        for key, m in metrics.items():
            print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    else:
        # The host's speed switches between levels for seconds to minutes at
        # a time, so raw times of the same code spread by a quarter from run
        # to run.  Each timing is divided by the speed that the calibration
        # samples of the same processes saw, and reported as the time on a
        # host where one sample takes CAL_REF_S: wall_norm_s with the samples
        # taken during the calls, setup_s with the sample taken right after
        # each setup.  Means, not medians, so that every part of the run
        # counts.  peak_rss_mb does not depend on speed.
        setups = [r["setup_s"] for r in children]
        cals = [c for r in plain for c in r["cal_s"]]
        setup_cals = [r["cal_s"][0] for r in children]
        speed = CAL_REF_S / statistics.fmean(cals)
        setup_speed = CAL_REF_S / statistics.fmean(setup_cals)
        rss = [r["peak_rss_mb"] for r in plain]
        metrics = {
            "wall_norm_s": {"value": statistics.fmean(walls) * speed, "unit": "s"},
            "setup_s": {"value": statistics.fmean(setups) * setup_speed, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        print("end-to-end metrics (reported value; median, quartiles, samples):")
        for key, values, value, unit in (
            ("wall_s", walls, statistics.fmean(walls), "s"),
            ("cal_s", cals, statistics.fmean(cals), "s"),
            ("wall_norm_s", [w * speed for w in walls], metrics["wall_norm_s"]["value"], "s"),
            ("setup_raw_s", setups, statistics.fmean(setups), "s"),
            ("setup_s", [x * setup_speed for x in setups], metrics["setup_s"]["value"], "s"),
            ("peak_rss_mb", rss, metrics["peak_rss_mb"]["value"], "MB"),
        ):
            q1, q3 = _quartiles(values)
            print("  %-12s %10.4f %-2s  (median %.4f, q1 %.4f, q3 %.4f, n=%d)"
                  % (key, value, unit, statistics.median(values), q1, q3, len(values)))
    print("  %-12s %10.4f    (%d failed of %d attempted)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    for suffix, unit in (("_mb", "MB"), ("_bytes", "B"),
                         ("useful_ratio", "ratio"), ("us_per_substep", "us")):
        if key.endswith(suffix):
            return unit
    return "count"


def record_reference(work: str) -> int:
    """Record the pinned sx, sy, sz values and verify check names at the default seed."""
    ref = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        result, out_dir = run_child("run", wl, work)
        if result["exit_code"] != 0:
            raise BenchError("%s exited %d" % (name, result["exit_code"]))
        if wl.command == "verify":
            with open(os.path.join(out_dir, "verify_report.txt"), encoding="utf-8") as fh:
                ref[name] = [line.split()[1] for line in fh if line.strip().startswith("[PASS]")]
        else:
            ref[name] = workloads.pinned_values(wl, out_dir)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
