"""flowhold closed-loop hover benchmark.

    python3 perfbench/run.py --workload outdoor --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` times plain ``run_episode`` calls and reports the
end-to-end metrics; ``--trace 1`` runs the traced driver in ``traced.py``
and reports the per-layer metrics. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run environment and figures that are reported
but not gated. README.md in this directory lists every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# numpy reads these once, at import, so main() sets them before importing it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("outdoor", "outdoor-yaw", "lowlight", "blind")
# episode_s is a median over episodes, so one episode slowed by a burst
# of load from other tenants of the host does not move it.
MIN_EPISODES = 3
# Set-up is timed on fresh interpreter starts, a few before each episode,
# so the starts spread over the whole run. The host's speed swings by up
# to 40% from one second to the next, in CPU time as well as wall time,
# and a start that falls into a slow spell takes up to 60% longer. So
# setup_s is the run's fastest start, as timeit reports the best of its
# repeats; README.md gives the spread of both between runs.
SETUP_BATCH = 4
SETUP_TIMEOUT_S = 60
CONFIG_REPEATS = 7
WARMUP_S = 1.0  # simulated seconds of an untimed episode that fills numpy's caches

# A fresh interpreter imports flowhold and resolves the workload's configs.
_SETUP_CODE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "import workloads; workloads.resolve(sys.argv[3], int(sys.argv[4]))"
)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    if not (SRC / "flowhold" / "__init__.py").is_file():
        _fail(f"no flowhold sources under {SRC}; run from a flowhold checkout")
    sys.path.insert(0, str(SRC))
    import flowhold

    if SRC not in Path(flowhold.__file__).resolve().parents:
        _fail(f"imported flowhold from {flowhold.__file__}, not from {SRC}")


def _git_commit() -> str:
    # The checkout need not be a git repository. Read .git directly rather
    # than let git search the parent directories for some other repository.
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(loadavg) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": loadavg,
    }


class Run:
    """Counts episodes attempted and failed, and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def episode(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.problems.append(f"{label}: {p}")
                print(f"perfbench: {label}: {p}", file=sys.stderr)


def check_records(records, rc, blind: bool) -> list[str]:
    """Invariants every episode's telemetry must meet."""
    problems = []
    want = math.floor(rc.sim.duration * rc.sim.camera_rate) + 1
    if len(records) != want:
        problems.append(f"{len(records)} records, expected {want}")
    for r in records:
        values = (r.t, r.pos_x, r.pos_y, r.vel_x, r.vel_y, r.cmd_roll, r.cmd_pitch)
        if r.disp_x is not None:
            values += (r.disp_x, r.disp_y, r.disp_d)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in the record at t={r.t}")
            break
        if (blind or r.disp_x is None) and (r.cmd_roll != 0.0 or r.cmd_pitch != 0.0):
            problems.append(f"non-neutral command while blind at t={r.t}")
            break
    return problems


def time_setup(workload: str, seed: int, starts: int) -> list[float]:
    """Wall seconds for ``starts`` fresh interpreters to import flowhold and resolve the configs."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the measurement; block instead and let a timer kill a hang.
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
        times.append(elapsed)
    return times


def warm_up(run_episode, rc) -> None:
    run_episode(replace(rc.sim, duration=WARMUP_S), rc.gains, rc.tracker_config())
    gc.collect()


def untraced(run_episode, rc):
    """One plain run_episode call; on_tick only takes a timestamp."""
    stamps: list[float] = []
    clock = time.perf_counter
    t0 = clock()
    records = run_episode(
        rc.sim, rc.gains, rc.tracker_config(), on_tick=lambda k, state: stamps.append(clock())
    )
    elapsed = clock() - t0
    return records, elapsed, [b - a for a, b in zip(stamps, stamps[1:])]


def _keep_going(done: int, minimum: int, times: list[float], started: float, seconds: float) -> bool:
    """Another round until ``minimum`` ran, then while one more fits in ``seconds``."""
    if done < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, run: Run, info: dict) -> dict:
    """Episodes over the workload's textures in turn, for ``--seconds``."""
    import numpy as np

    from flowhold.sim import run_episode
    from flowhold.telemetry import dispersion_stats, write_csv
    from workloads import WORKLOADS, resolve

    configs = resolve(args.workload, args.seed)
    blind = WORKLOADS[args.workload].blind
    k = len(configs)

    setup: list[list[float]] = []
    times: list[float] = []
    rounds: list[float] = []
    ticks: list[list[float]] = []
    first: list = [None] * k
    # One untimed start fills the bytecode cache, which users pay once.
    time_setup(args.workload, args.seed, 1)
    warm_up(run_episode, configs[0])
    started = time.perf_counter()
    while _keep_going(len(times), max(k, MIN_EPISODES), rounds, started, args.seconds):
        round_start = time.perf_counter()
        j = len(times) % k
        rc = configs[j]
        label = f"episode {len(times) + 1} (texture {j})"
        setup.append(time_setup(args.workload, args.seed, SETUP_BATCH))
        try:
            records, elapsed, intervals = untraced(run_episode, rc)
            data = write_csv(records)
        except Exception:
            traceback.print_exc()
            run.episode(label, ["raised"])
            return {}
        problems = check_records(records, rc, blind)
        if first[j] is None:
            first[j] = (records, data)
        elif data != first[j][1]:
            problems.append("telemetry bytes differ from this texture's first episode")
        run.episode(label, problems)
        times.append(elapsed)
        ticks.append(intervals)
        rounds.append(time.perf_counter() - round_start)

    reports = [
        dispersion_stats(records, rc.sim.settle_time, rc.sim.frame_size_cm)
        for (records, _), rc in zip(first, configs)
    ]
    # Pooled over the run's episodes, p95 has more than ten samples beyond it.
    pooled_ms = np.concatenate(ticks) * 1e3
    tick_p50, tick_p95 = np.percentile(pooled_ms, [50, 95])
    info.update(
        episode_s_all=times,
        setup_s_all=setup,
        tick_samples=len(pooled_ms),
        telemetry_sha256=[hashlib.sha256(data).hexdigest() for _, data in first],
        two_sigma_radial_cm=[r.two_sigma_radial for r in reports],
        blind_fraction=[r.blind_fraction for r in reports],
    )
    return {
        "setup_s": _metric(min(min(batch) for batch in setup), "s"),
        "episode_s": _metric(statistics.median(times), "s"),
        "tick_ms_p50": _metric(float(tick_p50), "ms"),
        "tick_ms_p95": _metric(float(tick_p95), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, ticks: int, episodes: int, loop_s: float) -> dict:
    """Per-layer figures from a tracer that saw ``episodes`` episodes, ``ticks`` ticks in all."""
    from traced import LOOP_SPANS

    calls = tracer.calls
    c = tracer.counts
    points = c["points_in"]

    def per_tick(span: str) -> float:
        return tracer.total_ns[span] / 1e6 / ticks

    def per_call(span: str) -> float:
        return tracer.total_ns[span] / 1e6 / calls[span] if calls[span] else 0.0

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    accounted_ns = sum(tracer.self_ns(span) for span in LOOP_SPANS)
    return {
        "sim.render_ms": (per_tick("sim.render"), "ms/tick"),
        "sim.physics_ms": (per_tick("sim.physics"), "ms/tick"),
        "sim.substeps": (c["substeps"] / ticks, "count/tick"),
        "flow.pyramid_ms": (per_tick("flow.pyramid"), "ms/tick"),
        "flow.track_ms": (per_call("flow.track"), "ms/call"),
        "flow.points_in": (ratio(points, calls["flow.track"]), "count/call"),
        "flow.tracked_ratio": (ratio(c["tracked"], points), "ratio"),
        "flow.lost_oob": (ratio(c["lost_oob"], points, 1000.0), "per_1k_points"),
        "flow.lost_ill": (ratio(c["lost_ill"], points, 1000.0), "per_1k_points"),
        "flow.lost_div": (ratio(c["lost_div"], points, 1000.0), "per_1k_points"),
        "flow.lost_res": (ratio(c["lost_res"], points, 1000.0), "per_1k_points"),
        "image.bilinear_calls": (calls["image.bilinear"] / ticks, "count/tick"),
        "image.bilinear_samples": (c["bilinear_samples"] / ticks, "count/tick"),
        "image.bilinear_ms": (per_tick("image.bilinear"), "ms/tick"),
        "image.sobel_ms": (per_call("image.sobel"), "ms/call"),
        "corners.detect_ms": (per_call("corners.detect"), "ms/call"),
        "corners.response_ms": (per_call("corners.response"), "ms/call"),
        "corners.detect_calls": (calls["corners.detect"] / episodes, "count/episode"),
        "corners.found": (ratio(c["corners_found"], calls["corners.detect"]), "count/call"),
        "tracker.advance_ms": (per_tick("tracker.advance"), "ms/tick"),
        "tracker.self_ms": (tracer.self_ns("tracker.advance") / 1e6 / ticks, "ms/tick"),
        "tracker.reacquired": (c["reacquired"] / episodes, "count/episode"),
        "tracker.lost_per_1k_ticks": (1000.0 * c["features_lost"] / ticks, "per_1k_ticks"),
        "tracker.blind_ticks": (c["blind_ticks"] / episodes, "count/episode"),
        "control.step_us": (per_tick("control.step") * 1e3, "us/tick"),
        "telemetry.write_csv_ms": (
            tracer.total_ns["telemetry.write_csv"] / 1e6 / episodes,
            "ms/episode",
        ),
        "trace.tick_ms": (loop_s * 1e3 / ticks, "ms/tick"),
        "trace.unaccounted_ms": ((loop_s * 1e9 - accounted_ns) / 1e6 / ticks, "ms/tick"),
    }


def _timed_ms(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, (time.perf_counter_ns() - t0) / 1e6


def run_traced(args, run: Run, info: dict) -> dict:
    """Each texture untraced for reference and then traced, then traced again.

    Per-layer figures come from the first traced round, one episode per
    texture. The repeats that follow, for the rest of ``--seconds`` and at
    least one, check that every per-layer count and the telemetry come out
    the same again.
    """
    from flowhold.sim import run_episode
    from flowhold.telemetry import dispersion_stats, read_csv, write_csv
    from traced import LOOP_SPANS, Tracer, instrumented, traced_episode
    from workloads import WORKLOADS, resolve

    workload = WORKLOADS[args.workload]
    load_ms = [_timed_ms(resolve, args.workload, args.seed)[1] for _ in range(CONFIG_REPEATS)]
    configs = resolve(args.workload, args.seed)
    k = len(configs)

    reference: list[bytes] = []
    untraced_s: list[float] = []
    merged = Tracer()
    signatures: list[dict] = []
    traced_s: list[float] = []
    loop_s: list[float] = []
    rounds: list[float] = []
    ticks = 0
    sums = {"read_csv": 0.0, "dispersion": 0.0, "bytes": 0, "two_sigma": 0.0, "blind": 0.0}
    warm_up(run_episode, configs[0])
    started = time.perf_counter()
    while _keep_going(len(traced_s), k + 1, rounds, started, args.seconds):
        round_start = time.perf_counter()
        j = len(traced_s) % k
        rc = configs[j]
        if len(reference) == j:
            try:
                records, elapsed, _ = untraced(run_episode, rc)
            except Exception:
                traceback.print_exc()
                run.episode(f"untraced texture {j}", ["raised"])
                return {}
            reference.append(write_csv(records))
            untraced_s.append(elapsed)
            run.episode(f"untraced texture {j}", check_records(records, rc, workload.blind))
        label = f"traced episode {len(traced_s) + 1} (texture {j})"
        tracer = Tracer()
        gc.collect()
        try:
            with instrumented(tracer):
                records, data, episode_s, tick_loop_s = traced_episode(rc, tracer)
            parsed, read_ms = _timed_ms(read_csv, data)
            report, disp_ms = _timed_ms(
                dispersion_stats, records, rc.sim.settle_time, rc.sim.frame_size_cm
            )
        except Exception:
            traceback.print_exc()
            run.episode(label, ["raised"])
            return {}
        problems = check_records(records, rc, workload.blind)
        if data != reference[j]:
            problems.append("traced telemetry bytes differ from run_episode's")
        if len(parsed) != len(records):
            problems.append("read_csv did not return every record")
        never = sorted(span for span in workload.reaches if not tracer.calls[span])
        if never:
            problems.append(f"wrapped entry points never called: {', '.join(never)}")
        sig = tracer.signature()
        if j == len(signatures):
            signatures.append(sig)
        elif sig != signatures[j]:
            keys = sig.keys() | signatures[j].keys()
            drift = sorted(key for key in keys if sig.get(key) != signatures[j].get(key))
            problems.append(f"per-layer counts drifted between repeats: {', '.join(drift)}")
        run.episode(label, problems)
        traced_s.append(episode_s)
        if len(traced_s) <= k:
            loop_s.append(tick_loop_s)
            merged.absorb(tracer)
            ticks += len(records)
            sums["read_csv"] += read_ms
            sums["dispersion"] += disp_ms
            sums["bytes"] += len(data)
            sums["two_sigma"] += report.two_sigma_radial
            sums["blind"] += report.blind_fraction
        else:
            # Only traced repeats are left, so only they estimate what one more costs.
            rounds.append(time.perf_counter() - round_start)

    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in layer_metrics(merged, ticks, k, sum(loop_s)).items()
    }
    metrics.update(
        {
            "telemetry.read_csv_ms": _metric(sums["read_csv"] / k, "ms/episode"),
            "telemetry.dispersion_ms": _metric(sums["dispersion"] / k, "ms/episode"),
            "telemetry.csv_bytes": _metric(sums["bytes"] / k, "bytes/episode"),
            "quality.two_sigma_radial_cm": _metric(sums["two_sigma"] / k, "cm"),
            "quality.blind_fraction": _metric(sums["blind"] / k, "ratio"),
            "config.load_ms": _metric(statistics.median(load_ms), "ms"),
            "trace_overhead.episode_s": _metric(
                (sum(traced_s[:k]) - sum(untraced_s)) / k, "s"
            ),
        }
    )
    info.update(
        untraced_episode_s=untraced_s,
        traced_episode_s=traced_s,
        telemetry_sha256=[hashlib.sha256(data).hexdigest() for data in reference],
        self_ms_per_tick={span: merged.self_ns(span) / 1e6 / ticks for span in LOOP_SPANS},
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="texture_seed offset, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    loadavg = os.getloadavg()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_program()

    info = environment(loadavg)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    run = Run()
    metrics = (run_traced if args.trace else run_untraced)(args, run, info)
    info.update(fail_ratio=run.failed / max(run.attempted, 1), problems=run.problems)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": bool(metrics) and run.failed == 0,
                "attempted": max(run.attempted, 1),
                "failed": run.failed if metrics else max(run.failed, 1),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
