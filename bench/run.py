"""Benchmark of the noisycluster package: one workload per run, end to end or traced.

    python3 bench/run.py --workload cnot-mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cnot-mc --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics of the workload; with ``--trace 1``
it holds the per-layer metrics of a traced run. Each run also writes its
figures, per round, to ``bench/out``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS and OpenMP thread, set before numpy loads; forked workers inherit it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7

# self time and call count per item are reported for each of these
TRACED = (
    "states.init_register",
    "states.apply_cphase",
    "states.apply_local",
    "states.measure",
    "states.PureState",
    "states.DensityMatrix",
    "clusters.build_cluster",
    "clusters.derive_local_correction",
    "oneway.gate_fidelity_mc",
    "oneway.gate_fidelity_once",
    "oneway.run_gate",
    "oneway.wire_fidelity_mc",
    "oneway.wire_transfer",
    "phasenoise.PhaseDistribution.sample",
    "phasenoise.overlap_avg",
    "phasenoise.dephasing_fidelity",
    "entanglement.pair_scan",
    "entanglement.averaged_pair_state",
    "entanglement.concurrence",
    "entanglement.ppt_min_eigenvalue",
    "cli.main",
    "cli.run_experiment",
    "cli.ResultTable.write",
)


def load_package() -> None:
    """Import noisycluster from this checkout's ``src``, and only from there."""
    sys.path.insert(0, SRC)
    import noisycluster

    if os.path.dirname(os.path.abspath(noisycluster.__file__)) != os.path.join(SRC, "noisycluster"):
        raise ImportError(f"noisycluster imported from {noisycluster.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def cpu_s() -> float:
    """CPU time of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child (ru_maxrss is KiB)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


# Time of ``calibration_s`` in a typical phase of the machine the benchmark
# was tuned on: time figures are scaled to a machine this fast.
CALIBRATION_REF_S = 0.0125


def calibration_s() -> float:
    """Time of a fixed loop of interpreter work and 4x4 numpy calls.

    It is the same kind of work as a ``chain-exact`` row and tracks the
    machine's speed phases on that workload and on ``cnot-mc`` (see README).
    """
    import numpy as np

    m = (np.arange(16).reshape(4, 4) + 1j * np.arange(16)[::-1].reshape(4, 4)) / 16
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for k in range(300):
        np.linalg.eigvalsh(m @ m.conj().T)
        np.linalg.matrix_power(m, 5)
        f"{(acc + k) % 7 / 7:.12g}"
    return time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """Process start to ready, in a fresh process that only sets the workload up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    # perf_counter is the system-wide monotonic clock, shared with the child
    return float(proc.stdout.split()[-1]) - t0


def timed_rounds(wl, first: int, seconds: float, tracer=None) -> list:
    """Whole rounds until ``seconds`` have passed, at least one.

    Each round's ``speed`` is the mean of the calibration times just before
    and after it, over ``CALIBRATION_REF_S``.
    """
    rounds = []
    start = time.perf_counter()
    cal = calibration_s()
    while True:
        c0, t0 = cpu_s(), time.perf_counter()
        rd = wl.round(first + len(rounds), tracer)
        rd.wall = time.perf_counter() - t0
        rd.cpu = cpu_s() - c0
        after = calibration_s()
        rd.speed = (cal + after) / 2 / CALIBRATION_REF_S
        cal = after
        rounds.append(rd)
        if time.perf_counter() - start >= seconds:
            return rounds


def per_layer(tracer, items: int) -> dict:
    m = {}
    for name in TRACED:
        m[f"{name}.ms_per_item"] = (tracer.self_s[name] * 1e3 / items, "ms")
        m[f"{name}.calls_per_item"] = (tracer.calls[name] / items, "count")
    m["oneway.gate_fidelity_mc.child_cpu_ms_per_item"] = (tracer.child_cpu_s * 1e3 / items, "ms")
    m["oneway.gate_fidelity_once.incl_ms_per_item"] = (
        tracer.incl_s["oneway.gate_fidelity_once"] * 1e3 / items, "ms")
    m["states.amplitude_mb_per_item"] = (tracer.amplitude_bytes / 1e6 / items, "MB")
    m["cli.bytes_per_item"] = (tracer.csv_bytes / items, "B")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    tracer = spans.Tracer() if trace else None
    metrics: dict = {}
    if tracer:
        spans.install(tracer)
        wl.setup()
        key = "clusters.derive_local_correction"
        metrics[f"{key}.ms_per_setup"] = (tracer.incl_s[key] * 1e3, "ms")
        metrics[f"{key}.calls_per_setup"] = (tracer.calls[key], "count")
        tracer.unpatch()
        tracer.reset()
    else:
        wl.setup()
    errors = wl.precheck()
    rounds = [wl.round(0)]  # warm-up: lazy state fills, every operation runs once
    timed = timed_rounds(wl, 1, seconds / 2 if trace else seconds)
    rounds += timed
    # read before the set-up probes, which are children too, and before the
    # checks, whose reference sums allocate
    rss = peak_rss_mb()
    probes: list[float] = []
    if tracer:
        spans.install(tracer)
        wl.serial_check = True
        traced = timed_rounds(wl, len(rounds), seconds / 2, tracer)
        tracer.unpatch()
        rounds += traced
    else:
        probes = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    errors += wl.check([rec for rd in rounds for rec in rd.records])

    if tracer:
        items = sum(rd.items for rd in traced)
        metrics.update(per_layer(tracer, items))
        rates = [rd.items * rd.speed / rd.wall for rd in timed]
        with_spans = [rd.items * rd.speed / (rd.wall - rd.excluded_s) for rd in traced]
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(rates) / statistics.median(with_spans) - 1.0), "%")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}-seed{seed}.spans.tsv"))
    else:
        # medians over rounds, scaled to the reference speed: speed on a
        # shared machine comes in phases (see README)
        metrics["setup_s"] = (statistics.median(probes), "s")
        metrics["items_per_s"] = (
            statistics.median([rd.items * rd.speed / rd.wall for rd in timed]), "1/s")
        metrics["cpu_ms_per_item"] = (
            statistics.median([rd.cpu * 1e3 / (rd.items * rd.speed) for rd in timed]), "ms")
        metrics["peak_rss_mb"] = (rss, "MB")

    failures = sorted({f for rd in rounds for f in rd.failures})
    report = {
        "setup_probes_s": probes,
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(),
        "rounds": [
            {"items": rd.items, "attempted": rd.attempted, "failed": rd.failed,
             "wall_s": rd.wall, "cpu_s": rd.cpu, "speed": rd.speed}
            for rd in rounds
        ],
        "failures": failures,
        "errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": sum(rd.attempted for rd in rounds),
        "failed": sum(rd.failed for rd in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def self_check() -> int:
    """Every workload briefly, traced and not, with all output checks on."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                 "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            problems = []
            if proc.returncode != 0 or not result.get("correct"):
                problems.append(f"exit {proc.returncode}, correct={result.get('correct')}")
            if set(result.get("metrics", {})) != expected[trace]:
                problems.append("metric names differ from BENCHMARK.json")
            print(f"{wl['name']} trace={trace}: {'; '.join(problems) or 'ok'}")
            if problems:
                ok = False
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cnot-mc", "chain-exact", "wire-long"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="run each workload briefly with every output check")
    args = parser.parse_args(argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"bench: cannot import noisycluster from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).setup()
        print(repr(time.perf_counter()))
        return 0

    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, **report}, fh, indent=1)
    print(f"# env: {json.dumps(report['env'])}")
    print(f"# rounds: {len(report['rounds'])}, failures: {report['failures']}")
    for err in report["errors"]:
        print(f"# check failed: {err}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
