"""End-to-end and per-layer benchmark of the rdregion CLI.

Run from the repository root:

    python3 perfbench/run.py --workload converse-l2 --seed 1 --seconds 45 --trace 0

Each op is one in-process ``rdregion.cli.main(argv)`` call on problem
files generated from ``--seed``; one caller and one thread on one CPU,
BLAS pinned to one thread. The op list is run in whole passes for up to
``--seconds`` (always at least one pass). Times are reported at a fixed
reference speed of the machine (see ``speed.py``). Every op's payload is
checked after the timed region, and its digest must repeat in every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
with every public function of the package wrapped (see ``tracer.py``)
and prints the per-layer metrics. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` appends a fuller record (environment, per-op times,
counts and digests) as one JSON line; ``--spans FILE`` saves the spans.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
HARD_STOP_S = 150.0


def _import_package():
    """Import rdregion from this checkout's source tree, never another copy."""
    if not (SRC / "rdregion" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rdregion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rdregion

    if Path(rdregion.__file__).resolve().parent != (SRC / "rdregion").resolve():
        sys.exit(f"perfbench: imported rdregion from {rdregion.__file__}, not {SRC}")
    return rdregion


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _setup_seconds(args) -> tuple[float, float]:
    """Median wall time, raw and scaled to the reference speed, of a fresh
    interpreter that imports rdregion, generates the workload's instances
    and writes its problem files."""
    raw, scaled = [], []
    ref = speed.probe()
    for i in range(SETUP_REPEATS):
        probe_dir = _workdir(args, f"setup{i}")
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
                       check=True, stdin=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        ref_after = speed.probe()
        raw.append(seconds)
        scaled.append(seconds * speed.REF_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return statistics.median(raw), statistics.median(scaled)


def _workdir(args, tag: str) -> Path:
    path = WORK / f"{args.workload}-{args.seed}-{os.getpid()}" / tag
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_op(cli, op) -> tuple[int, float]:
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - start


def _check(fn, payloads) -> str | None:
    try:
        return fn(payloads)
    except Exception as exc:  # a payload that cannot be read fails its op
        return f"check raised {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a full JSON record of the run to this file")
    parser.add_argument("--spans", help="write the traced run's spans to this .npz file")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.BUILD_FUNCS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILD_FUNCS)}")
    if args.setup_probe:
        workloads.build(args.workload, args.seed, Path(args.setup_probe))
        return 0
    try:
        return _bench(args, workloads)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _bench(args, workloads) -> int:
    from rdregion import cli

    # one CPU for the ops, the speed probes and the set-up interpreters alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_raw, setup_s = (None, None) if args.trace else _setup_seconds(args)
    ops, checks = workloads.build(args.workload, args.seed, _workdir(args, "run"))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []  # (pass, op index, exit code, wall seconds, scaled seconds, digest)
    per_op_counts = []
    deadline = time.perf_counter() + HARD_STOP_S
    measured = 0.0
    passes = 0
    payloads = [b""] * len(ops)
    ref = speed.probe()
    while True:
        pass_s = 0.0
        for i, op in enumerate(ops):
            if time.perf_counter() > deadline:
                break
            if tracer:
                tracer.op = i
                before = (tracer.count("linalg.eig_sym"), tracer.count("waterfill.max_det_capped"))
            code, seconds = _run_op(cli, op)
            ref_after = speed.probe()
            scaled = seconds * speed.REF_S / (0.5 * (ref + ref_after))
            ref = ref_after
            if tracer:
                per_op_counts.append({
                    "op": op.name, "wall_s": seconds,
                    "eig_sym": tracer.count("linalg.eig_sym") - before[0],
                    "max_det_capped": tracer.count("waterfill.max_det_capped") - before[1],
                })
            data = op.output.read_bytes() if code == 0 and op.output.exists() else b""
            if passes == 0:
                payloads[i] = data
            records.append((passes, i, code, seconds, scaled, hashlib.sha256(data).hexdigest()))
            pass_s += seconds
        passes += 1
        measured += pass_s
        if (tracer or len(records) < passes * len(ops)
                or measured + pass_s > args.seconds or time.perf_counter() > deadline):
            break
    if tracer:
        tracer.uninstall()

    errors = [_check(fn, payloads) for fn in checks]  # outside the timed region
    first_digest = {i: d for p, i, _, _, _, d in records if p == 0}
    failed_ops = []
    for p, i, code, _, _, digest in records:
        why = (f"exit code {code}" if code != 0 else
               errors[i] if errors[i] else
               "payload differs from the first pass" if digest != first_digest[i] else None)
        if why:
            failed_ops.append((ops[i].name, why))
    attempted = len(records)
    wall = [r[3] for r in records]
    times = [r[4] for r in records]
    for name, why in failed_ops[:20]:
        print(f"FAILED {name}: {why}")

    if tracer:
        missing = [s for s in workloads.SOLVERS[args.workload] if tracer.count(s) == 0]
        if missing:
            print(f"perfbench: top-level solvers recorded no calls: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        metrics = tracer.metrics(len(per_op_counts))
        for row in per_op_counts:
            print(f"op {row['op']}: {row['wall_s']:.3f} s, eig_sym {row['eig_sym']}, "
                  f"max_det_capped {row['max_det_capped']}")
        not_hit = sorted(k for k, (v, unit) in metrics.items() if v == 0)
        print(f"{args.workload}: traced pass {sum(wall):.3f} s over {attempted} ops; "
              f"not hit: {', '.join(not_hit) or 'none'}")
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = {
            "op_s_p50": (statistics.median(times), "s"),
            "ops_per_s": (attempted / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{args.workload}: {attempted} ops in {passes} pass(es) of {len(ops)}, "
              f"{sum(wall):.3f} s wall, {sum(times):.3f} s at the reference speed")
        print(f"raw wall: op_s_p50 {statistics.median(wall):.6f} s, ops_per_s "
              f"{attempted / sum(wall):.6f} 1/s, setup_s {setup_raw:.6f} s")
        print(f"op_s_p50 {metrics['op_s_p50'][0]:.6f} s (n={attempted})")
        for name in ("ops_per_s", "setup_s", "peak_rss_mb"):
            print(f"{name} {metrics[name][0]:.6f} {metrics[name][1]}")
        print(f"failed_frac {len(failed_ops) / attempted:.6f} ratio")

    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload, "trace": args.trace, "env": _environment(args.seed),
            **result, "failed_ops": failed_ops,
            "ops": [{"op": ops[i].name, "pass": p, "exit": c, "wall_s": w, "seconds": s, "sha256": d}
                    for p, i, c, w, s, d in records],
            "op_counts": per_op_counts,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
