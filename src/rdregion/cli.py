"""Command-line front end for the region, sum-rate and matching solvers.

Every subcommand is a thin veneer: values written to files equal the
corresponding library-call results exactly.

``region``     subset rate floors (inner or outer) as a region JSON object
``sumrate``    achievable/converse sum-rate tables and boundary probes
``match``      matching thresholds and a level-monotonicity scan report
``waterfill``  the constrained determinant level behind the outer bounds
``transform``  the remote problem and budget offsets dual to a multiterminal one
``cyclic``     parametric sum-rate curves for shift-invariant ensembles
``twoterm``    closed-form two-source sum rates and boundary curves

Problem files are JSON objects. A remote problem carries ``k, l, sigma_x,
a, noise_vars, gamma`` (matrices as nested row-major lists); a
multiterminal problem carries ``l, sigma_y, split_sigma_n, gamma``. Rates
in files are nats; tables also carry bits where rates appear. CSV output
uses ',' separators, '.' decimals, LF line endings and a header row.

Exit codes: 0 success; 2 unusable input (problem file or flags); 3 the
input parsed but the requested computation is infeasible or degenerate.
Rerunning a command with the same flags, input and seed produces
byte-identical output on the same machine and numpy/LAPACK build.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cyclic, duality, matching, regions, sumrate, waterfill
from .errors import RdError
from .problems import (
    MultiterminalProblem,
    RemoteProblem,
    SumCrit,
    VectorCrit,
    load_problem,
)

__all__ = ["build_parser", "main"]

_LN2 = math.log(2.0)


class _UsageError(Exception):
    """Unusable problem file or flag values; maps to exit code 2."""


# ---------------------------------------------------------------------------
# flag parsing helpers


def _vector_flag(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except (ValueError, AttributeError):
        raise _UsageError(
            f"{name} must be a comma-separated list of numbers, got {text!r}"
        ) from None
    arr = np.asarray(vals, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise _UsageError(f"{name} entries must be finite numbers")
    return arr


def _broadcast(vec: np.ndarray, l: int, name: str) -> np.ndarray:
    if vec.shape[0] == 1:
        return np.full(l, float(vec[0]))
    if vec.shape[0] != l:
        raise _UsageError(f"{name} needs 1 or {l} entries, got {vec.shape[0]}")
    return vec


def _rate_vector(args, l: int) -> np.ndarray:
    if args.r is None:
        raise _UsageError("this command needs --r, a comma-separated rate vector in nats")
    vec = _broadcast(_vector_flag(args.r, "--r"), l, "--r")
    if np.any(vec < 0.0):
        raise _UsageError("--r entries must be nonnegative")
    return vec


def _criterion_opt(args, dim: int):
    """Build a distortion criterion from --d / --d-sum, or None."""
    has_vec = getattr(args, "d", None) is not None
    has_sum = getattr(args, "d_sum", None) is not None
    if has_vec and has_sum:
        raise _UsageError("give either --d or --d-sum, not both")
    try:
        if has_sum:
            return SumCrit(args.d_sum)
        if has_vec:
            return VectorCrit(_broadcast(_vector_flag(args.d, "--d"), dim, "--d"))
    except RdError as exc:
        raise _UsageError(str(exc)) from None
    return None


def _criterion(args, dim: int):
    crit = _criterion_opt(args, dim)
    if crit is None:
        raise _UsageError("this command needs a distortion: --d (per-coordinate) or --d-sum (total)")
    return crit


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError("--sweep must look like LO:HI:N")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError("--sweep must look like LO:HI:N with numeric entries") from None
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or hi < lo or n < 1:
        raise _UsageError("--sweep needs 0 < LO <= HI and N >= 1")
    return lo, hi, n


# ---------------------------------------------------------------------------
# problem loading


def _load_any(args):
    if args.input is None:
        raise _UsageError("an --input problem file is required")
    try:
        return load_problem(args.input)
    except RdError as exc:
        raise _UsageError(str(exc)) from None


def _load_remote(args) -> RemoteProblem:
    p = _load_any(args)
    if not isinstance(p, RemoteProblem):
        raise _UsageError(
            "this command needs a remote problem file (fields k, l, sigma_x, a, noise_vars, gamma)"
        )
    return p


def _load_mt(args) -> MultiterminalProblem:
    p = _load_any(args)
    if not isinstance(p, MultiterminalProblem):
        raise _UsageError(
            "this command needs a multiterminal problem file (fields l, sigma_y, split_sigma_n, gamma)"
        )
    return p


# ---------------------------------------------------------------------------
# deterministic output


# values the C encoder writes as one token; np.float64 is a float subclass
# and prints through float.__repr__, like the float it converts to
_SCALARS = (str, int, float, type(None))


def _json_text(x, pad: str = "") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, with numpy leaves written
    as the Python values they convert to. Dict keys are strings.

    The standard library drops to its pure-Python encoder whenever an
    indent is set. Here the braces and indentation are laid out by hand,
    and each container whose values are all scalars is one C-encoder call
    whose item separator carries the newline and indentation.
    """
    if isinstance(x, np.ndarray):
        x = x.tolist()
    elif isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, dict):
        vals, brackets = x.values(), "{}"
    elif isinstance(x, (list, tuple)):
        vals, brackets = x, "[]"
    else:
        return json.dumps(x)
    if not vals:
        return brackets
    inner = pad + "  "
    if all(isinstance(v, _SCALARS) for v in vals):
        body = json.dumps(x, separators=(",\n" + inner, ": "))[1:-1]
    elif brackets == "{}":
        body = (",\n" + inner).join(
            f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in x.items()
        )
    else:
        body = (",\n" + inner).join(_json_text(v, inner) for v in vals)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _format_of(args, default: str, allowed=("json", "csv")) -> str:
    fmt = args.format or default
    if fmt not in allowed:
        raise _UsageError(f"--format {fmt} is not available for this command")
    return fmt


def _emit_json(args, payload, note: str | None = None) -> None:
    _write_text(args.output, _json_text(payload) + "\n")
    if args.output is not None:
        print(note or f"wrote {args.output}")


def _emit_csv(args, header, rows, note: str | None = None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.output is not None:
        print(note or f"wrote {len(rows)} rows to {args.output}")


def _emit_table(args, header, rows, note: str | None = None, extra: dict | None = None) -> None:
    if _format_of(args, "csv") == "csv":
        _emit_csv(args, header, rows, note)
    else:
        payload = dict(extra or {})
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        _emit_json(args, payload, note)


# ---------------------------------------------------------------------------
# subcommands


def cmd_region(args) -> int:
    """Write the subset rate floors of one problem at fixed rates."""
    problem = _load_any(args)
    _format_of(args, "json", allowed=("json",))
    r = _rate_vector(args, problem.l)
    if args.theta is not None and not (math.isfinite(args.theta) and args.theta > 0.0):
        raise _UsageError("--theta must be positive and finite")
    if isinstance(problem, RemoteProblem):
        if args.transformed:
            raise _UsageError("--transformed applies to multiterminal problems only")
        if args.mode == "inner":
            spec = regions.region_inner(problem, r)
        else:
            level = args.theta
            if level is None:
                crit = _criterion_opt(args, problem.k)
                if crit is None:
                    raise _UsageError("outer mode needs --theta or a distortion (--d/--d-sum)")
                level = waterfill.waterfill_det(problem, crit, r)
            spec = regions.region_outer(problem, r, level)
    else:
        if args.mode == "inner":
            spec = (
                duality.mt_region_inner_transformed(problem, r)
                if args.transformed
                else regions.mt_region_inner(problem, r)
            )
        elif args.theta is not None:
            if args.transformed:
                spec = regions.region_outer(duality.dual_remote(problem), r, args.theta)
            else:
                spec = regions.mt_region_outer(problem, r, args.theta)
        else:
            crit = _criterion_opt(args, problem.l)
            if crit is None:
                raise _UsageError("outer mode needs --theta or a distortion (--d/--d-sum)")
            if args.transformed:
                spec = duality.mt_region_outer_transformed(problem, crit, r)
            else:
                spec = regions.mt_region_outer(problem, r, duality.mt_det_level(problem, crit, r))
    full = spec.floor((1 << spec.l) - 1)
    note = (
        f"{spec.kind} region, L={spec.l}, {len(spec.bounds)} subset floors; "
        f"full-set floor {full:.9f} nats ({full / _LN2:.9f} bits) -> {args.output}"
    )
    _emit_json(args, spec.to_dict(), note)
    return 0


def cmd_sumrate(args) -> int:
    """Tabulate sum-rate bounds or boundary probes."""
    mp = _load_mt(args)
    if args.boundary:
        if args.budget is None:
            raise _UsageError("--boundary needs --budget, the total rate in nats")
        if not (math.isfinite(args.budget) and args.budget >= 0.0):
            raise _UsageError("--budget must be finite and nonnegative")
        if args.weights:
            grid = [_broadcast(_vector_flag(w, "--weights"), mp.l, "--weights") for w in args.weights]
        else:
            grid = [np.ones(mp.l)]
        probes = sumrate.boundary_batch(
            mp, args.budget, grid, starts=args.starts, seed=args.seed, d_iters=args.d_iters
        )
        header = [*(f"w{i + 1}" for i in range(mp.l)), "d_upper", "d_lower", "certified"]
        rows = [[*map(float, pr.weights), pr.d_upper, pr.d_lower, pr.certified] for pr in probes]
        _emit_table(args, header, rows, extra={"mode": "boundary", "budget": args.budget})
        return 0
    caps = []
    for spec_text in args.d or []:
        dv = _broadcast(_vector_flag(spec_text, "--d"), mp.l, "--d")
        if np.any(dv <= 0.0):
            raise _UsageError("--d entries must be positive")
        caps.append(dv)
    if args.sweep is not None:
        lo, hi, n = _parse_sweep(args.sweep)
        caps.extend(np.full(mp.l, float(v)) for v in np.linspace(lo, hi, n))
    if not caps:
        raise _UsageError("sumrate needs --d, --sweep or --boundary")
    rows = []
    for idx, dv in enumerate(caps):
        upper = sumrate.sum_rate_upper(mp, dv, starts=args.starts, seed=args.seed)
        lower = sumrate.sum_rate_lower(mp, dv)
        rows.append(
            [idx, *map(float, dv), lower.value, upper.value, upper.value - lower.value]
        )
    header = ["instance-id", *(f"d{i + 1}" for i in range(mp.l)), "lower", "upper", "gap"]
    _emit_table(args, header, rows, extra={"mode": "sumrate"})
    return 0


def cmd_match(args) -> int:
    """Report matching thresholds and, with --d-sum, a scan verdict."""
    problem = _load_any(args)
    _format_of(args, "json", allowed=("json",))
    tol = 1e-9 if args.tol is None else args.tol
    if isinstance(problem, RemoteProblem):
        scan_problem = problem
        payload = {
            "layout": "remote",
            "k": problem.k,
            "l": problem.l,
            "thresholds": {
                "rotation": matching.threshold_rotation(problem),
                "simplified": matching.threshold_simplified(problem),
                "noise": matching.threshold_noise(problem),
            },
        }
        scan_crit = None if args.d_sum is None else SumCrit(args.d_sum)
    else:
        dual = duality.dual_remote(problem)
        scan_problem = dual
        payload = {
            "layout": "multiterminal",
            "l": problem.l,
            "thresholds": {
                "split": sumrate.threshold_split(problem),
                "weighted_unit": sumrate.threshold_weighted(problem.sigma_y, np.ones(problem.l)),
                "universal": sumrate.zeta(problem.sigma_y),
                "rotation": matching.threshold_rotation(dual),
                "simplified": matching.threshold_simplified(dual),
                "noise": matching.threshold_noise(dual),
            },
        }
        scan_crit = (
            None if args.d_sum is None else duality.dual_criterion(problem, SumCrit(args.d_sum))
        )
    if scan_crit is not None:
        report = matching.md_scan(scan_problem, scan_crit, r_max=args.r_max, points=args.points, tol=tol)
        payload["scan"] = {
            "d": args.d_sum,
            "holds": report.holds,
            "worst": report.worst,
            "pairs": report.pairs,
        }
    _emit_json(args, payload)
    return 0


def cmd_waterfill(args) -> int:
    """Evaluate the constrained determinant level of a remote problem."""
    p = _load_remote(args)
    _format_of(args, "json", allowed=("json",))
    r = _rate_vector(args, p.l)
    crit = _criterion(args, p.k)
    value = waterfill.waterfill_det(p, crit, r)
    if isinstance(crit, SumCrit):
        crit_dict = {"kind": "sum", "d": crit.d}
    else:
        crit_dict = {"kind": "vector", "d": crit.d_vec}
    payload = {"value": value, "r": r, "criterion": crit_dict}
    _emit_json(args, payload, note=f"level {value!r} -> {args.output}")
    return 0


def cmd_transform(args) -> int:
    """Write the remote problem dual to a multiterminal one."""
    mp = _load_mt(args)
    _format_of(args, "json", allowed=("json",))
    dual = duality.dual_remote(mp)
    data = duality.transform_data(mp)
    payload = {
        "k": mp.l,
        "l": mp.l,
        "sigma_x": dual.sigma_x,
        "a": dual.a_mat,
        "noise_vars": dual.noise_vars,
        "gamma": dual.gamma,
        "offset_trace": data.offset_trace,
        "offset_diag": data.offset_diag,
    }
    crit = _criterion_opt(args, mp.l)
    if crit is not None:
        mapped = duality.dual_criterion(mp, crit)
        if isinstance(mapped, SumCrit):
            payload["criterion"] = {"kind": "sum", "d": mapped.d}
        else:
            payload["criterion"] = {"kind": "vector", "d": mapped.d_vec}
    _emit_json(args, payload)
    return 0


def cmd_cyclic(args) -> int:
    """Write the certified parametric curve of a shift-invariant ensemble."""
    mp = _load_mt(args)
    ci = cyclic.cyclic_instance(mp.sigma_y, args.epsilon)
    th = cyclic.thresholds(ci)
    r_min = th.s_eps if args.r_min is None else args.r_min
    r_max = th.s_eps + 2.0 if args.r_max is None else args.r_max
    curve = cyclic.parametric_curve(ci, r_min, r_max, samples=args.samples)
    header = ["r", "R_nats", "R_bits", "D", "certified"]
    rows = [
        [float(rr), float(rate), float(rate) / _LN2, float(dd), bool(cc)]
        for rr, rate, dd, cc in zip(curve.r, curve.rate, curve.distortion, curve.certified)
    ]
    extra = {"l": ci.l, "epsilon": ci.epsilon, "s_eps": th.s_eps, "d_th": th.d_th}
    note = (
        f"cyclic curve, L={ci.l}, {len(rows)} samples on r in [{r_min:.9f}, {r_max:.9f}]"
        f" -> {args.output}"
    )
    _emit_table(args, header, rows, note, extra)
    return 0


def cmd_twoterm(args) -> int:
    """Evaluate the closed-form two-source sum rate or boundary curve."""
    try:
        if args.curve:
            if args.d_cap is None:
                raise _UsageError("--curve needs --d-cap, the single distortion cap")
            grid = sumrate.twoterm_curve_grid(args.samples, args.s_min)
            curve = sumrate.twoterm_region_curve(
                args.sigma1, args.sigma2, args.rho, args.d_cap, args.which,
                args.samples, s_min=args.s_min,
            )
            rows = [[s, r1, r1 / _LN2, r2, r2 / _LN2] for s, (r1, r2) in zip(grid, curve)]
            header = ["s", "r1_nats", "r1_bits", "r2_nats", "r2_bits"]
            _emit_table(args, header, rows, extra={"mode": "curve", "which": args.which})
        else:
            if args.d1 is None or args.d2 is None:
                raise _UsageError("twoterm needs --d1 and --d2 (or --curve with --d-cap)")
            _format_of(args, "json", allowed=("json",))
            res = sumrate.twoterm_sum_rate(args.sigma1, args.sigma2, args.rho, args.d1, args.d2)
            payload = {
                "sigma1": args.sigma1,
                "sigma2": args.sigma2,
                "rho": args.rho,
                "d1": args.d1,
                "d2": args.d2,
                "in_d": res.in_d,
                "nats": res.value,
                "bits": res.value / _LN2,
            }
            _emit_json(args, payload)
    except RdError as exc:
        # all twoterm inputs arrive as flags, so validation failures are usage errors
        raise _UsageError(str(exc)) from None
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE", help="JSON problem file")
    common.add_argument("--output", metavar="FILE", help="write the payload here instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches (default 0)")
    common.add_argument("--format", choices=("json", "csv"), help="payload format (default depends on the command)")
    common.add_argument("--tol", type=float, help="tolerance override where the computation accepts one")

    parser = argparse.ArgumentParser(
        prog="rdregion",
        description="Rate-distortion region bounds for distributed coding of correlated Gaussian sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("region", parents=[common], help="subset rate floors at fixed rates")
    sp.add_argument("--r", metavar="V[,V...]", help="rate vector in nats (a single value is broadcast)")
    sp.add_argument("--mode", choices=("inner", "outer"), default="inner")
    sp.add_argument("--theta", type=float, help="determinant level for outer mode")
    sp.add_argument("--d", metavar="V[,V...]", help="per-coordinate distortion caps (outer mode)")
    sp.add_argument("--d-sum", type=float, help="total distortion cap (outer mode)")
    sp.add_argument("--transformed", action="store_true",
                    help="compute multiterminal floors through the dual remote problem")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("sumrate", parents=[common], help="sum-rate bound tables and boundary probes")
    sp.add_argument("--d", action="append", metavar="V[,V...]",
                    help="per-coordinate distortion caps; repeat for several rows")
    sp.add_argument("--sweep", metavar="LO:HI:N", help="N uniform distortion levels broadcast per coordinate")
    sp.add_argument("--boundary", action="store_true", help="probe the boundary at a fixed rate budget")
    sp.add_argument("--budget", type=float, help="total rate in nats for --boundary")
    sp.add_argument("--weights", action="append", metavar="W[,W...]",
                    help="distortion weights >= 1 for --boundary; repeat for several probes")
    sp.add_argument("--d-iters", type=int, default=40,
                    help="bisection iterations per boundary probe (default 40)")
    sp.add_argument("--starts", type=int, default=16, help="restarts of the achievable search (default 16)")
    sp.set_defaults(func=cmd_sumrate)

    sp = sub.add_parser("match", parents=[common], help="matching thresholds and scan verdict")
    sp.add_argument("--d-sum", type=float, help="total distortion at which to run the scan")
    sp.add_argument("--r-max", type=float, default=8.0, help="scan grid extent per axis (default 8)")
    sp.add_argument("--points", type=int, default=6, help="scan grid points per axis (default 6)")
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("waterfill", parents=[common], help="constrained determinant level at fixed rates")
    sp.add_argument("--r", metavar="V[,V...]", help="rate vector in nats (a single value is broadcast)")
    sp.add_argument("--d", metavar="V[,V...]", help="per-coordinate distortion caps")
    sp.add_argument("--d-sum", type=float, help="total distortion cap")
    sp.set_defaults(func=cmd_waterfill)

    sp = sub.add_parser("transform", parents=[common], help="dual remote problem of a multiterminal one")
    sp.add_argument("--d", metavar="V[,V...]", help="per-coordinate caps to map through the transform")
    sp.add_argument("--d-sum", type=float, help="total cap to map through the transform")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("cyclic", parents=[common], help="parametric curve of a shift-invariant ensemble")
    sp.add_argument("--epsilon", type=float, help="split level (default just below the smallest eigenvalue)")
    sp.add_argument("--r-min", type=float, help="curve start in nats (default: certified start)")
    sp.add_argument("--r-max", type=float, help="curve end in nats (default: certified start + 2)")
    sp.add_argument("--samples", type=int, default=50, help="curve samples (default 50)")
    sp.set_defaults(func=cmd_cyclic)

    sp = sub.add_parser("twoterm", parents=[common], help="closed-form two-source sum rate")
    sp.add_argument("--sigma1", type=float, required=True, help="standard deviation of source 1")
    sp.add_argument("--sigma2", type=float, required=True, help="standard deviation of source 2")
    sp.add_argument("--rho", type=float, required=True, help="correlation coefficient in [0, 1)")
    sp.add_argument("--d1", type=float, help="distortion cap on source 1")
    sp.add_argument("--d2", type=float, help="distortion cap on source 2")
    sp.add_argument("--curve", action="store_true", help="trace the single-cap boundary curve")
    sp.add_argument("--d-cap", type=float, help="the single distortion cap for --curve")
    sp.add_argument("--which", type=int, choices=(1, 2), default=1, help="which source --d-cap binds (default 1)")
    sp.add_argument("--samples", type=int, default=50, help="curve samples (default 50)")
    sp.add_argument("--s-min", type=float, default=1e-6, help="smallest curve parameter (default 1e-6)")
    sp.set_defaults(func=cmd_twoterm)

    return parser


# built once per process: argparse makes a fresh namespace on every parse,
# so one parser serves any number of main calls
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
