"""Benchmark workloads: fixed, seeded lists of ``rdregion`` CLI calls.

``build(name, seed, workdir)`` draws the workload's instances from the
seed, writes their problem files under ``workdir`` and returns the op
list together with one check per op. An op is one
``rdregion.cli.main(argv)`` call whose payload goes to its own
``--output`` file; the program never sees the seed. A check takes the
payload bytes of every op, in op order, and returns an error message or
None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generators as gen
from rdregion import regions, sumrate
from rdregion.errors import RdError


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    output: Path


# per workload: why it exists, and the solvers a traced run must see called
WHY = {
    "converse-l2": "two-source converse search: coordinate descent over max_det_capped at k=2 with 2x2 eigensolves",
    "enum-region": "search-free enumeration: subset floors at L=10 and L=7, transformed routes, k=3 capped levels, matching scans",
}
SOLVERS = {
    "converse-l2": ("sumrate.sum_rate_lower", "sumrate.sum_rate_upper"),
    "enum-region": ("regions.region_inner", "regions.region_outer", "regions.mt_region_inner",
                    "duality.mt_region_inner_transformed", "matching.md_scan",
                    "waterfill.max_det_capped"),
}
CONVERSE_OPS = 150
ENUM_GROUPS = 4


def _num(x) -> str:
    return repr(float(x))


def _vec(xs) -> str:
    return ",".join(_num(x) for x in xs)


class _Files:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.n = 0

    def problem(self, obj: dict) -> str:
        self.n += 1
        path = self.dir / f"problem{self.n:03d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def op(self, name: str, argv: list[str]) -> Op:
        out = self.dir / f"out-{name.replace('/', '-')}.json"
        return Op(name, [*argv, "--format", "json", "--output", str(out)], out)


def build_converse_l2(seed: int, files: _Files):
    items = gen.tight_split_pairs(np.random.default_rng(seed), CONVERSE_OPS)
    ops = [files.op(f"converse-l2/i{i:03d}",
                    ["sumrate", "--input", files.problem(it["problem"]),
                     "--d", _vec(it["d"]), "--starts", "1"])
           for i, it in enumerate(items)]
    return ops, [lambda p, i=i, it=it: _converse_bounds(it, p[i]) for i, it in enumerate(items)]


def _converse_bounds(item: dict, payload: bytes) -> str | None:
    row = json.loads(payload)["rows"][0]
    s1, s2, rho = item["closed_form"]
    closed = sumrate.twoterm_sum_rate(s1, s2, rho, *item["d"])
    lower, upper = row["lower"], row["upper"]
    if not closed.in_d:
        return "caps outside the closed-form set"
    if abs(upper - closed.value) > 1e-4:
        return f"upper {upper} is {abs(upper - closed.value):.2e} from the closed form"
    if upper - lower > 1e-3:
        return f"gap {upper - lower:.2e} exceeds 1e-3"
    if lower > upper + 1e-9:
        return f"lower {lower} above upper {upper}"
    return None


def _region(payload: bytes) -> regions.RegionSpec:
    return regions.RegionSpec.from_dict(json.loads(payload))


def _co_polymatroid(spec) -> str | None:
    try:
        regions.check_co_polymatroid(spec)
    except RdError as exc:
        return f"inner floors are not a co-polymatroid: {exc}"
    return None


def build_enum_region(seed: int, files: _Files):
    rng = np.random.default_rng(seed)
    ops, checks = [], []

    def add(name, argv, fn):
        # fn sees the payloads of all ops and the index of its own op
        n = len(ops)
        ops.append(files.op(f"enum-region/{name}", argv))
        checks.append(lambda p: fn(p, n))

    for g in range(ENUM_GROUPS):
        # L=10, K=3 remote problem: inner floors, then outer floors at the
        # level of a total distortion cap (water-filled) and of per-coordinate
        # caps (the k=3 capped determinant ascent)
        it = gen.region_remote(rng, 10)
        path = files.problem(it["problem"])
        add(f"g{g}-remote-l10-inner", ["region", "--input", path, "--r", _vec(it["r"])],
            lambda p, n: _co_polymatroid(_region(p[n])))
        add(f"g{g}-remote-l10-outer-sum", ["region", "--input", path, "--r", _vec(it["r"]),
                                           "--mode", "outer", "--d-sum", _num(it["d_sum"])],
            lambda p, n: _dominated(_region(p[n]), _region(p[n - 1])))
        add(f"g{g}-remote-l10-outer-caps", ["region", "--input", path, "--r", _vec(it["r"]),
                                            "--mode", "outer", "--d", _vec(it["d"])],
            lambda p, n: _dominated(_region(p[n]), _region(p[n - 2])))
        # L=7 multiterminal problem: native floors and the dual-remote route
        it = gen.region_mt(rng, 7)
        path = files.problem(it["problem"])
        add(f"g{g}-mt-l7-native", ["region", "--input", path, "--r", _vec(it["r"])],
            lambda p, n: _co_polymatroid(_region(p[n])))
        add(f"g{g}-mt-l7-transformed", ["region", "--input", path, "--r", _vec(it["r"]),
                                        "--transformed"],
            lambda p, n: _agree(_region(p[n - 1]), _region(p[n])))
        # matching scans: remote at L=3 and L=4, transformed multiterminal at L=3
        for label, it in (("match-remote-l3", gen.matched_remote(rng, 3)),
                          ("match-remote-l4", gen.matched_remote(rng, 4)),
                          ("match-mt-l3", gen.split_certified_mt(rng, 3))):
            add(f"g{g}-{label}", ["match", "--input", files.problem(it["problem"]),
                                  "--d-sum", _num(it["d_sum"])],
                lambda p, n: _scan_holds(p[n]))

    return ops, checks


def _dominated(outer, inner) -> str | None:
    worst = max(outer.bounds[m] - inner.bounds[m] for m in inner.bounds)
    return None if worst <= 1e-10 else f"outer floor exceeds inner by {worst:.2e}"


def _agree(native, routed) -> str | None:
    worst = max(abs(native.bounds[m] - routed.bounds[m]) for m in native.bounds)
    return None if worst <= 1e-10 else f"native and transformed floors differ by {worst:.2e}"


def _scan_holds(payload: bytes) -> str | None:
    scan = json.loads(payload)["scan"]
    if not scan["holds"] or scan["pairs"] <= 0:
        return f"scan fails: holds={scan['holds']} pairs={scan['pairs']}"
    return None


BUILD_FUNCS = {
    "converse-l2": build_converse_l2,
    "enum-region": build_enum_region,
}


def build(name: str, seed: int, workdir: Path):
    return BUILD_FUNCS[name](seed, _Files(workdir))
