"""Summarize benchmark records appended by ``run.py --out FILE``.

    python3 perfbench/summarize.py RECORDS.jsonl [--baseline OUT.json]

For each workload it prints the median and quartile spread of every
end-to-end metric over the untraced runs, the median of every per-layer
metric over the traced runs, the tracing overhead (traced pass time over
untraced first-pass time, paired by seed) and the per-op call counts of
the first traced run. ``--baseline`` also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": med, "q1": q[0], "q3": q[2], "iqr_over_median": (q[2] - q[0]) / med if med else 0.0,
            "runs": len(values)}


def _first_pass_s(rec: dict) -> float:
    return sum(o["seconds"] for o in rec["ops"] if o["pass"] == 0)


def summarize(records: list[dict]) -> dict:
    out = {"env": records[0]["env"], "workloads": {}}
    for wl in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == wl and r["trace"] == 1]
        entry = {
            "seeds": sorted({r["env"]["seed"] for r in plain + traced}),
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
        }
        if plain:
            names = plain[0]["metrics"]
            entry["end_to_end"] = {
                k: {**_spread([r["metrics"][k]["value"] for r in plain]),
                    "unit": names[k]["unit"]} for k in names}
        if traced:
            names = traced[0]["metrics"]
            entry["per_layer"] = {
                k: {"median": statistics.median(r["metrics"][k]["value"] for r in traced),
                    "unit": names[k]["unit"]} for k in names}
            entry["not_hit"] = sorted(k for k, v in entry["per_layer"].items() if v["median"] == 0)
            entry["op_counts"] = traced[0]["op_counts"]
            untraced = {r["env"]["seed"]: _first_pass_s(r) for r in plain}
            ratios = [_first_pass_s(r) / untraced[r["env"]["seed"]]
                      for r in traced if r["env"]["seed"] in untraced]
            if ratios:
                entry["tracing_overhead"] = statistics.median(ratios)
        out["workloads"][wl] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records")
    parser.add_argument("--baseline", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    with open(args.records, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summary = summarize(records)
    for wl, entry in summary["workloads"].items():
        print(f"== {wl}: seeds {entry['seeds']}, failed {entry['failed']}/{entry['attempted']}")
        for k, v in entry.get("end_to_end", {}).items():
            print(f"  {k:<12} median {v['median']:.6g} {v['unit']}, iqr/median {v['iqr_over_median']:.4f}"
                  f" over {v['runs']} runs")
        if "tracing_overhead" in entry:
            print(f"  tracing overhead {entry['tracing_overhead']:.3f}x")
        for row in entry.get("op_counts", []):
            print(f"  {row['op']}: eig_sym {row['eig_sym']}, max_det_capped {row['max_det_capped']},"
                  f" {row['wall_s']:.3f} s wall, traced")
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
