"""``run.py --compare A.jsonl B.jsonl``: is run set B worse than run set A?

Each file holds one JSON line per run (``run.py --out``).  Per workload
and end-to-end metric the medians of both sets are compared against the
bound fixed in BENCHMARK.json.  A metric whose run-to-run spread
(inter-quartile distance of either set, as a share of A's median) is
wider than its bound is *unresolved*, not unchanged — unless every run of
B reads better than every run of A.  Per-layer counts, which must repeat
exactly, are listed when the two sets disagree.
"""

from __future__ import annotations

import json
import statistics

__all__ = ["main"]


def _load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of a result file."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path) as lines:
        for line in lines:
            if not line.strip():
                continue
            run = json.loads(line)
            per_metric = runs.setdefault(run["workload"], {})
            for name, metric in run["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(path_a: str, path_b: str, spec: dict) -> int:
    a_runs, b_runs = _load(path_a), _load(path_b)
    print(f"A = {path_a}\nB = {path_b}\n"
          "delta and spread are shares of A's median; delta > 0 means B is worse")
    header = (f"{'workload':13s} {'metric':17s} {'unit':5s} {'A median [q1..q3] n':>38s} "
              f"{'B median [q1..q3] n':>38s} {'delta':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    print(header)
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = a_runs.get(workload, {}).get(name)
            b = b_runs.get(workload, {}).get(name)
            if not a or not b:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a_q1, a_med, a_q3 = _quartiles(a)
            b_q1, b_med, b_q3 = _quartiles(b)
            delta = sign * (b_med - a_med) / a_med + 0.0  # no -0.00%
            spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med)
            b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
            if spread > metric["bound"] and not b_always_better:
                verdict = "unresolved"
            elif delta > metric["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:13s} {name:17s} {metric['unit']:5s} "
                  f"{_cell(a_med, a_q1, a_q3, len(a))} {_cell(b_med, b_q1, b_q3, len(b))} "
                  f"{delta:+8.2%} {metric['bound']:6.0%} {spread:7.2%}  {verdict}")
    differing = [
        f"{workload} {m['name']}: A {sorted(set(a))} B {sorted(set(b))}"
        for workload in a_runs
        for m in spec["per_layer"] if m["unit"] == "count"
        if (a := a_runs[workload].get(m["name"])) and (b := b_runs.get(workload, {}).get(m["name"]))
        and set(a) != set(b)
    ]
    if differing:
        print("per-layer counts that do not repeat:")
        for line in differing:
            print("  " + line)
    return 1 if worse else 0


def _cell(med: float, q1: float, q3: float, n: int) -> str:
    return f"{med:12.6g} [{q1:9.5g}..{q3:9.5g}] {n:2d}"
