"""Report-only comparison of two sets of benchmark results.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the standard output of any number of ``bench/run.py`` runs,
appended one after another (a stamp line, then a result line, per run). For
every workload and metric the report prints the unit, each side's median and
quartiles over its runs, the run counts and the change of the median. It
never fails a comparison: judging the numbers is up to the reader.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def load(path: str) -> dict[tuple[str, str], tuple[str, list[float]]]:
    """(workload, metric) -> (unit, values), from one file of run outputs."""
    series: dict = defaultdict(lambda: ("", []))
    workload = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "stamp" in doc:
                workload = f"{doc['stamp']['workload']}/trace{doc['stamp']['trace']}"
            elif "metrics" in doc and workload is not None:
                for name, m in doc["metrics"].items():
                    unit, values = series[(workload, name)]
                    series[(workload, name)] = (m["unit"], values + [m["value"]])
    return dict(series)


def summary(values: list[float] | None) -> str:
    if not values:
        return f"{'-':>34}"
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return f"{statistics.median(values):12.6g} [{q1:9.4g}, {q3:9.4g}] n={len(values):<2d}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results of the base")
    parser.add_argument("b", help="results of the change")
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    print(f"{'workload':20s} {'metric':52s} {'unit':6s} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} change")
    for key in sorted(set(a) | set(b)):
        unit = (a.get(key) or b.get(key))[0]
        va, vb = a.get(key, ("", None))[1], b.get(key, ("", None))[1]
        change = ""
        if va and vb and statistics.median(va):
            change = f"{statistics.median(vb) / statistics.median(va) - 1:+.1%}"
        print(f"{key[0]:20s} {key[1]:52s} {unit:6s} {summary(va)} {summary(vb)} {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
