"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seq-gate --seed 1 --seconds 12 \\
        --trace 0

The program under test is imported from ``src/`` of the same checkout.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``.  Spans of a
traced run are written to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench  # imports repro, so only once src/ is on the path

    scratch = bench.scratch_dir(ROOT)
    try:
        raw = bench.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), scratch)
    finally:
        bench.remove(scratch)
    attempted, failed, errors = bench.counts(raw)
    for error in errors:
        print(f"FAILED {error}")
    if args.trace:
        specs = spec["per_layer"]
        values = bench.per_layer(raw)
        bench.write_trace(raw, os.path.join(
            ROOT, ".perfbench",
            f"trace-{args.workload}-{args.seed}.json"))
    else:
        specs = spec["end_to_end"]
        values = bench.end_to_end(raw)
    print(f"{args.workload} seed={args.seed} rounds="
          f"{len(raw['plain'])}+{len(raw['traced'])} "
          f"fail_rate={failed / attempted} ({failed}/{attempted})")
    for line in bench.summary(raw):
        print(line)
    for name, value in sorted(values.items()):
        unit = next((s["unit"] for s in specs if s["name"] == name), "")
        print(f"  {name:32s} {value!r} {unit}")
    rec = bench.record(values, specs, attempted, failed)
    bench.check_record(rec, specs)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
