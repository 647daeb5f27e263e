"""Validate the BENCH_*.json trajectory files a benchmark run produced.

CI runs this after the smoke benchmarks::

    PYTHONPATH=../src python validate_bench_json.py \
        --expect INCR-SYNC DELTA-BATCH BATCH-RESIDENT

Every ``BENCH_*.json`` under ``--results-dir`` is schema-checked against
:func:`repro.obs.benchjson.validate_bench_payload` (the same definition the
emitters use), and every ``--expect`` benchmark must have produced a file.
Exit status 1 on any problem, with one line per finding.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from repro.obs import benchjson


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
        help="directory holding the BENCH_*.json files (default: benchmarks/results)",
    )
    parser.add_argument(
        "--expect",
        nargs="*",
        default=[],
        metavar="NAME",
        help="benchmark names that must have emitted a file (e.g. INCR-SYNC)",
    )
    args = parser.parse_args(argv)

    problems = []
    pattern = os.path.join(args.results_dir, f"{benchjson.BENCH_FILE_PREFIX}*.json")
    paths = sorted(glob.glob(pattern))
    if not paths:
        problems.append(f"no {benchjson.BENCH_FILE_PREFIX}*.json files under {args.results_dir}")
    for path in paths:
        try:
            payload = benchjson.load_payload(path)
        except (OSError, ValueError) as error:
            problems.append(f"{os.path.basename(path)}: unreadable ({error})")
            continue
        for problem in benchjson.validate_bench_payload(payload):
            problems.append(f"{os.path.basename(path)}: {problem}")

    present = {os.path.basename(path) for path in paths}
    for name in args.expect:
        file_name = benchjson.bench_file_name(name)
        if file_name not in present:
            problems.append(f"expected benchmark {name} did not emit {file_name}")

    if problems:
        for problem in problems:
            print(f"bench-json: {problem}", file=sys.stderr)
        return 1
    print(f"bench-json: {len(paths)} trajectory file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
