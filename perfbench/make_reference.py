"""Regenerate the benchmark's stored reference outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/<kind>_<q>.{json,csv}.gz (the emit output of
every chartable and reach_* case) and verify_counts.json (the number of
checks of each verify suite at every q).  Run it only at a commit whose
output is trusted: the benchmark fails any case that differs from these.
"""

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402  (needs the path set above)
    REFERENCE_DIR, TABLE_CASES, VERIFY_QS, TableCase, VerifyCase,
    extend_supported, oracle_mismatch, parse_suites, reference_path)

# verify_counts.json must not depend on the seed; two seeds prove it.
SEEDS = (1, 2)


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, sizes in TABLE_CASES.items():
        extend_supported(sizes)
        for kind, q in sizes:
            table, texts = TableCase(kind, q, None).run()
            bad = oracle_mismatch(table)
            if bad:
                raise SystemExit(f"{kind} q={q}: {bad}")
            for fmt, text in texts.items():
                reference_path(kind, q, fmt).write_bytes(
                    gzip.compress(text.encode("utf-8"), mtime=0))
            print(f"{workload}: {kind} q={q} written")
    counts = {}
    for q in VERIFY_QS:
        seen = []
        for seed in SEEDS:
            rc, text = VerifyCase(q, seed, None).run()
            suites = parse_suites(text)
            if rc != 0 or any(s[1] for s in suites.values()):
                raise SystemExit(f"verify q={q} seed={seed} failed")
            seen.append({name: s[0] for name, s in suites.items()})
        if seen[0] != seen[1]:
            raise SystemExit(f"verify q={q}: check counts depend on the seed")
        counts[str(q)] = seen[0]
        print(f"verify: q={q} {sum(seen[0].values())} checks")
    with open(REFERENCE_DIR / "verify_counts.json", "w") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
