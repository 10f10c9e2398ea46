"""Check a perfbench run's stdout: its last line must be one strict-JSON
object that reports no failed operation and whose metrics hold every metric
of the given group of BENCHMARK.json: per_layer for a traced run,
end_to_end for an untraced one.

    python3 .github/check_bench_result.py run.out per_layer
"""

import json
import sys
from pathlib import Path


def reject(constant):
    sys.exit(f"non-finite JSON constant {constant}")


path, group = sys.argv[1:]
lines = Path(path).read_text(encoding="utf-8").splitlines()
result = json.loads(lines[-1] if lines else "", parse_constant=reject)
if result["failed"] != 0:
    sys.exit(f"{result['failed']} of {result['attempted']} operations failed")
declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
missing = [m["name"] for m in declared[group]
           if m["name"] not in result["metrics"]]
if missing:
    sys.exit(f"missing {group} metrics: {', '.join(missing)}")
