"""Check a perfbench run's stdout: its last line must be one strict-JSON
object whose metrics hold every per-layer metric that BENCHMARK.json
declares.

    python3 .github/check_bench_result.py run.out
"""

import json
import sys
from pathlib import Path


def reject(constant):
    sys.exit(f"non-finite JSON constant {constant}")


lines = Path(sys.argv[1]).read_text(encoding="utf-8").splitlines()
result = json.loads(lines[-1] if lines else "", parse_constant=reject)
declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
missing = [m["name"] for m in declared["per_layer"]
           if m["name"] not in result["metrics"]]
if missing:
    sys.exit(f"missing per-layer metrics: {', '.join(missing)}")
