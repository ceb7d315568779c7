"""Record the classify verdicts the benchmark checks against.

Runs every classify command of the benchmark whose expected exit code is 0
and writes the compared row fields to classify_reference.json.  Run it
only when a verdict is meant to change, from the repository root:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH, ROW_FIELDS, form_key  # noqa: E402
from workloads import classify_commands, run_cli  # noqa: E402


def main() -> int:
    reference = {}
    for cmd in classify_commands():
        if cmd.expect_exit != 0:
            continue
        code, out = run_cli(cmd.argv)
        if code != 0:
            print(f"error: {' '.join(cmd.argv)} exited {code}", file=sys.stderr)
            return 1
        doc = json.loads(out)
        reference[form_key(cmd.argv)] = {
            "realform": doc["realform"],
            "rows": [{f: row[f] for f in ROW_FIELDS} for row in doc["rows"]],
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} forms to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
