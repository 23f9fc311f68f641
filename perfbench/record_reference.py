"""Record the ``artifacts`` workload's reference outputs.

Regenerates every registered artifact and writes its flattened ``data``
to ``reference/artifacts.json``. Run it only when an artifact's numbers
change on purpose::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from wl_artifacts import EXPERIMENTS, REFERENCE, regenerate  # noqa: E402


def main() -> int:
    reference = regenerate(EXPERIMENTS)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} artifacts to {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
