"""Regenerate reference/exact_s6.json: exact totals and z parts for every pool n.

    python3 perfbench/make_reference.py

Run it only after an intended change to the exact moments; the file is the
regression reference that every exact-s6 run is checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import workloads as wl  # noqa: E402

if __name__ == "__main__":
    out = wl.exact_s6_pass(list(wl.POOL_N))
    del out["grid"]
    path = Path(__file__).parent / "reference" / "exact_s6.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(out['totals'])} totals, {len(out['z_parts'])} z splits")
