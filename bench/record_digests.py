"""Record the SHA-256 of every operation's report at the default seed into
bench/digests.json.

    python3 bench/record_digests.py

Run it from the repository root, and only on a commit whose reports are
known to be right: it refuses to write if any operation exits nonzero,
reports `passed: false` or differs from its golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import zonoforge.cli  # noqa: F401  (inherited by every forked op)

    digests = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, root, run.DEFAULT_SEED)
        with run.scratch_dir(root) as outdir:
            result = run.Runner(root, wl, outdir, {}).run_pass()
        bad = run.failures([result])
        for label, why, err in bad:
            print(f"FAILED {name} {label}: {why} {err.strip()[-300:]}", file=sys.stderr)
        if bad:
            return 1
        for op, res in zip(wl.ops, result["ops"]):
            digests[wl.op_key(op)] = res["digest"]
    run.DIGESTS.write_text(
        json.dumps({"seed": run.DEFAULT_SEED, "digests": dict(sorted(digests.items()))}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(digests)} digests in {run.DIGESTS.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
