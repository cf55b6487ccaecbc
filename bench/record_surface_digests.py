"""Record the sha256 of every surface CSV the surface_export workload can ask for.

Run once, from the repository root, at the commit whose output is the
reference:

    python3 bench/record_surface_digests.py <git sha>

It writes ``bench/surface_sha256.json``.  Surfaces must stay
byte-identical, so this file changes only if the output format is
deliberately changed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from certaintrust import cli  # noqa: E402

import gen  # noqa: E402
from workloads import DIGESTS, SIZES, STAGES, TINY_SIZES, digest_key  # noqa: E402


def main(commit: str) -> None:
    resolutions = sorted({SIZES["surface_export"]["resolution"],
                          TINY_SIZES["surface_export"]["resolution"]})
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "surface.csv"
        for stage in STAGES:
            inputs = gen.WIRING.get(stage, gen.MODULES)
            for x, y in itertools.permutations(inputs, 2):
                for resolution in resolutions:
                    argv = ["surface", "--module", stage, "--x", x, "--y", y,
                            "--resolution", str(resolution), "--out", str(out)]
                    with redirect_stdout(io.StringIO()):
                        if cli.main(argv) != 0:
                            raise SystemExit(f"surface export failed: {argv}")
                    key = digest_key(stage, x, y, resolution)
                    digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    doc = {"commit": commit, "sha256": digests}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 bench/record_surface_digests.py <git sha>")
    main(sys.argv[1])
