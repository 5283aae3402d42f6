"""SHA-256 digests of the hardyz CLI's stdout for a fixed list of commands.

Each command runs in a fresh interpreter with PYTHONPATH set to the
checkout's src directory.  One line is printed per command,
"<sha256>  <argv>", with "  exit=<code>" appended when the command does not
exit 0.  Diffing the output of two checkouts shows whether a change kept
the printed bytes:

    python tools/cli_digests.py > after.txt
    python tools/cli_digests.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

Uses the standard library only.  The whole list takes a few minutes.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

COMMANDS = [
    "--seed 7 --precision-bits 192 verify-lemmas all",
    "--seed 7 --precision-bits 128 verify-lemmas all",
    # a second seed and a fourth precision for every suite
    "--seed 11 --precision-bits 80 verify-lemmas all",
    # the text layout of every suite
    "--seed 11 --format text verify-lemmas all",
    "--seed 7 --precision-bits 64 verify-lemmas kernel",
    "--seed 7 --precision-bits 64 verify-lemmas divided_diff",
    # the log-sine integral's rule at 64 bits
    "--seed 7 --precision-bits 64 verify-lemmas extremal",
    "--precision-bits 128 extremal 12 0.95 0.65 30",
    "--precision-bits 192 extremal 12 0.95 0.65 30",
    # C* is one value at every precision; this pins it at a third
    "--precision-bits 64 extremal 12 0.95 0.65 30",
    "--precision-bits 128 extremal 20 0.974 0.3 60",
    "--precision-bits 192 extremal 14 0.95 0.07 40",
    "--precision-bits 192 extremal 16 0.935086 0.066081 45",
    # a refine after a crossing on the delta grid, at 192 bits
    "--precision-bits 192 extremal 12 0.95 0.4 30",
    # an early exit at 128 bits
    "--precision-bits 128 extremal 16 0.935086 0.066081 45",
    "--precision-bits 64 explore 100 0.3 2",
    "--precision-bits 64 explore 57.5 0.3 2",
    "--precision-bits 128 explore 57.5 0.3 2",
    "--precision-bits 64 explore 1000 0.3 4",
    # the centre of the benchmark's explore heights
    "--precision-bits 64 explore 60 0.3 2",
    # three patches, where the majorant radius is smallest
    "--precision-bits 64 explore 10000 0.3 2",
] + [
    f"--seed 3 --precision-bits 192 identity --n 3 --m 5 --probe {probe}"
    for probe in ("cosine", "polynomial", "gaussian-cosine", "cardinal")
] + [
    "--seed 3 --precision-bits 128 identity --n 4 --m 5 --probe cardinal",
    # m is raised to n + 1; nine boundary orders per end
    "--seed 3 --precision-bits 192 identity --n 1 --m 1 --probe cardinal",
    "--seed 3 --precision-bits 192 identity --n 5 --m 9 --probe cardinal",
    # ten boundary orders per end over arbitrary zero-sum weights
    "--seed 3 --precision-bits 192 identity --n 4 --m 10 --probe cosine",
    # the gaussian cosine's majorant at k = 18, at 128 bits
    "--precision-bits 128 identity --n 4 --m 9 --probe gaussian-cosine",
    # the integral term's Gauss-Legendre rules at 192 and 128 bits; this pins
    # them at a third
    "--seed 3 --precision-bits 64 identity --n 3 --m 5 --probe gaussian-cosine",
    "zeros 10 100",
    "--precision-bits 128 zeros 14.1 14.2",
    "--precision-bits 128 zeros 10 40",
    "--seed 7 --format text verify-lemmas identity",
    "--precision-bits 128 --format csv zeros 10 40",
    # a CSV off the count_stats path, at 64 bits
    "--precision-bits 64 --format csv zeros 480 500",
    # a CSV at the default 192 bits: the scan starts at 0 and is filtered
    "--format csv zeros 14.1 14.2",
    "--precision-bits 128 zeros 480 500",
    "--precision-bits 64 zeros 480 500",
    "zeros 195 215",
    "--precision-bits 128 zeros 10000 10002",
    "--precision-bits 192 zeros 900 905",
    "--precision-bits 64 zeros 90 110",
    "--precision-bits 128 zeros 160 170",
    # the top height stratum of the benchmark's zeros workload
    "--precision-bits 128 zeros 949 951",
    # the 269 zeros below 500 and their count_stats
    "--precision-bits 128 zeros 0 500",
]

ENTRY = "import sys; from hardyz.cli import main; sys.exit(main(sys.argv[1:]))"


def digest_line(root: Path, command: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", ENTRY, *shlex.split(command)],
                          cwd=root, env=env, stdout=subprocess.PIPE)
    line = f"{hashlib.sha256(proc.stdout).hexdigest()}  {command}"
    return line if proc.returncode == 0 else f"{line}  exit={proc.returncode}"


def main(argv: list) -> int:
    if len(argv) > 1:
        print("usage: cli_digests.py [CHECKOUT]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (root / "src" / "hardyz").is_dir():
        print(f"no src/hardyz under {root}", file=sys.stderr)
        return 2
    for command in COMMANDS:
        print(digest_line(root, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
