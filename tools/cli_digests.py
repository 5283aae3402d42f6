"""SHA-256 digests of the hardyz CLI's stdout for a fixed list of commands.

Each command runs in a fresh interpreter with every HARDYZ_* variable
cleared and PYTHONPATH set to the checkout's src directory.  One line is
printed per command, "<sha256>  <argv>", with "  exit=<code>" appended when
the command does not exit 0.  Diffing the output of two checkouts shows
whether a change kept the printed bytes:

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
    "--precision-bits 128 extremal 12 0.95 0.65 30",
    "--precision-bits 192 extremal 12 0.95 0.65 30",
    "--precision-bits 128 extremal 20 0.974 0.3 60",
    "--precision-bits 192 extremal 14 0.95 0.07 40",
    "--precision-bits 64 explore 100 0.3 2",
    "--precision-bits 64 explore 57.5 0.3 2",
] + [
    f"--seed 3 --precision-bits 192 identity --n 3 --m 5 --probe {probe}"
    for probe in ("cosine", "polynomial", "gaussian-cosine", "cardinal")
] + [
    "--jobs 1 zeros 10 100",
    "--precision-bits 128 --jobs 1 zeros 14.1 14.2",
    "--precision-bits 128 zeros 10 40",
]

ENTRY = "import sys; from hardyz.cli import main; sys.exit(main(sys.argv[1:]))"


def digest_line(root: Path, command: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARDYZ_")}
    env["PYTHONPATH"] = str(root / "src")
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
