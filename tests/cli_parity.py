"""CLI parity gate: one digest of the stdout, stderr and exit code of a fixed
command set.

The commands are check-theorem thm31, thm32 and thm35 on every pair of
``bench/data/atlas_le4.g6`` (every graph of order 1-4), with default options
and with ``--z-tiebreak max``; analyze on every graph of
``bench/data/atlas_le5.g6``; search on the order-4 atlas; verify-paper, gen
and product; the check-theorem commands of the bench ladder and a dense one;
and commands that fail on an anchor out of range or an enumeration bound.
Each runs in this process through ``wfcover.cli.run``, with the records of
the ``wfcover`` loggers sent to the command's stderr as ``main`` formats
them.  A change that keeps the CLI's behaviour prints the same digest as
its parent; pytest does not collect this file.

    python tests/cli_parity.py [--src PATH]

``--src`` is the source directory holding the ``wfcover`` package
(default: this checkout's ``src``).  It prints the command count, the
histogram of exit codes and the SHA-256 of every (argv, exit code, stdout,
stderr) in order.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# relative to ROOT, the working directory of the commands, so argv and the
# digest do not depend on where the checkout lies
DATA = Path("bench", "data")

LADDER = (
    ("thm32", "path:12", "empty:2"),
    ("thm32", "path:8", "empty:3"),
    ("thm32", "cycle:6", "empty:4"),
    ("thm35", "cycle:8", "path:3"),
    ("thm35", "cycle:6", "cycle:4"),
    ("thm35", "cycle:5", "cycle:4"),
    ("thm35", "complete:4", "cycle:5"),
)

ERRORS = (
    ["check-theorem", "thm32", "--g", "path:3", "--h", "empty:2", "--anchor", "2"],
    ["check-theorem", "thm32", "--g", "path:3", "--h", "empty:2", "--anchor", "-1"],
    ["check-theorem", "thm35", "--g", "path:3", "--h", "cycle:4", "--anchor", "4"],
    ["check-theorem", "thm35", "--g", "path:3", "--h", "cycle:4", "--anchor", "1"],
    ["check-theorem", "thm31", "--g", "empty:2", "--h", "path:3", "--anchor", "0"],
    ["check-theorem", "thm35", "--g", "complete:5", "--h", "path:6"],
    ["check-theorem", "thm32", "--g", "path:5", "--h", "empty:3", "--max-order", "12"],
    ["check-theorem", "thm35", "--g", "path:3", "--h", "path:3", "--max-order", "30"],
    ["analyze", "--family", "empty:25"],
    ["analyze", "--family", "cycle:9", "--max-order", "8"],
)


def records(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text(encoding="ascii").splitlines() if line.strip()]


def commands() -> list[list[str]]:
    le4 = [f"g6:{r}" for r in records(DATA / "atlas_le4.g6")]
    out = []
    for theorem in ("thm31", "thm32", "thm35"):
        for extra in ([], ["--z-tiebreak", "max"]):
            for g in le4:
                for h in le4:
                    out.append(["check-theorem", theorem, "--g", g, "--h", h, *extra])
    out += [["analyze", "--graph6", r] for r in records(DATA / "atlas_le5.g6")]
    out += [["search", "--g-file", str(DATA / "atlas_le4.g6"), "--theorem", t]
            for t in ("thm31", "thm32", "thm35")]
    out.append(["verify-paper"])
    out += [["gen", "--family", f] for f in ("path:4", "cycle:5", "empty:3", "complete:4", "fig1")]
    out += [["product", "--g", g, "--h", h]
            for g, h in (("path:4", "empty:2"), ("cycle:4", "path:3"), ("fig1", "cycle:4"))]
    out += [["check-theorem", t, "--g", g, "--h", h] for t, g, h in LADDER]
    out += [list(argv) for argv in ERRORS]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the wfcover package")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    os.chdir(ROOT)
    from wfcover import cli

    stderr = io.StringIO()
    handler = logging.StreamHandler(stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("wfcover")
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)

    digest = hashlib.sha256()
    codes: dict[int, int] = {}
    start = time.perf_counter()
    argvs = commands()
    for argv in argvs:
        stdout = io.StringIO()
        stderr.seek(0)
        stderr.truncate()
        code = cli.run(argv, stdout=stdout, stderr=stderr)
        codes[code] = codes.get(code, 0) + 1
        digest.update(json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()]).encode())
        digest.update(b"\n")
    print(f"{len(argvs)} commands in {time.perf_counter() - start:.1f} s")
    print("exit codes: " + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items())))
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
