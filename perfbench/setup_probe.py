"""Set-up probe: import the package as the CLI does, load one workload input
and validate it.

    python3 perfbench/setup_probe.py INPUT

INPUT is an MPD model or a project JSON. On success the probe prints the
system-wide monotonic clock (CLOCK_MONOTONIC, seconds) at the moment the
input is validated, so the caller can time a fresh interpreter from spawn
to ready. Exit code 1 if the project is invalid.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from assemblyforge import cli, model  # noqa: E402


def load_input(path: Path):
    """The workload's project, loaded as the CLI loads it, and its
    validation violations."""
    spec, _, _ = cli._load_input(path)
    return spec, model.validate_project(spec)


def main(argv: list[str]) -> int:
    _, violations = load_input(Path(argv[0]))
    if violations:
        print("invalid project: " + "; ".join(map(str, violations)), file=sys.stderr)
        return 1
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
