"""Record golden/cli.json: stdout and exit code of every CLI command.

Run from the repository root when the CLI output is meant to change:

    PYTHONPATH=src python3 benchmark/record_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def main() -> None:
    root = HERE.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    golden = []
    for argv in gen.CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "wildskel.cli", *argv],
            cwd=root, env=env, stdout=subprocess.PIPE, check=False,
        )
        golden.append({
            "argv": list(argv),
            "exit": proc.returncode,
            "stdout": proc.stdout.decode("utf-8"),
        })
    out = HERE / "golden" / "cli.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(golden)} commands)")


if __name__ == "__main__":
    main()
