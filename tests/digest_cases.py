"""The runs whose artifact bytes are pinned, and the recorder of their digests.

``artifact_digests.json`` maps an environment key (numpy version and
machine, since the bytes rest on pocketfft and libm) to the sha256 of
every artifact but ``manifest.json`` of these runs: the presets
``fig3-ci``, ``fig4-ci`` and ``fig5``, and each command of README's
command-line block that writes into ``out/``.  ``test_digests.py``
compares a fresh set with it.  A change that moves bytes re-records them,
so the diff shows the move:

    PYTHONPATH=src python tests/digest_cases.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shlex
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGEST_FILE = Path(__file__).resolve().with_name("artifact_digests.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/digest_cases.py"
PRESETS = ("fig3-ci", "fig4-ci", "fig5")


def environment_key() -> str:
    return f"numpy {np.__version__} / {platform.machine()}"


def readme_commands() -> dict[str, list[str]]:
    """README's command-line examples that write into ``out/``, as argv lists by case name.

    ``thzbeam run my_scenario.ini`` reads a file the README does not ship,
    so it is left out.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]
        if argv and argv[0] != "run":
            out = argv.index("--out")
            commands[f"cli-{argv[0]}"] = argv[:out] + argv[out + 2:]
    return commands


def run_cases(work: Path) -> dict[str, str]:
    """Run every case under ``work``; sha256 of each artifact, keyed ``<case>/<file>``."""
    from thzbeam import preset, run_scenario
    from thzbeam.cli import main

    for name in PRESETS:
        run_scenario(preset(name), work / name)
    for case, argv in readme_commands().items():
        with contextlib.redirect_stdout(io.StringIO()):  # each verb reports what it ran
            code = main([*argv, "--out", str(work / case)])
        if code != 0:
            raise RuntimeError(f"{case}: {shlex.join(argv)} exited {code}")
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def recorded() -> dict[str, dict[str, str]]:
    return json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = run_cases(Path(work))
    table = recorded()
    table[environment_key()] = digests
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {environment_key()} in {DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
