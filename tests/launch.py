"""Fresh processes that run the ``partitions`` package this test process imported.

A child process gets ``PYTHONPATH`` set to the directory that holds the
imported package: the checkout's ``src/`` when the suite runs from the
checkout, the installed copy's ``site-packages`` when it runs against an
installed package. So the same tests check whichever package the suite
imported, and no test names a path of its own.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import partitions

PACKAGE_ROOT = Path(partitions.__file__).resolve().parent.parent
INSTALLED = not PACKAGE_ROOT.is_relative_to(Path(__file__).resolve().parent.parent / "src")


def run(argv, timeout=60):
    """Run ``argv`` to its end with the imported package first on the path."""
    return subprocess.run(
        argv,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def python(*args, timeout=60):
    """Run this interpreter with ``args``."""
    return run([sys.executable, *args], timeout)


def cli_commands():
    """The ways to launch the CLI: ``python -m partitions.cli`` and, for an
    installed package, the ``partitions`` script on PATH as well."""
    commands = [[sys.executable, "-m", "partitions.cli"]]
    if INSTALLED:
        script = shutil.which("partitions")
        assert script, "an installed package puts a partitions script on PATH"
        commands.append([script])
    return commands
