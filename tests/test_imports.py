"""What ``import torsionforge.cli`` loads.

The import is most of a one-shot ``torsion-forge`` run, so the package
builds its records with ``collections.namedtuple`` and loads ``csv``
only for ``scan --format csv``.  The check runs in a fresh interpreter
started with ``-S``, because ``site`` itself imports ``typing`` in some
environments.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import torsionforge

ROOT = Path(torsionforge.__file__).resolve().parent.parent

UNLOADED = ("dataclasses", "typing", "inspect", "csv")


def test_cli_import_leaves_heavy_modules_unloaded():
    code = (
        "import sys; sys.path.insert(0, %r); import torsionforge.cli; "
        "print(' '.join(m for m in %r if m in sys.modules))" % (str(ROOT), UNLOADED)
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == []
