"""Package-level properties: what importing bordismkit pulls in."""

import subprocess
import sys


def test_import_is_stdlib_only():
    # numpy was the one third-party import; the package now needs none
    code = ("import sys, bordismkit\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
