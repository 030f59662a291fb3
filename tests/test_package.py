"""Package-level properties: what importing bordismkit pulls in, and the
README's example."""

import doctest
import io
import subprocess
import sys
from pathlib import Path


def test_import_is_stdlib_only():
    # numpy was the one third-party import; the package now needs none
    code = ("import sys, bordismkit\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_readme_example_runs():
    # the example uses both constructors across mod-2 reduction, so it
    # guards the public polynomial API
    path = Path(__file__).resolve().parents[1] / "README.md"
    test = doctest.DocTestParser().get_doctest(
        path.read_text(encoding="utf-8"), {}, "README.md", str(path), 0)
    out = io.StringIO()
    runner = doctest.DocTestRunner()
    runner.run(test, out=out.write)
    assert len(test.examples) == 7 and runner.failures == 0, out.getvalue()
