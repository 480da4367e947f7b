import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_counts_statements_and_not_docstrings(tmp_path):
    # a.py: the docstring, the comment and the blank line are not code; the
    # three-line call is three lines, and the string inside it is code
    (tmp_path / "a.py").write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment line\n"
        "import os\n"
        "\n"
        "x = max(\n"
        '    "not a docstring",\n'
        "    os.sep)  # a trailing comment\n"
    )
    (tmp_path / "b.py").write_text(
        "def f():\n"
        '    """Its docstring."""\n'
        "    return 1\n"
    )
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.count("\n") == 1
    counts = json.loads(proc.stdout)
    assert list(counts) == ["a.py", "b.py", "total"]
    assert counts == {"a.py": 4, "b.py": 2, "total": 6}
