"""Count the code lines of each module under src/insetedge, and their total.

A code line holds a token other than a comment, indentation or a newline,
outside a statement that is a bare string (a docstring), by Python's
tokenize.  Run from the repository root:

    python3 tools/code_lines.py [ROOT]

ROOT defaults to src/insetedge.  Prints one JSON object: the count of each
.py file, sorted by name, then "total".
"""

import json
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold a token of a statement that is
    not a bare string."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/insetedge")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    counts["total"] = sum(counts.values())
    print(json.dumps(counts))


if __name__ == "__main__":
    main(sys.argv[1:])
