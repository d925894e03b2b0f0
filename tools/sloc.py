"""Code lines of the package's modules, by one rule: a line counts when it
holds a token that is not a comment, a docstring or layout, so blank lines,
comment lines and docstrings are left out.

    python tools/sloc.py [folder]

prints the count of each module of the folder (src/ellorders by default),
then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}

# what may stand before a docstring: the start of the file or of a statement
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path) -> int:
    """Lines of the file at path that hold code.  A docstring is a string
    that is a statement of its own; a multi-line token counts every line."""
    with open(path, "rb") as f:
        toks = [t for t in tokenize.tokenize(f.readline)
                if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and prev.type in _STATEMENT_START
                                   and nxt.type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    folder = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ellorders"
    total = 0
    for path in sorted(folder.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
