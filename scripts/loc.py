#!/usr/bin/env python3
"""Size of a package: its non-blank, non-comment lines, per module and in total.

A line counts when a token other than a comment, a line break or an indent
lies on it, so every line of a docstring counts, its blank lines too.  This
is the size count that ROADMAP.md quotes for `src/vbesov`.

    python scripts/loc.py              # src/vbesov
    python scripts/loc.py PACKAGE_DIR
"""

import argparse
import glob
import os
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFAULT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "vbesov")


def count_lines(path: str) -> int:
    """Lines of the file that hold a token other than layout."""
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_package(directory: str) -> dict:
    """{module file name: count_lines} for the package's modules."""
    return {os.path.basename(p): count_lines(p)
            for p in sorted(glob.glob(os.path.join(directory, "*.py")))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=DEFAULT_DIR)
    counts = count_package(ap.parse_args(argv).directory)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
