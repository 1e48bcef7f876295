"""Usage: python scripts/compare_artifacts.py <dir_a> <dir_b>

Exits non-zero unless two `coopbeam run` output directories hold the same
artifacts: the same file names, identical CSV bytes, and summaries (JSON)
equal in everything but their "csv" path, which names the directory itself.
"""

import json
import pathlib
import sys


def differing(a_dir, b_dir):
    """Names of the files whose content differs; raises SystemExit if the file names differ."""
    a_dir, b_dir = pathlib.Path(a_dir), pathlib.Path(b_dir)
    if sorted(p.name for p in a_dir.iterdir()) != sorted(p.name for p in b_dir.iterdir()):
        sys.exit(f"{a_dir} and {b_dir} hold different files")
    out = []
    for path in sorted(a_dir.iterdir()):
        a, b = path.read_bytes(), (b_dir / path.name).read_bytes()
        if path.suffix == ".json":
            a, b = ({k: v for k, v in json.loads(x).items() if k != "csv"} for x in (a, b))
        if a != b:
            out.append(path.name)
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    differ = differing(*argv)
    if differ:
        sys.exit(f"{argv[0]} and {argv[1]} differ in {', '.join(differ)}")
    print(f"{argv[0]} and {argv[1]} hold identical artifacts")


if __name__ == "__main__":
    main(sys.argv[1:])
