"""Compare two directories of halfline outputs, file by file.

    python3 tools/report_drift.py OLD NEW

Both directories hold the same tree of outputs: sweep reports
(`<claim>.csv`, `<claim>.json`), `key=value` stdout of `evolve`, `limit`
and `sweep`, and `--out` wave CSVs.  For each file the script prints
whether the bytes are identical and, if not, the largest absolute and
relative movement of any number in it, with where that number sits.
Text that is not a number must match exactly; a file whose text or
shape differs is reported as such.

Exit status: 0 when the two trees are byte-identical, 1 when any file
differs or is missing on one side, 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cells(path: Path, text: str) -> list[tuple[str, str]]:
    """(where, text) for every value in the file, in file order."""
    if path.suffix == ".json":
        out: list[tuple[str, str]] = []

        def walk(node, where: str) -> None:
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key], f"{where}.{key}")
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(item, f"{where}[{i}]")
            else:
                out.append((where or ".", json.dumps(node)))

        walk(json.loads(text), "")
        return out
    lines = text.splitlines()
    if path.suffix == ".csv":
        header, *rows = lines
        names = header.split(",")
        return [(f"row {i + 1} {name}", cell)
                for i, row in enumerate(rows)
                for name, cell in zip(names, row.split(","), strict=True)]
    # stdout: key=value lines, and lines of plain text compared whole
    return [tuple(line.split("=", 1)) if "=" in line else (f"line {i + 1}", line)
            for i, line in enumerate(lines)]


def compare(old: Path, new: Path) -> str:
    """One line describing how new differs from old."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    try:
        cells_a = _cells(old, a.decode("ascii"))
        cells_b = _cells(new, b.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as e:
        return f"differs, not comparable as values ({e})"
    if [w for w, _ in cells_a] != [w for w, _ in cells_b]:
        return "differs in shape"
    worst_abs, worst_rel, at_abs, at_rel = 0.0, 0.0, "", ""
    for (w, x), (_, y) in zip(cells_a, cells_b):
        if x == y:
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            return f"differs in text at {w}: {x!r} -> {y!r}"
        d = abs(fy - fx)
        rel = d / abs(fx) if fx != 0 else (math.inf if d else 0.0)
        if d >= worst_abs:
            worst_abs, at_abs = d, w
        if rel >= worst_rel:
            worst_rel, at_rel = rel, w
    return f"max_abs={worst_abs:.2e} at {at_abs}; max_rel={worst_rel:.2e} at {at_rel}"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: python3 tools/report_drift.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    files = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                   | {p.relative_to(new) for p in new.rglob("*") if p.is_file()})
    same = True
    for rel in files:
        if not (old / rel).is_file() or not (new / rel).is_file():
            status = f"only in {old if (old / rel).is_file() else new}"
        else:
            status = compare(old / rel, new / rel)
        same = same and status == "identical"
        print(f"{rel}: {status}")
    print("byte-identical" if same else "differs")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
