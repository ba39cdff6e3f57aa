"""The fixed-width tables the examples print.

Run:  python examples/format_table.py

Imported by the other examples (``from format_table import
format_table``); run on its own it prints a sample table.
"""

from typing import Iterable, Sequence


def format_table(rows: Iterable[Sequence[object]], headers: Sequence[str]) -> str:
    """Left-aligned columns two spaces apart, a rule under the headers."""
    cells = [[str(c) for c in row] for row in rows]
    titles = [str(h) for h in headers]
    widths = [max([len(t)] + [len(row[i]) for row in cells]) for i, t in enumerate(titles)]

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    return "\n".join([line(titles), line(["-" * w for w in widths])] + [line(r) for r in cells])


if __name__ == "__main__":
    print(format_table([("TriAL", "joins"), ("TriAL*", "joins, stars")], ("fragment", "adds")))
