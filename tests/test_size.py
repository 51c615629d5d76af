"""The package's line budget.

``src/centrelat/*.py`` may total at most ``BUDGET`` lines, counted as
``wc -l`` counts them (newline characters), so that the package shrinks or
holds its size instead of growing a line at a time.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "centrelat"
BUDGET = 3000


def line_count(data: bytes) -> int:
    return data.count(b"\n")


def test_count_is_wc_l():
    # a last line without its newline is not counted, as wc -l does not
    assert [line_count(b) for b in (b"", b"x", b"x\n", b"x\ny", b"\n\n")] == [0, 0, 1, 1, 2]


def test_package_stays_within_its_line_budget():
    total = sum(line_count(path.read_bytes()) for path in SRC.glob("*.py"))
    assert total <= BUDGET, f"src/centrelat/*.py is {total} lines, over its budget of {BUDGET}"
