"""The committed outcome table still matches the search kernel.

A failure names the cases that moved. A change meant to move node counts
regenerates the table with `PYTHONPATH=src python tests/outcome_table.py`
and shows in its diff that no outcome moved.
"""

import json

from outcome_table import TABLE, build_table, dumps


def _moved(expected: dict, actual: dict) -> list[str]:
    return [
        key for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    ]


def test_outcomes_and_node_counts_match_the_committed_table():
    text = TABLE.read_text(encoding="utf-8")
    committed = json.loads(text)
    table = build_table()
    for part in ("outcomes", "nodes"):
        for search in ("max_sdecc_exact", "solve_builtin"):
            moved = _moved(committed[search][part], table[search][part])
            assert not moved, f"{search} {part} moved: {sorted(moved)[:10]}"
    assert dumps(table) == text
