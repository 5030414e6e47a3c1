"""The search kernel's outcomes and node counts, as a committed table.

    PYTHONPATH=src python tests/outcome_table.py

rewrites tests/outcome_table.json; tests/test_outcome_table.py checks that
the table built at the current source equals the committed one. It holds
max_sdecc_exact(1..8); max_sdecc_exact(9) under a 20,000-node budget, as
"9 budget"; solve_builtin on C0 plus every subset of C1..C6 at n = 5..8;
solve_builtin on the full C0..C6 models at n = 9..13 under a 60-node
budget; and max_sdecc_exact(6) and (7) with the LP-weighted cover
switched off, as "6 greedy" and "7 greedy"; and solve_builtin on 300
seeded random models, "random <i> n=<n>": the C0 model at n = 3..7 plus
1-4 rows from tests/test_ilp.py's random_row, under a 2,000-node budget;
and solve_builtin on the n = 7 C0 model plus the row
"pair: x_0000001 + x_0000110 >= 2", as "n=7 C0,pair"; and solve_builtin on
the n = 7 model with C0, C1, C4, C5 and C6 plus the mixed-sign rows
s378_0 (an = row) and s378_1, as "n=7 s378", under a 100,000-node budget.
A random model's outcome is its InfeasibleModelError message when it has
one, and its node count None when its rows and fixes refuse it before the
kernel runs. max_sdecc_exact(1..8) and the n = 5..8 models close at their
roots. No seed meets the pair row, so its search builds the LP-weighted
cover below the root with target -1 and proves the optimum 15 in a tree:
the one closed proof in the table whose tree runs with that cover built.
The warm start's greedy fill meets both halves of s378_0 and s378_1, so
that search proves the optimum 16 at its root. The budget stops every
n = 9..13 tree before it improves on its warm start, so those cases pin the
warm start and the budget check. At n = 9 the LP-weighted cover is off
(512 words), so "9 budget" runs a 20,000-node tree on greedy covers alone
and stops with its warm start, 52 words: the one pinned tree at that size.
With greedy covers alone the n = 6 and 7 proofs take 61 and 26,511
nodes, so their node counts pin the branching rule. Outcomes (sizes,
statuses, witnesses and selections as hex masks) are kept apart from
kernel node counts, so a change meant to move only node counts
regenerates the table and shows no outcome moving. solve_builtin does not
report its node count; it is read from the return of the kernel it calls.
The table is built from an empty cover-weight cache, and the greedy cases
from another. Every case but "9 budget" and the n = 9..13 ones runs
under a node budget far above its count, so a change that breaks a cut
fails in seconds instead of searching a large tree.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from delcodes import coverlp
from delcodes import ilp as ilp_module
from delcodes.constraints import build_model
from delcodes.ilp import IlpModel, InfeasibleModelError, LinearConstraint
from delcodes.sdecc import SearchOptions, max_sdecc_exact
from test_ilp import random_row

TABLE = Path(__file__).with_suffix(".json")
EXACT_LENGTHS = range(1, 9)
MODEL_LENGTHS = range(5, 9)
EXTRA_FAMILIES = ("C1", "C2", "C3", "C4", "C5", "C6")
BUDGET = SearchOptions(node_limit=1_000)
NINE_BUDGET = SearchOptions(node_limit=20_000)
FULL_LENGTHS = range(9, 14)
FULL_BUDGET = SearchOptions(node_limit=60)
GREEDY_LENGTHS = (6, 7)
GREEDY_BUDGET = SearchOptions(node_limit=100_000)
RANDOM_SEED = 2028
RANDOM_MODELS = 300
RANDOM_LENGTHS = range(3, 8)
RANDOM_BUDGET = SearchOptions(node_limit=2_000)
PAIR = LinearConstraint(((0b0000001, 1), (0b0000110, 1)), ">=", 2, "pair")
PAIR_BUDGET = SearchOptions(node_limit=100_000)
S378_FAMILIES = ("C0", "C1", "C4", "C5", "C6")
S378 = (
    LinearConstraint(
        ((26, -3), (80, -3), (0, -2), (69, 3), (110, 1), (106, 3)),
        "=", 0, "s378_0",
    ),
    LinearConstraint(
        ((34, 3), (23, 3), (6, -2), (79, -2), (20, -2), (115, 3), (52, -1),
         (0, -1)),
        "<=", 4, "s378_1",
    ),
)


def build_table() -> dict:
    """Solve every case once, with a fresh cover-weight cache."""
    exact_outcomes, exact_nodes = {}, {}
    model_outcomes, model_nodes = {}, {}
    counts: list[int] = []
    kernel = ilp_module._branch_and_bound

    def counted(*args, **kwargs):
        result = kernel(*args, **kwargs)
        counts.append(result[1])
        return result

    def exact(key: str, n: int, budget: SearchOptions) -> None:
        result = max_sdecc_exact(n, budget)
        exact_outcomes[key] = {
            "size": result.size,
            "status": result.proof_status,
            "witness": hex(sum(1 << v for v in result.witness.values)),
        }
        exact_nodes[key] = result.nodes

    def solve(key: str, model: IlpModel, budget: SearchOptions) -> None:
        counts.clear()
        try:
            sol = ilp_module.solve_builtin(model, budget)
        except InfeasibleModelError as exc:
            model_outcomes[key] = {"error": str(exc)}
        else:
            model_outcomes[key] = {
                "objective": sol.objective,
                "status": sol.solver_status,
                "selection": hex(sol.selection),
            }
        (model_nodes[key],) = counts or [None]

    saved_cache = coverlp._cover_weight_cache
    saved_pivots = coverlp._MAX_PIVOTS
    coverlp._cover_weight_cache = {}
    ilp_module._branch_and_bound = counted
    try:
        for n in EXACT_LENGTHS:
            exact(str(n), n, BUDGET)
        exact("9 budget", 9, NINE_BUDGET)
        cases = [
            (n, ("C0",) + extra, BUDGET)
            for n in MODEL_LENGTHS
            for k in range(len(EXTRA_FAMILIES) + 1)
            for extra in itertools.combinations(EXTRA_FAMILIES, k)
        ]
        cases += [
            (n, ("C0",) + EXTRA_FAMILIES, FULL_BUDGET) for n in FULL_LENGTHS
        ]
        for n, families, budget in cases:
            key = f"n={n} " + ",".join(families)
            solve(key, build_model(n, families), budget)
        rng = random.Random(RANDOM_SEED)
        for i in range(RANDOM_MODELS):
            n = rng.choice(RANDOM_LENGTHS)
            rows = tuple(
                random_row(rng, n, f"r{j}") for j in range(rng.randint(1, 4))
            )
            model = IlpModel(n, build_model(n, {"C0"}).constraints + rows)
            solve(f"random {i} n={n}", model, RANDOM_BUDGET)
        # after the random models, kept in place so the table keeps its order
        model = IlpModel(7, build_model(7, {"C0"}).constraints + (PAIR,))
        solve("n=7 C0,pair", model, PAIR_BUDGET)
        model = IlpModel(7, build_model(7, S378_FAMILIES).constraints + S378)
        solve("n=7 s378", model, PAIR_BUDGET)
        # a simplex allowed no pivot gives up, leaving greedy covers alone
        coverlp._MAX_PIVOTS = 0
        coverlp._cover_weight_cache = {}
        for n in GREEDY_LENGTHS:
            exact(f"{n} greedy", n, GREEDY_BUDGET)
    finally:
        ilp_module._branch_and_bound = kernel
        coverlp._cover_weight_cache = saved_cache
        coverlp._MAX_PIVOTS = saved_pivots
    return {
        "max_sdecc_exact": {"outcomes": exact_outcomes, "nodes": exact_nodes},
        "solve_builtin": {"outcomes": model_outcomes, "nodes": model_nodes},
    }


def dumps(table: dict) -> str:
    """The table as text: one case per line, so a diff names each case."""
    lines = ["{"]
    for i, (search, parts) in enumerate(table.items()):
        lines.append(f"  {json.dumps(search)}: {{")
        for j, (part, cases) in enumerate(parts.items()):
            lines.append(f"    {json.dumps(part)}: {{")
            rows = [
                f"      {json.dumps(key)}: {json.dumps(value)}"
                for key, value in cases.items()
            ]
            lines.append(",\n".join(rows))
            lines.append("    }" + ("," if j < len(parts) - 1 else ""))
        lines.append("  }" + ("," if i < len(table) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    TABLE.write_text(dumps(build_table()), encoding="utf-8")
