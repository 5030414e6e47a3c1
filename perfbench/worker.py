"""One benchmark repetition, run in a fresh interpreter by run.py.

The job arrives as JSON on stdin; the result leaves as one JSON line on
stdout. `import delcodes` is the first thing this file does, so the parent
can time set-up from its spawn to T_READY (both read the system-wide
monotonic clock).

Every call into the library is wrapped in a span named `<module>.<function>`.
Spans are always recorded (a few dozen per repetition, far below timing
noise); the traced run additionally replays each CLI command as the library
calls it makes, so cli's own time can be separated from the layers below.
Every output check is a gate: a failed check or an exception counts one
failed operation and the repetition carries on.
"""

import time

import delcodes  # noqa: F401  (set-up ends when this import returns)

T_READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from delcodes import (  # noqa: E402
    SearchOptions,
    Word,
    build_model,
    cli,
    decode_single,
    is_sdecc,
    max_sdecc_exact,
    read_lp,
    read_solution,
    solve_builtin,
    verify_solution,
    vt_code,
    write_lp,
)

CALIBRATION_STEPS = 200_000

# JSON keys each CLI command reports today; a change to them is a failure
CLI_KEYS = {
    "gen": {"bytes", "command", "families", "n", "path", "rows", "variables"},
    "solve": {
        "command", "model", "objective", "selected", "solution_path",
        "source", "status",
    },
    "verify": {
        "checked", "code_ok", "command", "foreign", "objective", "ok",
        "selected", "violated", "witness",
    },
}


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs now.

    On a shared host the speed can swing by tens of percent within
    seconds. Timing this loop at every stage boundary lets run.py rescale
    each stage by the host speed measured around it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CALIBRATION_STEPS):
        v = (i * 2654435761) & 0xFFFFF
        acc += (v & -v).bit_length() + v.bit_count()
        table[v & 1023] = acc
    return time.perf_counter() - start


class Repetition:
    """What one repetition records: spans, operation counts and stages."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int | None] = [None]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stages: list[tuple[float, float]] = []
        self._calibration: float | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record name, start, end and parent of one call into a layer."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1],
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {detail}")

    @contextlib.contextmanager
    def op(self, what: str):
        """One checked operation; a failure is counted, the run goes on."""
        self.attempted += 1
        try:
            yield
        except Exception:  # a gate: record the traceback and carry on
            self.fail(what, traceback.format_exc(limit=4))

    @contextlib.contextmanager
    def stage(self):
        """A timed part of the body, with the calibration loop timed at
        both ends. Stages hold all of the body's timed work."""
        if self._calibration is None:
            self._calibration = calibrate()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            after = calibrate()
            self.stages.append((elapsed, (self._calibration + after) / 2))
            self._calibration = after


def vt_class_size(n: int, a: int) -> int:
    """|VT_a(n)| by dynamic programming over syndromes, independent of vt."""
    m = n + 1
    counts = [1] + [0] * n
    for position in range(1, n + 1):
        counts = [counts[s] + counts[(s - position) % m] for s in range(m)]
    return counts[a]


# ------------------------------------------------------------------ prove


def run_prove(job: dict, rep: Repetition) -> None:
    expected = {int(n): m for n, m in job["max_size"].items()}
    # the small lengths take milliseconds, so they share one stage
    small = [n for n in job["lengths"] if n < job["tree_n"]]
    groups = [small] + [[n] for n in job["lengths"] if n >= job["tree_n"]]
    for group in groups:
        with rep.stage():
            for n in group:
                with rep.op(f"M({n})"):
                    with rep.span("sdecc.max_sdecc_exact", n=n) as attrs:
                        result = max_sdecc_exact(n)
                    attrs["nodes"] = result.nodes
                    check(result.proof_status == "optimal",
                          f"status {result.proof_status}")
                    check(result.size == expected[n],
                          f"size {result.size} != {expected[n]}")
                    with rep.span("sdecc.is_sdecc", n=n):
                        verdict = is_sdecc(result.witness)
                    check(bool(verdict), "witness is not a single-deletion code")
                    check(len(result.witness) == result.size,
                          "witness size differs")


# --------------------------------------------------------------- families


def run_families(job: dict, rep: Repetition) -> None:
    n = job["n"]
    for subset in job["subsets"]:
        families = {"C0", *subset}
        with rep.stage(), rep.op(f"n={n} {sorted(families)}"):
            with rep.span("constraints.build_model", n=n) as attrs:
                model = build_model(n, families)
            attrs["rows"] = len(model.constraints)
            with rep.span("ilp.solve_builtin", n=n):
                solution = solve_builtin(model)
            check(solution.solver_status == "optimal",
                  f"status {solution.solver_status}")
            check(solution.objective == job["max_size"],
                  f"objective {solution.objective} != {job['max_size']}")
            with rep.span("ilp.verify_solution", n=n):
                report = verify_solution(model, solution)
            check(report.ok, "verify_solution rejected the optimum")


# --------------------------------------------------------------- pipeline


def run_cli(rep: Repetition, command: str, argv: list[str], n: int) -> dict:
    out = io.StringIO()
    with rep.span(f"cli.{command}", n=n), contextlib.redirect_stdout(out):
        status = cli.main(["--json", *argv])
    check(status == 0, f"{command} exited with {status}")
    data = json.loads(out.getvalue())
    check(set(data) == CLI_KEYS[command], f"{command} JSON keys {sorted(data)}")
    return data


def replay(rep: Repetition, command: str, n: int, lp: Path, sol: Path,
           families: str, node_limit: int) -> None:
    """The library calls one CLI command makes, each in its own span."""
    shadow = lp.with_suffix(".replay.lp")
    with rep.span("cli.replay", command=command, n=n):
        if command == "gen":
            with rep.span("constraints.build_model", n=n) as attrs:
                model = build_model(n, set(families.split(",")))
            attrs["rows"] = len(model.constraints)
            with rep.span("ilp.write_lp", n=n) as attrs:
                with open(shadow, "w", encoding="utf-8", newline="\n") as sink:
                    attrs["bytes"] = write_lp(model, sink)
            return
        with rep.span("ilp.read_lp", n=n):
            with open(lp, encoding="utf-8") as source:
                model = read_lp(source)
        if command == "solve":
            with rep.span("ilp.solve_builtin", n=n):
                solution = solve_builtin(model, SearchOptions(node_limit=node_limit))
            with rep.span("cli.write_solution", n=n):
                body = [f"# delcodes solution objective={solution.objective} "
                        f"status={solution.solver_status}"]
                body.extend(f"{name} {solution.assignment[name]}"
                            for name in model.variable_names)
                shadow.with_suffix(".txt").write_text("\n".join(body) + "\n",
                                                     encoding="utf-8")
            return
        with rep.span("ilp.read_solution", n=n):
            with open(sol, encoding="utf-8") as source:
                solution = read_solution(source, model)
        with rep.span("ilp.verify_solution", n=n):
            verify_solution(model, solution)


def run_commands(job: dict, rep: Repetition, n: int) -> None:
    """gen -> solve -> verify through the CLI, with real files."""
    work = Path(job["workdir"])
    lp = work / f"model{n}.lp"
    sol = work / f"solution{n}.txt"
    families = job["families"]
    node_limit = job["node_limit"]
    steps = (
        ("gen", ["gen", "--n", str(n), "--families", families, "--out", str(lp)]),
        ("solve", ["solve", "--model", str(lp), "--node-limit", str(node_limit),
                   "--out", str(sol)]),
        ("verify", ["verify", "--model", str(lp), "--solution", str(sol)]),
    )
    solved = None
    for command, argv in steps:
        with rep.stage(), rep.op(f"{command} n={n}"):
            data = run_cli(rep, command, argv, n)
            if command == "gen":
                digest = hashlib.sha256(lp.read_bytes()).hexdigest()
                check(digest == job["lp_sha256"][str(n)],
                      f"LP bytes changed: sha256 {digest}")
            elif command == "solve":
                solved = data["objective"]
                check(data["status"] in ("optimal", "feasible"),
                      f"status {data['status']}")
                check(solved >= vt_class_size(n, 0),
                      f"objective {solved} below |VT_0({n})|")
            else:
                check(data["ok"] is True, "verify did not pass")
                check(data["objective"] == solved,
                      f"verified objective {data['objective']} != {solved}")
        if job["trace"]:
            replay(rep, command, n, lp, sol, families, node_limit)


def run_codec(job: dict, rep: Repetition, n: int, rng: random.Random) -> None:
    """Build a seed-drawn VT class, check it, decode seed-drawn deletions."""
    a = rng.randrange(n + 1)
    picks = [(rng.randrange(1 << 30), rng.randrange(n))
             for _ in range(job["decodes_per_length"])]
    code = None
    with rep.op(f"vt_code({n}, {a})"):
        with rep.span("vt.vt_code", n=n, a=a):
            built = vt_code(n, a)
        check(len(built) == vt_class_size(n, a), f"|VT_{a}({n})| wrong")
        with rep.span("sdecc.is_sdecc", n=n):
            verdict = is_sdecc(built)
        check(bool(verdict), f"VT_{a}({n}) is not a single-deletion code")
        code = built
    if code is None:
        for _ in picks:
            rep.attempted += 1
            rep.fail(f"decode n={n}", "no code to decode against")
        return
    values = code.values
    sent = [values[k % len(values)] for k, _ in picks]
    received = []
    for value, (_, i) in zip(sent, picks):
        bits = format(value, f"0{n}b")
        received.append(Word.parse(bits[:i] + bits[i + 1:]))
    got: list = []
    with rep.span("sdecc.decode_single", n=n, count=len(received)):
        for word in received:
            try:
                got.append(decode_single(code, word))
            except Exception as exc:  # counted below as a failed decode
                got.append(exc)
    for value, word, out in zip(sent, received, got):
        rep.attempted += 1
        if not isinstance(out, Word) or out.n != n or out.value != value:
            rep.fail(f"decode n={n} {word}", repr(out))


def run_pipeline(job: dict, rep: Repetition) -> None:
    for n in job["cli_lengths"]:
        run_commands(job, rep, n)
    rng = random.Random(job["rep_seed"])
    for n in job["codec_lengths"]:
        with rep.stage():
            run_codec(job, rep, n, rng)


WORKLOADS = {
    "prove": run_prove,
    "families": run_families,
    "pipeline": run_pipeline,
}


def main() -> None:
    job = json.loads(sys.stdin.read())
    rep = Repetition()
    if job["workload"] != "setup":
        WORKLOADS[job["workload"]](job, rep)
    result = {
        "t_ready": T_READY,
        "stages": rep.stages,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "errors": rep.errors,
        "spans": rep.spans,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
