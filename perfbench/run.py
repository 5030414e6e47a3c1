"""delcodes benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 36 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  prove     max_sdecc_exact(n) for n = 2..8, sizes against known M(n),
            witnesses re-checked with is_sdecc
  families  solve_builtin on n = 7 models: {C0} plus seed-drawn family subsets
  pipeline  CLI gen -> solve -> verify on the full C0..C6 models at n = 12
            and n = 13, then VT codes at n = 16, 18, 20 with seed-drawn
            residues and single deletions decoded by decode_single

The loop is closed with one client: repetitions run one after another, each
in a fresh interpreter (perfbench/worker.py), so module caches start empty
and peak RSS belongs to one repetition. A repetition starts only if it
should end within --seconds (at least min_reps run); every figure is the
median over them. Set-up time is timed from each spawn until `import
delcodes` returns. A shared host's speed can swing by tens of percent
within seconds, so a calibration loop is timed between the stages of every
repetition, and setup_s and wall_s are given in reference seconds: rescaled
to a host that runs that loop in CALIBRATION_REF_S. The raw times are
printed as setup_raw_s and wall_raw_s.

The last line of stdout is the JSON result. With --trace 0 its metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, taken from
spans, and the spans are written to perfbench/out/. --smoke runs every
workload at tiny sizes in seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "delcodes" / "__init__.py"
OUT = HERE / "out"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

HARD_DEADLINE_S = 170.0  # the whole run must end well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ALL_FAMILIES = "c0,c1,c2,c3,c4,c5,c6"

# Solve time at n = 7 depends mostly on C2 and C3 (measured: subsets with
# C2 0.13-0.28 s, with C3 but not C2 0.3-0.6 s, with neither 1.0-2.2 s).
# So each repetition solves {C0}, one seed-drawn subset with C2, one with C3
# but not C2, and a seed-drawn split of C1, C4, C5, C6 into two models:
# every repetition gets the same mix of easy and hard models, and seeds stay
# comparable.
_SUBSETS = [list(c) for k in range(1, 7)
            for c in itertools.combinations(("C1", "C2", "C3", "C4", "C5", "C6"), k)]
_REST = ("C1", "C4", "C5", "C6")
STRATA = (
    [[s] for s in _SUBSETS if "C2" in s],
    [[s] for s in _SUBSETS if "C3" in s and "C2" not in s],
    [[list(part), [f for f in _REST if f not in part]]
     for k in (1, 2) for part in itertools.combinations(_REST, k)
     if k == 1 or "C1" in part],
)

SIZES = {
    "full": {
        "min_reps": 3,
        "prove": {"lengths": list(range(2, 9)), "tree_n": 7, "root_n": 8},
        "families": {"n": 7},
        "pipeline": {"cli_lengths": [12, 13], "node_limit": 20,
                     "codec_lengths": [16, 18, 20], "decodes_per_length": 5000},
    },
    "smoke": {
        "min_reps": 1,
        "prove": {"lengths": list(range(2, 7)), "tree_n": 5, "root_n": 6},
        "families": {"n": 5},
        "pipeline": {"cli_lengths": [6, 7], "node_limit": 5,
                     "codec_lengths": [8, 10], "decodes_per_length": 200},
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# reference host speed: worker.calibrate() takes this many seconds there
CALIBRATION_REF_S = 0.07
RAW_FIGURES = {"setup_raw_s": "s", "wall_raw_s": "s", "calibration_s": "s"}
WORKLOAD_FIGURES = {
    "prove": {"sdecc_nodes": "count"},
    "families": {"models_per_s": "1/s"},
    "pipeline": {"cli_gen_s": "s", "cli_solve_s": "s", "cli_verify_s": "s",
                 "decodes_per_s": "1/s"},
}
PER_LAYER = {
    "sdecc.search_s": "s", "sdecc.nodes": "count", "sdecc.nodes_per_s": "1/s",
    "sdecc.root_s": "s", "ilp.solve_s": "s", "constraints.build_s": "s",
    "constraints.rows": "count", "ilp.write_s": "s", "ilp.lp_bytes": "bytes",
    "ilp.read_s": "s", "ilp.read_solution_s": "s", "ilp.verify_s": "s",
    "vt.vt_code_s": "s", "sdecc.is_sdecc_s": "s", "sdecc.decode_s": "s",
    "sdecc.decodes": "count", "cli.self_s": "s",
}


class WorkerFailed(Exception):
    """A repetition's interpreter exited badly or printed no result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(job: dict, env: dict[str, str], timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"repetition exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["t_ready"] - started
    return result


def make_job(workload: str, rep: int, rng: random.Random,
             strata: list[list[list[str]]], params: dict, trace: bool,
             workdir: Path) -> dict:
    job = {"workload": workload, "trace": trace, **params}
    if workload == "prove":
        job["max_size"] = EXPECTED["max_size"]
    elif workload == "families":
        job["max_size"] = EXPECTED["max_size"][str(params["n"])]
        job["subsets"] = [[]] + [m for s in strata for m in s[rep % len(s)]]
    elif workload == "pipeline":
        job["families"] = ALL_FAMILIES
        job["lp_sha256"] = EXPECTED["lp_sha256"]
        job["rep_seed"] = rng.getrandbits(32)
        job["workdir"] = str(workdir)
    return job


def durations(spans: list[dict]) -> dict[int, float]:
    return {s["id"]: s["end"] - s["start"] for s in spans}


def self_times(spans: list[dict]) -> dict[int, float]:
    """A span's duration minus the part its child spans cover."""
    own = durations(spans)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def total(spans: list[dict], times: dict[int, float], name: str,
          **match) -> float:
    return sum(times[s["id"]] for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in match.items()))


def attr_sum(spans: list[dict], name: str, key: str, **match) -> int:
    return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in match.items()))


def workload_figures(workload: str, result: dict, params: dict) -> dict:
    spans = result["spans"]
    dur = durations(spans)
    if workload == "prove":
        return {"sdecc_nodes": attr_sum(spans, "sdecc.max_sdecc_exact",
                                        "nodes", n=params["tree_n"])}
    if workload == "families":
        models = sum(1 for s in spans if s["name"] == "ilp.solve_builtin")
        return {"models_per_s": models / sum(t for t, _ in result["stages"])}
    decode_s = total(spans, dur, "sdecc.decode_single")
    decodes = attr_sum(spans, "sdecc.decode_single", "count")
    return {
        "cli_gen_s": total(spans, dur, "cli.gen"),
        "cli_solve_s": total(spans, dur, "cli.solve"),
        "cli_verify_s": total(spans, dur, "cli.verify"),
        "decodes_per_s": decodes / decode_s if decode_s else 0.0,
    }


def layer_figures(result: dict, params: dict) -> dict:
    """Per-layer metrics of one repetition; 0 where a layer was not called."""
    spans = result["spans"]
    dur = durations(spans)
    own = self_times(spans)
    tree = {"n": params.get("tree_n")}
    search_s = total(spans, own, "sdecc.max_sdecc_exact", **tree)
    nodes = attr_sum(spans, "sdecc.max_sdecc_exact", "nodes", **tree)
    commands = sum(total(spans, dur, f"cli.{c}") for c in ("gen", "solve", "verify"))
    replay_ids = {s["id"] for s in spans if s["name"] == "cli.replay"}
    replayed = sum(dur[s["id"]] for s in spans if s["parent"] in replay_ids)
    return {
        "sdecc.search_s": search_s,
        "sdecc.nodes": nodes,
        "sdecc.nodes_per_s": nodes / search_s if search_s else 0.0,
        "sdecc.root_s": total(spans, own, "sdecc.max_sdecc_exact",
                              n=params.get("root_n")),
        "ilp.solve_s": total(spans, own, "ilp.solve_builtin"),
        "constraints.build_s": total(spans, own, "constraints.build_model"),
        "constraints.rows": attr_sum(spans, "constraints.build_model", "rows"),
        "ilp.write_s": total(spans, own, "ilp.write_lp"),
        "ilp.lp_bytes": attr_sum(spans, "ilp.write_lp", "bytes"),
        "ilp.read_s": total(spans, own, "ilp.read_lp"),
        "ilp.read_solution_s": total(spans, own, "ilp.read_solution"),
        "ilp.verify_s": total(spans, own, "ilp.verify_solution"),
        "vt.vt_code_s": total(spans, own, "vt.vt_code"),
        "sdecc.is_sdecc_s": total(spans, own, "sdecc.is_sdecc"),
        "sdecc.decode_s": total(spans, own, "sdecc.decode_single"),
        "sdecc.decodes": attr_sum(spans, "sdecc.decode_single", "count"),
        "cli.self_s": commands - replayed if replay_ids else 0.0,
    }


def summarize(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles; quartiles equal the median below two samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FIGURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition minimum")
    args = parser.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    size = SIZES["smoke" if args.smoke else "full"]
    params = size[args.workload]
    env = worker_env()
    load_at_start = os.getloadavg()
    rng = random.Random(args.seed)
    strata = [rng.sample(s, len(s)) for s in STRATA]

    try:  # an untimed first import compiles the package's bytecode
        probe = spawn({"workload": "setup"}, env, HARD_DEADLINE_S)
    except WorkerFailed as exc:
        print(f"error: the package does not import: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    results: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    setup: list[float] = []
    start = time.perf_counter()
    laps: list[float] = []  # time of each import-only spawn plus repetition
    try:
        for rep in itertools.count():
            now = time.perf_counter()
            typical = statistics.median(laps) if laps else 0.0
            # start a repetition only if it should end within --seconds
            if rep >= size["min_reps"] and now - start + typical > args.seconds:
                break
            left = HARD_DEADLINE_S - (now - begin)
            if left < 1.5 * typical:
                break
            job = make_job(args.workload, rep, rng, strata, params,
                           bool(args.trace), workdir)
            try:  # an import-only spawn doubles the set-up samples
                setup.append(spawn({"workload": "setup"}, env, left)["setup_raw_s"])
                result = spawn(job, env, left)
            except WorkerFailed as exc:
                attempted += 1
                failed += 1
                errors.append(str(exc))
                continue
            finally:
                laps.append(time.perf_counter() - now)
            result["rep"] = rep
            results.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            errors.extend(result["errors"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_record = {
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "seed": args.seed,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "smoke": args.smoke,
    }
    print(f"delcodes benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(results)}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for line in errors[:5]:
        print("error " + line.replace("\n", " | "))

    setup += [r["setup_raw_s"] for r in results]
    # each stage is rescaled by the calibration around it; set-up, which has
    # no stages, by the median calibration of the whole run
    calibrations = [c for r in results for _, c in r["stages"]]
    scale = CALIBRATION_REF_S / statistics.median(calibrations) if calibrations else 0
    per_rep: dict[str, list[float]] = {
        "setup_s": [t * scale for t in setup] if scale else [],
        "wall_s": [sum(t * CALIBRATION_REF_S / c for t, c in r["stages"])
                   for r in results],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in results],
        "setup_raw_s": setup,
        "wall_raw_s": [sum(t for t, _ in r["stages"]) for r in results],
        "calibration_s": [statistics.median(c for _, c in r["stages"])
                          for r in results],
    }
    shown = {**END_TO_END, **RAW_FIGURES}
    shown.update(WORKLOAD_FIGURES[args.workload])
    if args.trace:
        shown.update(PER_LAYER)
    for r in results:
        figures = workload_figures(args.workload, r, params)
        if args.trace:
            figures.update(layer_figures(r, params))
        for key, value in figures.items():
            per_rep.setdefault(key, []).append(value)

    metrics: dict[str, dict] = {}
    lines = []
    for name, unit in shown.items():
        values = per_rep.get(name, [])
        if not values:
            continue
        med, q1, q3 = summarize(values)
        lines.append(f"  {name:<22} {med:>14.6g} {unit:<6} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  samples {len(values)}")
        if (name in PER_LAYER) if args.trace else (name in END_TO_END):
            metrics[name] = {"value": med, "unit": unit}
    print("\n".join(lines))
    fail_frac = failed / attempted if attempted else 1.0
    print(f"  {'fail_frac':<22} {fail_frac:>14.6g} {'1':<6} "
          f"({failed} of {attempted} operations)")

    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
    record = {"env": env_record, "params": params, "attempted": attempted,
              "failed": failed, "errors": errors, "metrics": metrics,
              "repetitions": [{k: v for k, v in r.items() if k != "spans"}
                              for r in results]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as sink:
            for r in results:
                for s in r["spans"]:
                    sink.write(json.dumps({**s, "rep": r["rep"]}) + "\n")

    correct = bool(results) and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
