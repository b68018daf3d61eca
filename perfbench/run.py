"""qlab benchmark: time real CLI commands to a checked verdict.

    python3 perfbench/run.py --workload ladder_sheaf --seed 1 --seconds 50 --trace 0

Run it from the root of a qlab checkout; it runs the program from `src/`.
Each workload is a fixed list of `qlab ... --json` commands on catalog
entries and on files generated from the seed (see gen.py).  Every command
is a fresh process, one at a time (a closed loop with one client), with
BLAS/OpenMP threads pinned to 1, and its verdict is checked against a known
answer (checks.py).

A run first times the set-up probes (interpreter start, `import qlab.cli`
and resolving the command's inputs) in sets, one probe per command, at
least SETUP_REPS sets and for at least SETUP_SECONDS; then it runs the
commands in rounds until `--seconds` have elapsed.  A figure of one round
sums each command's median over its runs.  `--trace 1` runs each command
under tracer.py as well as plain, and reports per-layer numbers instead.
`--workload all` runs every workload in turn.

Output: a table of every metric with its unit and sample count, a result
file under .perfbench_out/results/ (environment, input and stdout SHA-256
digests, the figures of every command run), and as the last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import TARGETS, summarise  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
SETUP_SECONDS = 5.0
RUN_LIMIT_S = 170.0          # a hung command is killed; the run then fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Command:
    name: str                # unique within the workload
    metric: str              # per-command wall-time metric it adds to
    args: list               # qlab arguments, without --json
    refs: list               # input refs the set-up probe resolves
    check: Callable


def workload_commands(workload: str, d: str, facts: dict) -> list[Command]:
    """The commands of one round; `d` is the directory of generated inputs."""
    groups = {"ladder_sheaf": ("ladder", "sheaf"), "search": ("search",)}[workload]
    return [cmd for g in groups for cmd in command_group(g, d, facts)]


def command_group(group: str, d: str, facts: dict) -> list[Command]:
    if group == "ladder":
        relab = f"{d}/relq3_relabelled.json"
        q2, q3 = f"{d}/qset_relq2.json", f"{d}/qset_relq3.json"
        return [
            Command("classify relq3", "classify_s", ["classify", "catalog:relq3"],
                    ["catalog:relq3"], checks.whole_ladder),
            Command("check relq3", "check_s", ["check", "catalog:relq3"],
                    ["catalog:relq3"], checks.quantale_ok),
            Command("classify egger8", "classify_s", ["classify", "catalog:egger8"],
                    ["catalog:egger8"], checks.egger8_verdict),
            Command("classify r4", "classify_s", ["classify", "catalog:r4"],
                    ["catalog:r4"], checks.r4_verdict),
            Command("classify relabelled relq3", "classify_s", ["classify", relab],
                    [relab], checks.whole_ladder),
            Command("complete qset/relq2", "complete_s", ["complete", q2], [q2],
                    checks.completion_consistent),
            Command("sections qset/relq2", "sections_s", ["sections", q2], [q2],
                    checks.sections_bridge("complete qset/relq2")),
            Command("complete qset/relq3", "complete_s", ["complete", q3], [q3],
                    checks.completion_consistent),
            Command("sections qset/relq3", "sections_s", ["sections", q3], [q3],
                    checks.sections_bridge("complete qset/relq3")),
        ]
    if group == "sheaf":
        a3, a1 = f"{d}/z3_free3.json", f"{d}/z3_free1.json"
        return [
            Command("sheafify pair3_regular", "sheafify_s",
                    ["sheafify", "catalog:pair3_regular"], ["catalog:pair3_regular"],
                    checks.sheafify_ok),
            Command("verify-equivalence z3", "verify_s",
                    ["verify-equivalence", "catalog:z3", a3, a1],
                    ["catalog:z3", a3, a1], checks.z3_counts),
        ]
    if group == "search":
        cube, diamond = f"{d}/cube.json", f"{d}/diamond.json"
        return [
            Command("search cube", "search_s",
                    ["search", "--lattice", cube, "--cap", "8", "--dedup",
                     "--require", "stably_supported,!modular"], [cube], checks.cube_search),
            Command("search diamond", "search_s",
                    ["search", "--lattice", diamond, "--trivial-involution",
                     "--fix-unit", str(facts["diamond_unit"]),
                     "--require", "stably_supported,!inverse_quantal_frame"],
                    [diamond], checks.diamond_search),
        ]
    raise ValueError(group)


WORKLOADS = ("ladder_sheaf", "search")

# The end-to-end metrics of the last output line; every workload has them.
# The per-command sums exist on one workload each, so they are printed only.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "found": "count",
               "carrier": "count", "homs": "count"}
EXTRA_LAYER = {"search.leaves": "count", "search.pruned_assoc": "count",
               "search.useful_ratio": "ratio", "search.leaves_per_s": "1/s",
               "cli.import_s": "s", "cli.cpu_s": "s", "trace.overhead_frac": "ratio",
               "trace.unattributed_s": "s"}


def layer_units() -> dict:
    units = {f"{span}.{field}": FIELD_UNITS[field]
             for _, _, span, fields in TARGETS for field in fields}
    units.update(EXTRA_LAYER)
    return units


# ------------------------------------------------------------ environment

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QLAB_"))}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "threads": {v: "1" for v in THREAD_VARS}}


# ------------------------------------------------------------------ runner

class Runner:
    """Runs one child at a time and records what each one cost."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list) -> dict:
        """Run argv to completion; wall time, rusage, exit code, stdout."""
        out_path = os.path.join(self.work, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        os.remove(out_path)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout}

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def run_setup(runner: Runner, cmds: list[Command]) -> tuple[list, int]:
    """Sets of probes, at least SETUP_REPS of them and for at least
    SETUP_SECONDS; (per-set totals, failed probes)."""
    totals, failed = [], 0
    while len(totals) < SETUP_REPS or sum(totals) < SETUP_SECONDS:
        total = 0.0
        for cmd in cmds:
            res = runner.spawn([sys.executable, os.path.join(HERE, "probe.py"), *cmd.refs])
            failed += res["code"] != 0
            total += res["wall_s"]
        totals.append(total)
        if runner.out_of_time():
            break
    return totals, failed


def run_command(runner: Runner, cmd: Command, traced: bool, seen: dict) -> dict:
    """Run one command once, plain or traced, and check its verdict."""
    argv = [sys.executable, "-m", "qlab.cli", *cmd.args, "--json"]
    spans_path = os.path.join(runner.work, "spans.json")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--",
                *cmd.args, "--json"]
    res = runner.spawn(argv)
    try:
        report = json.loads(res["stdout"])
        problems = cmd.check(res["code"], report, seen)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        report, problems = {}, [f"exit {res['code']}, unreadable report: {exc!r}"]
    seen[cmd.name] = report
    row = {"command": cmd.name, "metric": cmd.metric, "traced": traced,
           "code": res["code"], "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
           "rss_mb": res["rss_mb"], "stdout_sha256": hashlib.sha256(res["stdout"]).hexdigest(),
           "problems": problems}
    if cmd.metric == "search_s":
        row["search_stats"] = report.get("stats", {})
    if traced:
        row["trace"] = read_spans(spans_path)
    return row


def run_rounds(runner: Runner, cmds: list[Command], kinds: list, seconds: float) -> list:
    """Run the commands in rounds until `seconds` have passed; one row per run.

    In a round every command runs once of each kind (plain, and traced in a
    traced run; the order of kinds alternates between rounds, so drift hits
    both alike).  The first round always runs whole.  After that a command
    starts only if its previous duration still fits in the time left, so a
    run measures for about `seconds` and no longer.
    """
    rows: list = []
    seen: dict = {}
    last: dict = {}
    t0 = time.monotonic()
    for rnd in itertools.count():
        for cmd in cmds:
            for traced in (kinds if rnd % 2 == 0 else kinds[::-1]):
                key = (cmd.name, traced)
                if key in last and (time.monotonic() - t0 + last[key] > seconds
                                    or runner.out_of_time()):
                    return rows
                rows.append(run_command(runner, cmd, traced, seen))
                last[key] = rows[-1]["wall_s"]


def read_spans(path: str) -> dict | None:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    os.remove(path)
    return {"import_s": doc["import_s"], "spans": summarise(doc["spans"])}


# -------------------------------------------------------------- metrics
#
# A figure "of one round" is the sum over commands of each command's median
# over its runs, so a slow repeat of one command does not move the others.

def by_command(rows: list, traced: bool) -> dict:
    out: dict = {}
    for r in rows:
        if r["traced"] == traced:
            out.setdefault(r["command"], []).append(r)
    return out


def round_sum(groups: dict, value: Callable) -> float:
    """Sum over commands of the median of value(row) over that command's runs."""
    return sum(statistics.median(value(r) for r in rs) for rs in groups.values())


def end_to_end(rows: list, setup: list) -> dict:
    plain = by_command(rows, traced=False)
    n = sum(len(rs) for rs in plain.values())
    m = {"wall_s": (round_sum(plain, lambda r: r["wall_s"]), n),
         "setup_s": (statistics.median(setup), len(setup)),
         "peak_rss_mb": (max(statistics.median(r["rss_mb"] for r in rs)
                             for rs in plain.values()), n)}
    for metric in dict.fromkeys(rs[0]["metric"] for rs in plain.values()):
        mine = {c: rs for c, rs in plain.items() if rs[0]["metric"] == metric}
        m[metric] = (round_sum(mine, lambda r: r["wall_s"]),
                     sum(len(rs) for rs in mine.values()))
    return m


def trace_values(r: dict) -> dict:
    """Per-layer figures of one traced run of one command."""
    tr = r.get("trace") or {"import_s": 0.0, "spans": {}}
    vals = {"cli.import_s": tr["import_s"]}
    attributed = tr["import_s"]
    for span, row in tr["spans"].items():
        attributed += row["self_s"]
        for field, value in row.items():
            vals[f"{span}.{field}"] = value
    vals["trace.unattributed_s"] = r["wall_s"] - attributed
    return vals


def layer_metrics(rows: list) -> dict:
    """Per-layer figures of one round, from the traced runs; ratios to plain."""
    plain, traced = by_command(rows, traced=False), by_command(rows, traced=True)
    values = {c: [trace_values(r) for r in rs] for c, rs in traced.items()}
    out = {key: sum(statistics.median(v.get(key, 0) for v in vs) for vs in values.values())
           for key in layer_units()}

    leaves = pruned = 0
    searches = {c: rs for c, rs in plain.items() if rs[0]["metric"] == "search_s"}
    for rs in searches.values():
        st = rs[0].get("search_stats") or {}
        leaves += st.get("candidates", 0)
        pruned += st.get("pruned_assoc", 0)
    search_s = round_sum(searches, lambda r: r["wall_s"])
    out.update({
        "search.leaves": leaves, "search.pruned_assoc": pruned,
        "search.useful_ratio": (leaves - pruned) / leaves if leaves else 0.0,
        "search.leaves_per_s": leaves / search_s if search_s else 0.0,
        "cli.cpu_s": round_sum(plain, lambda r: r["cpu_s"]),
        "trace.overhead_frac": (round_sum(traced, lambda r: r["wall_s"])
                                / round_sum(plain, lambda r: r["wall_s"]) - 1),
    })
    return out


# ------------------------------------------------------------------- main

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        inputs = os.path.relpath(os.path.join(work, "inputs"), ROOT)
        digests, facts = gen.write_inputs(seed, os.path.join(ROOT, inputs))
        cmds = workload_commands(workload, inputs, facts)
        runner = Runner(work, start + RUN_LIMIT_S)
        setup, setup_failed = run_setup(runner, cmds)
        rows = run_rounds(runner, cmds, [False, True] if trace else [False], seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{r['command']}: {msg}" for r in rows for msg in r["problems"]]
    ran = {(r["command"], r["traced"]) for r in rows}
    complete = (len(setup) >= SETUP_REPS
                and all((c.name, t) in ran for c in cmds for t in {False, trace}))
    attempted = len(rows) + len(setup) * len(cmds)
    failed = sum(bool(r["problems"]) for r in rows) + setup_failed
    e2e = end_to_end(rows, setup)
    layers = layer_metrics(rows) if trace else {}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(seed), "input_sha256": digests,
            "stdout_sha256": {c.name: sorted({r["stdout_sha256"] for r in rows
                                              if r["command"] == c.name}) for c in cmds},
            "attempted": attempted, "failed": failed, "complete": complete,
            "problems": problems, "end_to_end": e2e, "per_layer": layers,
            "runs": rows, "setup_s": setup}


def report_lines(res: dict) -> list[str]:
    lines = [f"workload {res['workload']}  seed {res['seed']}  "
             f"trace {int(res['trace'])}  src {res['environment']['src_sha256'][:12]}  "
             f"nproc {res['environment']['nproc']}"]
    for name, (value, n) in res["end_to_end"].items():
        unit = END_TO_END.get(name, "s")
        lines.append(f"  {name:<28} {value:>14.4f} {unit:<6} n={n}")
    lines.append(f"  {'failed_frac':<28} {res['failed'] / res['attempted']:>14.4f} "
                 f"{'ratio':<6} n={res['attempted']}")
    units = layer_units()
    for name, value in res["per_layer"].items():
        lines.append(f"  {name:<40} {value:>16.10g} {units[name]}")
    for name, r in by_command(res["runs"], traced=True).items():
        spans = (r[0].get("trace") or {}).get("spans", {})
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:3]
        lines.append(f"  top self time, {name} ({r[0]['wall_s']:.2f} s): "
                     + ", ".join(f"{k} {v['self_s']:.2f} s" for k, v in top))
    lines += [f"  FAILED {msg}" for msg in res["problems"]]
    return lines


def summary(res: dict) -> dict:
    if res["trace"]:
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res["end_to_end"][k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0 and res["complete"],
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qlab", "cli.py")):
        print(f"error: no qlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        print("\n".join(report_lines(res)))
        print(f"  result file {os.path.relpath(path, ROOT)}")
        results.append(summary(res))
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
