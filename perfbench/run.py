"""End-to-end benchmark of real `riffmix tvd` commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one `riffmix tvd` command in a fresh `python -m riffmix.cli`
process with `src` on `PYTHONPATH`, run one at a time (closed loop, one
client).  A repetition runs all ops of the workload in order; the run
repeats it for about `--seconds` seconds and reports medians.  Commands
are kept to about a second each, so a run repeats them many times.

Workloads (why each one is here):

- `hist-table`: Blackjack1 `mc-hist`, 2 arrangements of 1e6 samples.
  Every label has 4 cards, so histograms take the permutation-table
  path.  Two commands share one fresh cache dir per repetition: shuffle
  count 5 writes both histograms, shuffle count 6 reads them back.
- `hist-argsort-range`: RedBlack1 `mc-hist --shuffles 3..5` with no cache.
  26-card labels force the argsort path, and each histogram is drawn
  once per shuffle count.
- `exact-enum`: one command per exact route, picked by the program from
  the input size: the n <= 10 permutation sweep with its `Fraction` sum
  (`--method exact` on 9 cards), per-pair vectorized enumeration and
  per-pair plain enumeration (`--method mc-exact` on 11 and 12 cards).
  `--method exact` on any 11-card deck enumerates all 11! maps, about
  7 s, too long to repeat within a run, so the vectorized route is
  reached through a few sampled pairs instead.
- `normal-target`: Bridge1 `mc-normal --shuffles 3..8`, the fixed-target
  workload where the moment formulas do the work.

`--trace 0` prints the end-to-end metrics: `wall_s` (the summed wall
time of the workload's commands), `setup_s` (the time of a fresh
interpreter that imports the CLI and resolves the workload's scenario,
then stops on an empty shuffle range before any engine call) and
`peak_rss_mb` (median over repetitions of the highest child peak RSS).

The two times are given at a fixed reference speed.  On the shared
2-vCPU host of baseline.json the speed of every process drifts by up to
2x, within seconds and over minutes, without steal time, so raw times of
runs of the same code spread by 10-30%.  Every measured process (each
command and each set-up probe) therefore runs between two runs of a fixed
calibration program (`CALIBRATION`), and its time is divided by the mean
of those two and multiplied by `CALIBRATION_REF_S`.  `wall_s` sums, over
the commands, the median of each command's scaled times; `setup_s` is
the median scaled probe.  Raw medians are printed on stderr and reported
as `host.*` per-layer metrics.

`--trace 1` runs the same untraced repetitions, then one traced
repetition (ops go through `tracer.py`, with no calibrations), and prints
the per-layer metrics named in BENCHMARK.json; `trace.overhead_s` is the
traced raw wall time minus the untraced raw median.  `baseline.json`
records the figures at the commit that added this benchmark, with the
host they were measured on.

Every op's output is checked: CSV v1 with one row per requested shuffle
count, fields echoing the request, a finite value in [0, 1], and
err96 = sqrt(10/k).  Exact rows must equal the stored references in
`references.json` (cross-checked by `test_references.py`).  Monte Carlo
rows whose command has a stored reference (the ops of `--seed 0`) and
differ from it are counted as `rows_changed` on stderr, not as failures.
Each repetition must print the same bytes as the first.

Child RSS and CPU come from each child's own rusage (`os.wait4`).
`RIFFMIX_CACHE_DIR` is removed from the children's environment except
for `hist-table`, which gets a fresh directory per repetition.  No op
passes `--threads`, and every op's `--seed` is derived from the
benchmark's `--seed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run must end well inside three minutes, the first one too.
BUDGET_S = 165.0
SETUP_PROBES = 7

# A fixed stand-in for one command, run between every two measured
# processes: a fresh interpreter imports numpy, sorts and counts a million
# floats and runs a Python loop.  It belongs to the benchmark, not to
# riffmix, so its cost does not change with the code under test.
CALIBRATION = """
import numpy as np
x = np.random.default_rng(0).random(1_000_000)
np.argsort(x)
np.bincount((x * 64).astype(np.int64))
s = 0
for i in range(400_000):
    s += i * i
"""
# The reference speed: the calibration takes this long.  It took 0.21 to
# 0.42 s on the host of baseline.json as that host's speed drifted.  A
# measured time t between calibrations that took c0 and c1 is reported
# as t / ((c0 + c1) / 2) * CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.3

CSV_TAG = "# riffmix csv v1"
RESULT_HEADER = "scenario,shuffles,method,value,k,l,seed,err96,err999996"
METHOD_FIELD = {
    "exact": "exact",
    "mc-exact": "mc-exact-backend",
    "mc-hist": "mc-histogram",
    "mc-normal": "normal",
}


@dataclass(frozen=True)
class Op:
    """One `riffmix tvd` command of a workload."""

    label: str
    source: tuple[str, ...]  # --scenario X, or --deck D --kind K
    scenario: str  # the scenario field the rows must carry
    method: str
    shuffles: str
    k: int | None = None
    hist_samples: int | None = None

    def argv(self, seed: int) -> list[str]:
        args = ["tvd", *self.source, "--method", self.method]
        args += ["--shuffles", self.shuffles]
        if self.method != "exact":
            args += ["--k", str(self.k), "--seed", str(seed)]
        if self.hist_samples is not None:
            args += ["--hist-samples", str(self.hist_samples)]
        return args

    def shuffle_counts(self) -> list[int]:
        lo, _, hi = self.shuffles.partition("..")
        return list(range(int(lo), int(hi or lo) + 1))


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    cache: bool = False


def _named(name: str) -> tuple[str, ...]:
    return ("--scenario", name)


def _deck(expr: str) -> tuple[str, ...]:
    return ("--deck", expr, "--kind", "fixed-source")


def _custom(expr: str) -> str:
    return "custom-" + expr.replace(",", "+")


WORKLOADS = {
    "hist-table": Workload(
        ops=(
            Op("write", _named("Blackjack1"), "Blackjack1", "mc-hist", "5",
               k=2, hist_samples=10**6),
            Op("read", _named("Blackjack1"), "Blackjack1", "mc-hist", "6",
               k=2, hist_samples=10**6),
        ),
        cache=True,
    ),
    "hist-argsort-range": Workload(
        ops=(
            Op("range", _named("RedBlack1"), "RedBlack1", "mc-hist", "3..5",
               k=2, hist_samples=100_000),
        ),
    ),
    "exact-enum": Workload(
        ops=(
            Op("sweep", _deck("1^2,2^2,3^2,4^2,5"),
               _custom("1^2,2^2,3^2,4^2,5"), "exact", "1..4"),
            Op("vectorized", _deck("1^3,2^8"), _custom("1^3,2^8"),
               "mc-exact", "1..4", k=6),
            Op("plain", _deck("1^4,2^4,3^4"), _custom("1^4,2^4,3^4"),
               "mc-exact", "2..4", k=12),
        ),
    ),
    "normal-target": Workload(
        ops=(
            Op("range", _named("Bridge1"), "Bridge1", "mc-normal", "3..8",
               k=30),
        ),
    ),
}


def op_seed(seed: int, workload: str) -> int:
    """The `--seed` every op of a workload gets under benchmark seed `seed`.

    Ops of one workload share it, so `hist-table`'s second command draws
    the same arrangements and histogram seeds as the first.
    """
    digest = hashlib.sha256(f"{seed}/{workload}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RIFFMIX_CACHE_DIR", None)
    if cache_dir is not None:
        env["RIFFMIX_CACHE_DIR"] = str(cache_dir)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(
    argv: list[str], env: dict[str, str], work: Path, deadline: float
) -> Outcome:
    """Run one process to completion; time it and read its own rusage.

    The child is killed if it outlives `deadline`.  It is waited for
    without being reaped first, so the kill timer can never signal a
    reused pid, then reaped with `os.wait4` for its rusage.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # os.kill, not proc.kill: the latter polls and could reap the
        # child before wait4 reads its rusage.
        timer = threading.Timer(
            max(1.0, deadline - perf_counter()),
            os.kill, (proc.pid, signal.SIGKILL),
        )
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - t0
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        returncode=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_argv(args: list[str], spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "riffmix.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *args]


# ---------------------------------------------------------------------------
# Output checks


def load_references() -> dict[str, list[str]]:
    with open(HERE / "references.json") as fh:
        return json.load(fh)


def check_rows(op: Op, seed: int, stdout: str, reference: list[str] | None):
    """Problems with one op's output, and how many Monte Carlo rows differ
    from the stored reference."""
    lines = stdout.splitlines()
    counts = op.shuffle_counts()
    if lines[:2] != [CSV_TAG, RESULT_HEADER]:
        return ["missing CSV v1 tag or header"], 0
    rows = lines[2:]
    if len(rows) != len(counts):
        return [f"{len(rows)} rows for {len(counts)} shuffle counts"], 0
    exact = op.method == "exact"
    if exact and reference is None:
        return ["no stored reference for an exact op"], 0
    problems: list[str] = []
    changed = 0
    for i, (row, shuffles) in enumerate(zip(rows, counts)):
        f = row.split(",")
        if len(f) != 9:
            problems.append(f"row {i}: {len(f)} fields")
            continue
        want = {
            0: op.scenario,
            1: str(shuffles),
            2: METHOD_FIELD[op.method],
            4: "" if exact else str(op.k),
            5: "" if op.hist_samples is None else str(op.hist_samples),
            6: "" if exact else str(seed),
        }
        for col, expect in want.items():
            if f[col] != expect:
                problems.append(f"row {i}: field {col} is {f[col]!r}, want {expect!r}")
        try:
            value = float(f[3])
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"row {i}: value {f[3]!r} outside [0, 1]")
        if exact:
            if f[7]:
                problems.append(f"row {i}: exact row carries err96")
        else:
            try:
                err96 = float(f[7])
            except ValueError:
                err96 = math.nan
            if not math.isclose(err96, math.sqrt(10.0 / op.k), rel_tol=1e-12):
                problems.append(f"row {i}: err96 {f[7]!r} is not sqrt(10/k)")
        if reference is not None and i < len(reference) and row != reference[i]:
            if exact:
                problems.append(f"row {i}: {row!r} differs from reference")
            else:
                changed += 1
    return problems, changed


# ---------------------------------------------------------------------------
# Repetitions


def scaled(t: float, before: float, after: float) -> float:
    """`t` in seconds of the reference host, from the calibrations
    measured just before and just after it."""
    return t / ((before + after) / 2) * CALIBRATION_REF_S


@dataclass
class Rep:
    outcomes: list[Outcome]
    failed: int
    # Each op's wall time, scaled by its neighbouring calibrations.
    scaled_s: list[float]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


class Runner:
    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = op_seed(seed, name)
        self.work = work
        self.deadline = deadline
        self.references = load_references()
        self.first_stdout: dict[str, str] = {}
        self.rows_changed = 0
        self.reps = 0
        self.calibrations: list[float] = []
        self.setup_raw: list[float] = []
        self.setup_scaled: list[float] = []

    def calibrate(self) -> float:
        res = run_child(
            [sys.executable, "-c", CALIBRATION], child_env(), self.work, self.deadline
        )
        if res.returncode != 0:
            raise RuntimeError(f"calibration exited {res.returncode}:\n{res.stderr}")
        self.calibrations.append(res.wall_s)
        return res.wall_s

    def timed_setup(self) -> float:
        """One set-up probe between two calibrations; returns the later
        calibration, so a following measurement can share it."""
        before = self.calibrate()
        t = self.setup_probe()
        after = self.calibrate()
        self.setup_raw.append(t)
        self.setup_scaled.append(scaled(t, before, after))
        return after

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter that imports the CLI and
        resolves this workload's scenario; an empty shuffle range then
        stops it (exit code 2) before any engine call."""
        op = self.workload.ops[0]
        args = ["tvd", *op.source, "--shuffles", "1..0"]
        res = run_child(cli_argv(args), child_env(), self.work, self.deadline)
        if res.returncode != 2:
            raise RuntimeError(
                f"set-up probe exited {res.returncode}, want 2:\n{res.stderr}"
            )
        return res.wall_s

    def rep(self, spans_dir: Path | None = None) -> Rep:
        """Run every op of the workload once, in order.  An untraced
        repetition starts with a timed set-up probe and runs a calibration
        after every op."""
        self.reps += 1
        cache_dir = None
        if self.workload.cache:
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        env = child_env(cache_dir)
        outcomes, failed, scaled_s = [], 0, []
        timed = spans_dir is None
        if timed:
            before = self.timed_setup()
        for i, op in enumerate(self.workload.ops):
            args = op.argv(self.seed)
            spans = None if spans_dir is None else spans_dir / f"{i}.json"
            res = run_child(cli_argv(args, spans), env, self.work, self.deadline)
            outcomes.append(res)
            if timed:
                after = self.calibrate()
                scaled_s.append(scaled(res.wall_s, before, after))
                before = after
            problems: list[str] = []
            if res.returncode != 0:
                problems.append(f"exit code {res.returncode}")
            else:
                ref = self.references.get(" ".join(args))
                problems, changed = check_rows(op, self.seed, res.stdout, ref)
                if self.reps == 1:
                    self.rows_changed += changed
            first = self.first_stdout.setdefault(op.label, res.stdout)
            if res.stdout != first:
                problems.append("output differs from the first repetition")
            if problems:
                failed += 1
                note = "; ".join(problems)
                print(f"op {self.name}/{op.label} failed: {note}", file=sys.stderr)
                print(res.stderr[-2000:], file=sys.stderr)
        return Rep(outcomes, failed, scaled_s)

    def csv_digest(self) -> str:
        h = hashlib.sha256()
        for op in self.workload.ops:
            h.update(self.first_stdout.get(op.label, "").encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def op_layers(path: Path) -> Counter:
    """Counts and times per layer for one traced command."""
    with open(path) as fh:
        d = json.load(fh)
    names = d["names"]
    kind, parent = d["kind"], d["parent"]
    dur = [e - s for s, e in zip(d["start"], d["end"])]
    attrs = {int(k): v for k, v in d["attrs"].items()}
    child = [0.0] * len(kind)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = Counter({"trace.unmeasured": len(d["unmeasured"])})
    seen: dict[str, set] = {}
    # Samples a cache load already held, per histogram call.
    served: dict[int, int] = {}
    for i, ix in enumerate(kind):
        name, a = names[ix], attrs.get(i, {})
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur[i] - child[i]
        if "key" in a:
            keys = seen.setdefault(name, set())
            if a["key"] in keys:
                out[f"{name}.repeats"] += 1
            elif name == "descentpoly.exact":
                out[f"{name}.computed"] += 1
                out["exact.perms"] += a["perms"] or 0
                out["exact.busy_s"] += dur[i]
            keys.add(a["key"])
        if name == "descentpoly.sweep" and a:
            out["sweep.maps"] += a["maps"] or 0
            out["sweep.busy_s"] += dur[i]
        if name == "cache.load" and a.get("completed") is not None:
            out["cache.load.hits"] += 1
            samples = attrs.get(parent[i], {}).get("samples")
            if samples and a["streams"]:
                base, extra = divmod(samples, a["streams"])
                done = a["completed"]
                served[parent[i]] = done * base + min(done, extra)
    # Fully cache-served histogram calls are left out of the rate.
    for i, ix in enumerate(kind):
        if names[ix] == "descentpoly.hist" and i in attrs:
            drawn = (attrs[i]["samples"] or 0) - served.get(i, 0)
            if drawn > 0:
                out["hist.drawn"] += drawn
                out["hist.busy_s"] += dur[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    runner: Runner, per_op: list[Counter], plain: list[Rep], traced: Rep
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; `plain` holds the
    untraced repetitions of the same run."""
    ops = runner.workload.ops
    total = Counter()
    for stats in per_op:
        total.update(stats)

    def g(key: str, stats: Counter = total) -> float:
        return stats[key]

    m: dict[str, float] = {
        "cli.self_s": g("cli.main.self_s"),
        "cli.cpu_s": statistics.median(r.cpu_s for r in plain),
        "trace.overhead_s": traced.wall_s - statistics.median(r.wall_s for r in plain),
        "trace.unmeasured": max(s["trace.unmeasured"] for s in per_op),
        "descentpoly.hist.samples": g("hist.drawn"),
        "descentpoly.hist.samples_per_s": _ratio(g("hist.drawn"), g("hist.busy_s")),
        "descentpoly.sweep.maps_per_s": _ratio(g("sweep.maps"), g("sweep.busy_s")),
        "cache.load.hits": g("cache.load.hits"),
    }
    for layer in (
        "tvd.mc_tvd", "descentpoly.hist", "descentpoly.sweep",
        "descentpoly.eval", "approx.moments", "approx.normal",
        "deck.sample", "rng.substream", "cache.load", "cache.store",
    ):
        m[f"{layer}.calls"] = g(f"{layer}.calls")
        m[f"{layer}.self_s"] = g(f"{layer}.self_s")
    for layer in ("descentpoly.hist", "descentpoly.sweep", "approx.moments"):
        m[f"{layer}.repeat_ratio"] = _ratio(g(f"{layer}.repeats"), g(f"{layer}.calls"))
    # Exact routes are reported per command so they do not blend.
    by_label = {op.label: stats for op, stats in zip(ops, per_op)}
    for route in ("vectorized", "plain"):
        stats = by_label.get(route, Counter())
        pre = f"descentpoly.exact.{route}"
        m[f"{pre}.calls"] = g("descentpoly.exact.calls", stats)
        m[f"{pre}.computed"] = g("descentpoly.exact.computed", stats)
        m[f"{pre}.self_s"] = g("descentpoly.exact.self_s", stats)
        m[f"{pre}.perms_per_s"] = _ratio(g("exact.perms", stats), g("exact.busy_s", stats))
    m["tvd.exact_tvd_small.sweep.self_s"] = g(
        "tvd.exact_tvd_small.self_s", by_label.get("sweep", Counter())
    )
    m["host.calibration_s"] = statistics.median(runner.calibrations)
    m["host.wall_raw_s"] = statistics.median(r.wall_s for r in plain)
    m["host.setup_raw_s"] = statistics.median(runner.setup_raw)
    return m


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if not (SRC / "riffmix" / "cli.py").is_file():
        print(f"riffmix sources not found under {SRC}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        runner = Runner(args.workload, args.seed, work, started + BUDGET_S)
        try:
            # Warm-up: the first import may write bytecode.
            runner.setup_probe()
            runner.calibrate()
            runner.calibrations.clear()
            # Repeat for about --seconds, but stop early rather than run
            # past the time budget.
            t0 = perf_counter()
            reps = [runner.rep()]
            rep_s = perf_counter() - t0
            planned = max(1, round(args.seconds / rep_s))
            while len(reps) < planned:
                if started + BUDGET_S - perf_counter() < 3 * rep_s:
                    break
                reps.append(runner.rep())
            while len(runner.setup_scaled) < SETUP_PROBES:
                runner.timed_setup()
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        if args.trace:
            spans_dir = work / "spans"
            spans_dir.mkdir()
            traced = runner.rep(spans_dir)
            # A command that died before writing spans is already a
            # failed op; its layers read as zero.
            paths = [spans_dir / f"{i}.json" for i in range(len(runner.workload.ops))]
            per_op = [op_layers(p) if p.exists() else Counter() for p in paths]
            values = layer_metrics(runner, per_op, reps, traced)
            reps.append(traced)
            wanted = spec["per_layer"]
        else:
            n_ops = len(runner.workload.ops)
            values = {
                "wall_s": sum(
                    statistics.median(r.scaled_s[i] for r in reps)
                    for i in range(n_ops)
                ),
                "setup_s": statistics.median(runner.setup_scaled),
                "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
            }
            wanted = spec["end_to_end"]

    attempted = sum(len(r.outcomes) for r in reps)
    failed = sum(r.failed for r in reps)
    print(
        f"workload={args.workload} op_seed={runner.seed} "
        f"op_walls_s={[[round(o.wall_s, 3) for o in r.outcomes] for r in reps]} "
        f"scaled_s={[[round(t, 4) for t in r.scaled_s] for r in reps]} "
        f"setup_s={[round(t, 3) for t in runner.setup_raw]} "
        f"setup_scaled_s={[round(t, 4) for t in runner.setup_scaled]} "
        f"calibration_s={[round(t, 3) for t in runner.calibrations]} "
        f"csv_sha256={runner.csv_digest()} rows_changed={runner.rows_changed}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
