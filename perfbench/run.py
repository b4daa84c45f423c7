"""cflevels benchmark: the CLI on seeded planted data, end to end or traced.

    python3 perfbench/run.py --workload kfold-sweep --seed 1 --seconds 32 --trace 0

Run from the root of a cflevels checkout (``src/`` and ``tests/`` present).
Each run generates its ratings file from ``tests/_synth.planted_records``
with the given seed, then:

* ``--trace 0`` times fresh ``cflevels`` child processes for ``--seconds``
  and reports the median wall time, CPU time and predictions per second,
  the median peak RSS, and the median set-up time (import + parse + build
  in a fresh process). Times are scaled to a reference host speed: a fixed
  calibration child runs before and after each timed child (see
  ``Calibration``).
* ``--trace 1`` calls ``cflevels.cli.main`` in this process with
  ``--jobs 1``, once plainly and once with every layer boundary wrapped (see
  ``tracer.py``), and reports the per-layer metrics and the tracing
  overhead. The full trace is written to ``.perfbench-traces/``.

Every run checks its outputs: exit code 0, empty stderr, stdout bytes equal
to the recorded reference for the (workload, data) pair in
``reference.json`` (or, for data with no recorded reference, equal across
the run and, on kfold-sweep, equal to a ``--jobs 1`` run), a well-formed
report, and, when traced, a seeded sample of predictions and rankings
matching the brute-force oracles in ``tests/oracles.py`` within 1e-9.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
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
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
REFERENCE_FILE = BENCH / "reference.json"
TRACE_DIR = ROOT / ".perfbench-traces"

SPLIT_SEED = 42
TRAIN_RATIO = 0.8
SCALE = (1.0, 5.0)
MIN_REPS = 3          # timed CLI runs per --trace 0 run, at least
SETUP_REPS = 11       # fresh set-up processes per run; setup_s is their median
CHILD_TIMEOUT_S = 60
ORACLE_TOL = 1e-9
CSV_HEADER = "method,k,params,mae,nmae,rmse,precision,recall,f1,hit_rate_pct,coverage,seconds"

# Host speed: a fixed pure-Python job (Pearson over sparse dict rows, sort,
# text parsing; nothing from cflevels) that times itself. Each time the
# benchmark reports is raw / (mean of the calibration times just before and
# after) * CAL_REF_S, i.e. seconds at the host speed at which the
# calibration takes CAL_REF_S (its median on the machine of baseline.json).
CAL_REF_S = 0.33
CAL_CHECKSUM = "3970.755634"
CAL_CODE = """\
import math, random, sys, time
t0, c0 = time.perf_counter(), time.process_time()
rng = random.Random(7)
text = "".join(f"{u}\\t{i}\\t{rng.randint(1, 5)}\\n"
               for u in range(200) for i in rng.sample(range(300), 30))
rows = {}
for line in text.splitlines():
    u, i, v = line.split("\\t")
    rows.setdefault(int(u), {})[int(i)] = float(v)
acc = 0.0
for a in range(200):
    ra = rows[a]
    scored = []
    for b, rb in rows.items():
        co = ra.keys() & rb.keys()
        n = len(co)
        if n < 2:
            continue
        xs = [ra[i] for i in co]
        ys = [rb[i] for i in co]
        mx, my = math.fsum(xs) / n, math.fsum(ys) / n
        dx = math.fsum((x - mx) ** 2 for x in xs)
        dy = math.fsum((y - my) ** 2 for y in ys)
        if dx and dy:
            num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            scored.append((num / math.sqrt(dx * dy), b))
    scored.sort(reverse=True)
    acc += math.fsum(s for s, _ in scored[:20])
print(repr(time.perf_counter() - t0), repr(time.process_time() - c0), f"{acc:.6f}")
"""
CLI_CODE = "import sys; from cflevels.cli import entry; entry()"
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import cflevels
fmt = cflevels.DatasetFormat(None, ("user", "item", "rating"), cflevels.RatingScale(1.0, 5.0))
m = cflevels.build_matrix(cflevels.parse_ratings(sys.argv[1], fmt), fmt.scale)
print(repr(time.perf_counter() - t0), m.user_count, m.item_count)
"""


@dataclass(frozen=True)
class Workload:
    """One CLI command on one planted-data shape."""

    users: int
    items: int
    command: str                      # "evaluate" or "topn"
    methods: tuple[str, ...]
    ks: tuple[int, ...]               # evenly spaced; one sweep cell per k
    folds: int | None = None          # None: one 80/20 holdout
    r: int | None = None              # topn list length
    jobs: int = 1                     # capped at nproc

    def argv(self, ratings: str, jobs: int) -> list[str]:
        argv = [self.command, "--ratings", ratings, "--methods", ",".join(self.methods),
                "--seed", str(SPLIT_SEED), "--jobs", str(jobs)]
        if len(self.ks) > 1:
            step = self.ks[1] - self.ks[0]
            argv += ["--k-sweep", f"{self.ks[0]}:{self.ks[-1]}:{step}"]
        else:
            argv += ["--k", str(self.ks[0])]
        if self.folds is not None:
            argv += ["--folds", str(self.folds)]
        else:
            argv += ["--train", str(TRAIN_RATIO)]
        if self.r is not None:
            argv += ["--r", str(self.r)]
        return argv


# Each workload stresses different layers (see README.md). Shapes are small
# enough that one CLI run takes about a second, so a run of the benchmark
# holds a few dozen of them.
WORKLOADS = {
    # splits and multi-method scoring: every cell rebuilds all folds, base
    # Pearson is paid per method, the cache is reused across k; threaded
    "kfold-sweep": Workload(220, 150, "evaluate", ("pcc", "dynamic"), (20, 40),
                            folds=5, jobs=2),
    # ranking and cache reads: every unrated item of every test user
    "topn-small": Workload(220, 150, "topn", ("dynamic",), (40,), r=20),
    # pair scoring with a mostly-written cache, memory, the largest set-up
    "holdout-mid": Workload(800, 450, "evaluate", ("pcc",), (40,)),
}


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    stamp: dict = field(default_factory=dict)
    tracers: list = field(default_factory=list)

    def attempt(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def missing_checkout_files() -> list[str]:
    needed = (SRC / "cflevels" / "cli.py", TESTS / "_synth.py", TESTS / "oracles.py")
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def _test_helpers():
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    return importlib.import_module("_synth"), importlib.import_module("oracles")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_ratings(records, path: Path) -> str:
    """Write tab-separated (user, item, rating) lines; return the file's sha256."""
    data = "".join(f"{u}\t{i}\t{v!r}\n" for u, i, v in records).encode()
    path.write_bytes(data)
    return sha256_bytes(data)


def required_predictions(w: Workload, records) -> int:
    """Predictions the command must attempt, counted from the split itself.

    evaluate predicts every test rating once per (method, k) cell; topn
    predicts, for each test user known to the train matrix, every train
    item that user has not rated.
    """
    _, oracles = _test_helpers()
    cells = len(w.methods) * len(w.ks)
    if w.folds is not None:
        return len(records) * cells
    train, test = oracles.holdout_split(records, TRAIN_RATIO, SPLIT_SEED)
    if w.command == "evaluate":
        return len(test) * cells
    rated = oracles.records_to_dict(train)
    n_items = len({i for _, i, _ in train})
    users = {u for u, _, _ in test if u in rated}
    return sum(n_items - len(rated[u]) for u in users) * cells


def load_reference(name: str, data_sha: str) -> str | None:
    try:
        table = json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        return None
    entry = table.get(name, {}).get(data_sha)
    return entry["stdout_sha256"] if entry else None


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_report(w: Workload, text: str) -> list[str]:
    """Shape and range checks on the CLI's CSV, independent of the seed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"unexpected CSV header {lines[:1]!r}"]
    folds = ([f"fold={f}" for f in range(w.folds)] + ["fold=avg"]
             if w.folds is not None else [None])
    expected = [(m, k, f) for m in w.methods for k in w.ks for f in folds]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(expected):
        return [f"expected {len(expected)} report rows, got {len(rows)}"]
    problems = []
    for row, (method, k, fold) in zip(rows, expected):
        try:
            if len(row) != 12 or row[0] != method or row[1] != str(k):
                raise ValueError("wrong method, k or field count")
            if fold is not None and fold not in row[2].split(";"):
                raise ValueError(f"missing {fold}")
            if int(row[10]) < 0 or row[11] != "":
                raise ValueError("bad coverage or timing cell")
            if w.command == "evaluate":
                # all three error cells stay empty when nothing was predictable
                if any(row[3:6]):
                    mae, nmae, rmse = (float(x) for x in row[3:6])
                    span = SCALE[1] - SCALE[0]
                    if not (0.0 <= mae <= span and abs(nmae - mae / span) <= 1e-12
                            and mae - 1e-12 <= rmse <= span):
                        raise ValueError("error metrics out of range")
                if any(row[6:10]):
                    raise ValueError("top-N cells filled on evaluate")
            else:
                p, r_, f1, hit = (float(x) for x in row[6:10])
                if not (0 <= p <= 1 and 0 <= r_ <= 1 and 0 <= f1 <= 1 and 0 <= hit <= 100):
                    raise ValueError("top-N metrics out of range")
                if any(row[3:6]):
                    raise ValueError("error cells filled on topn")
        except ValueError as exc:
            problems.append(f"bad report row {','.join(row)!r}: {exc}")
    return problems


def check_stdout(label: str, code: int, out: bytes, err: bytes,
                 reference: str | None) -> list[str]:
    """Exit code 0, empty stderr, and stdout matching the reference digest."""
    problems = []
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    if err:
        problems.append(f"{label}: stderr not empty: {err[:200]!r}")
    if reference is not None and sha256_bytes(out) != reference:
        problems.append(f"{label}: stdout sha256 {sha256_bytes(out)[:16]} differs "
                        f"from reference {reference[:16]}")
    return problems


# ---------------------------------------------------------------------------
# untraced: fresh child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CFLEVELS_JOBS")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], workdir: Path) -> Child:
    """Run ``python3 <args>``; time it and read its rusage via wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())


class Calibration:
    """Host speed, measured by running CAL_CODE in a fresh child on demand.

    ``scale(raw)`` turns a time measured since the previous calibration into
    reference seconds: it calibrates again and divides by the mean of the
    two calibration times around the measurement.
    """

    def __init__(self, workdir: Path, outcome: Outcome):
        self.workdir, self.outcome = workdir, outcome
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.measure()

    def measure(self) -> None:
        child = run_child(["-c", CAL_CODE], self.workdir)
        problems = check_stdout("calibration", child.code, child.stdout, child.stderr, None)
        try:
            wall, cpu, checksum = child.stdout.split()
            if checksum.decode() != CAL_CHECKSUM:
                problems.append(f"calibration: checksum {checksum!r}, want {CAL_CHECKSUM}")
            self.wall.append(float(wall))
            self.cpu.append(float(cpu))
        except ValueError:
            problems.append(f"calibration: unexpected output {child.stdout[:200]!r}")
        self.outcome.attempt(problems)

    def scale(self, wall: float, cpu: float = 0.0) -> tuple[float, float]:
        self.measure()
        if len(self.wall) < 2:
            return wall, cpu   # calibration failed; the run is already incorrect
        ref_wall = (self.wall[-2] + self.wall[-1]) / 2
        ref_cpu = (self.cpu[-2] + self.cpu[-1]) / 2
        return wall * CAL_REF_S / ref_wall, cpu * CAL_REF_S / ref_cpu


def measure_setup(ratings: Path, users: int, items: int, cal: Calibration,
                  outcome: Outcome) -> float:
    """Median fresh-process time of import + parse_ratings + build_matrix."""
    times, raw = [], []
    for _ in range(SETUP_REPS):
        child = run_child(["-c", SETUP_CODE, str(ratings)], cal.workdir)
        problems = check_stdout("setup", child.code, child.stdout, child.stderr, None)
        try:
            seconds, got_users, got_items = child.stdout.split()
            raw.append(float(seconds))
            times.append(cal.scale(float(seconds))[0])
            if (int(got_users), int(got_items)) != (users, items):
                problems.append(f"setup: matrix is {got_users}x{got_items}, "
                                f"file has {users}x{items}")
        except ValueError:
            problems.append(f"setup: unexpected output {child.stdout[:200]!r}")
        outcome.attempt(problems)
    outcome.stamp["raw_setup_s"] = [round(t, 4) for t in raw]
    # a run whose every set-up failed is reported incorrect; 0.0 keeps the JSON valid
    return statistics.median(times) if times else 0.0


def measure_untraced(w: Workload, ratings: Path, jobs: int, reference: str | None,
                     required: int, seconds: int, cal: Calibration, outcome: Outcome) -> None:
    workdir = cal.workdir
    cli = ["-c", CLI_CODE]
    if jobs > 1 and reference is None:
        # the determinism contract: --jobs N prints what --jobs 1 prints;
        # recorded references come from --jobs 1 runs, so only unrecorded
        # data needs the serial run here
        serial = run_child(cli + w.argv(str(ratings), 1), workdir)
        if serial.code == 0:
            reference = sha256_bytes(serial.stdout)
            outcome.stamp["reference"] = "--jobs 1 run"
        outcome.attempt(check_stdout("--jobs 1 run", serial.code, serial.stdout,
                                     serial.stderr, reference))
    reps: list[Child] = []
    scaled: list[tuple[float, float]] = []
    cal.measure()
    started = time.perf_counter()
    while True:
        child = run_child(cli + w.argv(str(ratings), jobs), workdir)
        scaled.append(cal.scale(child.wall_s, child.cpu_s))
        if reference is None:
            reference = sha256_bytes(child.stdout)
            outcome.stamp["reference"] = "first timed run"
        problems = check_stdout(f"timed run {len(reps) + 1}", child.code,
                                child.stdout, child.stderr, reference)
        if not reps and not problems:
            problems = check_report(w, child.stdout.decode())
        outcome.attempt(problems)
        reps.append(child)
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    outcome.stamp["stdout_sha256"] = reference
    outcome.stamp["raw_wall_s"] = [round(c.wall_s, 4) for c in reps]
    outcome.stamp["calibration_s"] = [round(t, 4) for t in cal.wall]
    # On a shared host, co-tenant load slows the CPU by a third or more for
    # stretches of seconds to minutes; scaling each invocation by the
    # calibrations around it takes most of that out, and the median over the
    # run takes out what is left of single slow invocations.
    wall = statistics.median(t for t, _ in scaled)
    outcome.metrics.update({
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(c for _, c in scaled), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in reps), "MB"),
        "predictions_per_s": (required / wall, "1/s"),
    })


# ---------------------------------------------------------------------------
# traced: in-process passes
# ---------------------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """cflevels.cli.main(argv) in this process, capturing its streams.

    An exception escaping main is a failed run, reported like the traceback
    a child process would print, so the benchmark still prints its result.
    """
    cli = importlib.import_module("cflevels.cli")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - started
    return code, out.getvalue().encode(), err.getvalue().encode(), wall


def oracle_problems(tracer) -> list[str]:
    """Compare the tracer's sampled predict/top-N calls with the oracles."""
    _, oracles = _test_helpers()
    predict_mod = importlib.import_module("cflevels.predict")
    dicts: dict[int, dict] = {}

    def oracle_setup(bound):
        m, sim = bound.arguments["m"], bound.arguments["sim"]
        if bound.arguments.get("mode", "resnick") != "resnick":
            raise ValueError("oracle covers resnick prediction only")
        ratings = dicts.get(id(m))
        if ratings is None:
            ratings = dicts[id(m)] = oracles.records_to_dict(m.records())
        p = sim.params
        if sim.name == "pcc":
            fn = lambda a, b: oracles.pearson(ratings, a, b)  # noqa: E731
        elif sim.name == "dynamic":
            fn = lambda a, b: oracles.dynamic_adjusted(  # noqa: E731
                ratings, a, b, m.user_count, m.item_count, p["negative_form"])
        else:
            raise ValueError(f"no oracle wired for method {sim.name!r}")
        return ratings, fn, (m.scale.rmin, m.scale.rmax)

    problems = []
    predict_sig = inspect.signature(predict_mod.predict)
    for args, kwargs, got in tracer.predict_sample:
        bound = predict_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        ratings, fn, scale = oracle_setup(bound)
        a, item, k = (bound.arguments[n] for n in ("a", "item", "k"))
        want = oracles.predict(ratings, a, item, k, fn, scale)
        value = None if got is None else got.value
        if (value is None) != (want is None) or (
                value is not None and abs(value - want) > ORACLE_TOL):
            problems.append(f"oracle: predict({a}, {item}, k={k}) = {value!r}, oracle {want!r}")
    rank_sig = inspect.signature(predict_mod.recommend_top_n)
    for args, kwargs, got in tracer.rank_sample:
        bound = rank_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        ratings, fn, scale = oracle_setup(bound)
        a, r, k = (bound.arguments[n] for n in ("a", "r", "k"))
        want = oracles.top_n(ratings, a, r, k, fn, scale, bound.arguments["candidates"])
        if [i for i, _ in got] != [i for i, _ in want] or any(
                abs(x - y) > ORACLE_TOL for (_, x), (_, y) in zip(got, want)):
            problems.append(f"oracle: recommend_top_n({a}, r={r}, k={k}) disagrees")
    return problems


def measure_traced(w: Workload, ratings: Path, jobs: int, reference: str | None,
                   seed: int, seconds: int, outcome: Outcome) -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    argv = w.argv(str(ratings), jobs)
    passes: list[dict[str, tuple[float, str]]] = []
    started = time.perf_counter()
    while True:
        code, plain, err, plain_wall = call_cli(argv)
        if reference is None and code == 0:
            reference = sha256_bytes(plain)
            outcome.stamp["reference"] = "first untraced pass"
        problems = check_stdout("untraced pass", code, plain, err, reference)
        if not passes and not problems:
            problems = check_report(w, plain.decode())
        outcome.attempt(problems)

        tracer = Tracer(seed)
        tracer.install()
        try:
            code, traced, err, traced_wall = call_cli(argv)
        finally:
            tracer.restore()
        problems = check_stdout("traced pass", code, traced, err, reference)
        if traced != plain:
            problems.append("traced pass: stdout differs from the untraced pass")
        if not passes:
            problems += oracle_problems(tracer)
        outcome.attempt(problems)
        outcome.tracers.append(tracer)

        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        passes.append(metrics)
        pair = time.perf_counter() - started
        if pair * (len(passes) + 1) / len(passes) > seconds:
            break
    for key, (value, unit) in passes[0].items():
        values = [p[key][0] for p in passes]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            outcome.attempt([f"traced passes disagree on {key}: {values}"])
        outcome.metrics[key] = (statistics.median_low(values), unit)
    outcome.stamp["stdout_sha256"] = reference
    outcome.stamp["traced_passes"] = len(passes)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name: str, w: Workload, seed: int, seconds: int, trace: bool) -> Outcome:
    synth, _ = _test_helpers()
    # Traced runs are serial on purpose: under --jobs 2, sweep cells that
    # share a (method, fold) cache can overlap and score the same pair twice,
    # so cache and scoring counts would not repeat exactly.
    jobs = 1 if trace else min(w.jobs, nproc())
    outcome = Outcome()
    outcome.stamp = {
        "workload": name, "seed": seed, "trace": int(trace),
        "shape": f"{w.users}x{w.items}",
        "command": ["cflevels", *w.argv("<ratings>", jobs)],
        "python": platform.python_version(), "nproc": nproc(),
        "loadavg_before": os.getloadavg(), "git_commit": git_commit(),
        "generator_sha256": sha256_bytes((TESTS / "_synth.py").read_bytes()),
    }
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        records = synth.planted_records(seed=seed, n_users=w.users, n_items=w.items)
        ratings = workdir / "ratings.txt"
        data_sha = write_ratings(records, ratings)
        reference = load_reference(name, data_sha)
        outcome.stamp.update(ratings=len(records), data_sha256=data_sha,
                             reference="recorded" if reference else None)
        if trace:
            measure_traced(w, ratings, jobs, reference, seed, seconds, outcome)
        else:
            users = len({u for u, _, _ in records})
            items = len({i for _, i, _ in records})
            cal = Calibration(workdir, outcome)
            setup = measure_setup(ratings, users, items, cal, outcome)
            required = required_predictions(w, records)
            outcome.stamp["required_predictions"] = required
            measure_untraced(w, ratings, jobs, reference, required, seconds, cal, outcome)
            outcome.metrics["setup_s"] = (setup, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.stamp["loadavg_after"] = os.getloadavg()
    return outcome


def write_trace(outcome: Outcome) -> Path:
    stamp = outcome.stamp
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{stamp['workload']}-seed{stamp['seed']}.json"
    path.write_text(json.dumps({
        "stamp": stamp,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "passes": [t.dump() for t in outcome.tracers],
    }, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    missing = missing_checkout_files()
    if missing:
        print(f"perfbench: run from a cflevels checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    outcome = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    if args.trace:
        print(f"trace written to {write_trace(outcome).relative_to(ROOT)}")
    print("env " + json.dumps(outcome.stamp, sort_keys=True))
    for problem in outcome.problems:
        print(f"FAIL {problem}")
    shown = dict(outcome.metrics)
    if not args.trace:
        shown["failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
    for key, (value, unit) in shown.items():
        print(f"{key:<26} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
