"""Closed-loop benchmark of quiverforge.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kac --seed 1 --seconds 20 --trace 0

One client runs the workload's job table in passes, each job starting when
the previous one returns, and checks every answer.  The process is single
threaded (BLAS and OpenMP pools are pinned to one thread before numpy loads).
With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json,
timed on the host-speed clock of perfbench/hostclock.py;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from hostclock import HostClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 6  # set-ups in fresh processes during the run; setup_s is the median of these and ours
PROBE_TIMEOUT_S = 60
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["kac", "burnside", "moduli", "cli-cache"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int, workdir: Path, now=time.perf_counter):
    """Import quiverforge from this checkout and build the workload.

    Returns (seconds taken on the clock ``now``, workload).  The time covers
    the import, the quivers, and for cli-cache the quiver files and the
    cache pre-fill.
    """
    start = now()
    sys.path.insert(0, str(SRC))
    import quiverforge

    if not Path(quiverforge.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"quiverforge imported from {quiverforge.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](str(workdir), seed)
    return now() - start, workload


class SetupProbes:
    """Set-ups in fresh processes, run between jobs at even intervals over
    the run, so that their median meets the same mix of host speeds as the
    passes do.  Those not yet run when the run ends are run then."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds)]
        self.interval = args.seconds / SETUP_PROBES
        self.due = time.perf_counter() + self.interval / 2
        self.times: list[float] = []

    def _probe(self) -> None:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        self.times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])

    def between_jobs(self) -> None:
        """Run a probe if one is due."""
        if len(self.times) == SETUP_PROBES or time.perf_counter() < self.due:
            return
        self._probe()
        self.due = time.perf_counter() + self.interval

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return self.times


class Run:
    """Samples of one run: pass times, job times, failures.  Times are read
    on the clock ``now``; ``wall_pass_s`` holds the passes' wall times."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.pass_s: list[float] = []
        self.wall_pass_s: list[float] = []
        self.job_s: list[float] = []
        self.largest_s: list[float] = []
        self.largest_name = None
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def run_pass(self, jobs, tracer=None, pass_no=0, between_jobs=None) -> float:
        """Run one pass; returns its time less the time spent in
        ``between_jobs``, which is called after each job."""
        largest_seen = False
        paused = wall_paused = 0.0
        start, wall_start = self.now(), time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{pass_no}.{i}"
            t0 = self.now()
            self.run_job(job)
            elapsed = self.now() - t0
            self.job_s.append(elapsed)
            if job.largest and not largest_seen:
                largest_seen = True
                self.largest_s.append(elapsed)
                self.largest_name = job.name
            if between_jobs is not None:
                p0, w0 = self.now(), time.perf_counter()
                between_jobs()
                paused += self.now() - p0
                wall_paused += time.perf_counter() - w0
        self.wall_pass_s.append(time.perf_counter() - wall_start - wall_paused)
        return self.now() - start - paused

    def run_job(self, job) -> bool:
        self.attempted += 1
        try:
            answer = job.call()
        except Exception:  # a failing job is counted and the run goes on
            self.fail(job, traceback.format_exc())
            return False
        if answer != job.expected:
            self.fail(job, f"expected {job.expected!r}, got {answer!r}")
            return False
        return True

    def fail(self, job, detail: str) -> None:
        self.failed += 1
        if job.name not in self._reported:
            self._reported.add(job.name)
            print(f"job failed: {job.name}: {detail}", file=sys.stderr)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def describe_tail(label: str, values, unit: str = "s") -> str:
    found = tail(values)
    if found is None:
        return f"  {label:<14} undefined: {len(values)} samples, needs at least 11"
    level, value = found
    return f"  {label:<14} p{level:.0f} = {value:.4f} {unit} over {len(values)} samples, 10 beyond"


def measure(workload, seconds: float, probes: SetupProbes, clock: HostClock) -> Run:
    """Run passes until their wall times add up to about ``seconds``; the
    set-up probes run between jobs and do not count."""
    run = Run(clock.now)
    while True:
        run.pass_s.append(run.run_pass(workload.next_pass(), between_jobs=probes.between_jobs))
        if sum(run.wall_pass_s) + run.wall_pass_s[-1] / 2 >= seconds:
            return run


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced passes; returns (run, untraced pass
    times, traced pass times, per-layer metrics of each traced pass, tracer).
    Between the jobs of a traced pass the tracer measures its own cost and
    charges it to the layers; that time is not part of the pass."""
    from tracer import Tracer

    run = Run()
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        jobs = workload.next_pass()
        if pass_no % 2 == 0:
            plain.append(run.run_pass(jobs))
        else:
            tracer.start_pass()
            with tracer:
                traced.append(run.run_pass(jobs, tracer, pass_no, between_jobs=tracer.settle))
            net_pass = traced[-1] - tracer.charged_pass
            per_pass.append({**tracer.pass_metrics(),
                             **{f"share.self.{k}": v / net_pass
                                for k, v in tracer.layer_self_seconds().items()},
                             **{f"share.total.{k}": v / net_pass
                                for k, v in tracer.inclusive_seconds().items()},
                             "trace.net_pass_s": net_pass,
                             "trace.window_in_us": median(c[0] for c in tracer.costs) * 1e6,
                             "trace.window_out_us": median(c[1] for c in tracer.costs) * 1e6})
        pass_no += 1
        # stop when another pair of passes would end further past the
        # deadline than stopping now ends before it
        if (traced and len(plain) == len(traced)
                and time.perf_counter() + (plain[-1] + traced[-1]) / 2 >= deadline):
            return run, plain, traced, per_pass, tracer


def os_threads():
    """Thread count from /proc, or None where there is no /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def benchmark_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(run: Run, metrics: dict) -> None:
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quiverforge" / "__init__.py").is_file():
        print(f"error: no quiverforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ.pop("QUIVERFORGE_CACHE", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    # the traced run times layers on the wall clock: the clock's ticks
    # would land in whatever span is open
    clock = None if args.trace else HostClock().start()
    try:
        if args.setup_probe:
            setup_s, _ = set_up(args.workload, args.seed, workdir, clock.now)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return run_traced(args, workdir)
        return run_plain(args, workdir, clock)
    finally:
        if clock is not None:
            clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_plain(args, workdir: Path, clock: HostClock) -> int:
    setup_s, workload = set_up(args.workload, args.seed, workdir, clock.now)
    probes = SetupProbes(args)
    run = measure(workload, args.seconds, probes, clock)
    setups = [setup_s, *probes.finish()]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "pass_s": median(run.pass_s),
        "largest_job_s": median(run.largest_s),
        "setup_s": median(setups),
        "peak_rss_mib": rss_mib,
    }
    print(f"workload {args.workload}, seed {args.seed}, closed loop, one client, "
          f"{len(run.pass_s)} passes of {len(workload.jobs)} jobs; times in reference "
          f"seconds, host speed {clock.mean_speed():.3f} of reference on average")
    print(f"  {'pass_s':<14} median {values['pass_s']:.4f} s over {len(run.pass_s)} passes: "
          + " ".join(f"{x:.3f}" for x in run.pass_s))
    print(f"  {'wall pass_s':<14} median {median(run.wall_pass_s):.4f} s: "
          + " ".join(f"{x:.3f}" for x in run.wall_pass_s))
    print(describe_tail("pass_s.tail", run.pass_s))
    print(describe_tail("job_s.tail", run.job_s))
    print(f"  {'largest_job_s':<14} median {values['largest_job_s']:.4f} s over "
          f"{len(run.largest_s)} samples ({run.largest_name})")
    print(f"  {'setup_s':<14} median {values['setup_s']:.4f} s over {len(setups)} set-ups")
    print(f"  {'peak_rss_mib':<14} {rss_mib:.1f} MiB")
    print(f"  {'failed_frac':<14} {run.failed / run.attempted:.4f} "
          f"({run.failed} of {run.attempted} jobs)")
    print(f"  {'threads':<14} {os_threads()} (operating-system threads of this process)")
    units = benchmark_metrics("end_to_end")
    report(run, {name: {"value": values[name], "unit": unit} for name, unit in units.items()})
    return 0


def run_traced(args, workdir: Path) -> int:
    _, workload = set_up(args.workload, args.seed, workdir)
    run, plain, traced, per_pass, tracer = measure_traced(workload, args.seconds)
    values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead"] = median(traced) / median(plain)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(str(spans_path))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes; {len(tracer.spans)} spans in {spans_path}")
    print(f"  untraced pass_s median {median(plain):.4f} s, traced {median(traced):.4f} s, "
          f"overhead x{values['trace.overhead']:.3f}")
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g}")
    units = benchmark_metrics("per_layer")
    report(run, {name: {"value": values[name], "unit": unit} for name, unit in units.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
