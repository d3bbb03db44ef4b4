"""cachesec benchmark: time, trace and check one workload.

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the repository root. A run warms the program up in-process, then
repeats whole jobs (see `workloads.py`) through `cachesec.cli.main` until
they have taken --seconds seconds, and measures set-up in fresh
interpreters (`probe.py`) started between jobs. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
plain and traced jobs and reports the per-layer metrics. Every output table
of the first job is checked against `refs.json` (see `check.py`), and later
repetitions must reproduce it byte for byte. The last line of standard
output is the JSON result; a record with the environment goes to
bench/out/.
"""

import os

# One BLAS thread per caller: the CLI pool already runs nproc threads, and
# default OpenBLAS threading stalled the first quadrature of some fresh
# processes for up to a second. Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith(".trials_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".concurrency", ".sop_evals_per_inversion")):
        return "ratio"
    return "count"


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def probe_setup(workload: str) -> dict:
    """Import and warm-up times of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_commit": commit,
    }


class Jobs:
    """Runs a workload's commands as one job and keeps their outputs."""

    def __init__(self, cli, commands, tmp: Path):
        self.cli = cli
        self.commands = commands
        self.tmp = tmp
        self.configs = []
        for i, cmd in enumerate(commands):
            path = tmp / f"{i:02d}-{cmd.name}.scn"
            path.write_text(cmd.config_text())
            self.configs.append(path)
        self.first: list | None = None
        self.runs = 0
        self.failed = 0
        self.notes: list[str] = []
        self.per_command: dict[str, list[float]] = {c.name: [] for c in commands}

    def run(self, tracer=None) -> float:
        outs = []
        t_job = time.perf_counter()
        for cmd, config in zip(self.commands, self.configs):
            out = self.tmp / f"{cmd.name}.csv"
            out.unlink(missing_ok=True)
            argv = cmd.argv(str(config), str(out))
            err = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(err):
                try:
                    if tracer is None:
                        rc = self.cli.main(argv)
                    else:
                        rc = tracer.command("cli.main", self.cli.main, argv)
                except Exception:  # a crashing command is a failed operation
                    rc = "exception"
                    err.write(traceback.format_exc())
            if tracer is None:
                self.per_command[cmd.name].append(time.perf_counter() - t0)
            outs.append((rc, err.getvalue(), out))
        wall = time.perf_counter() - t_job
        texts = []
        for cmd, (rc, err, out) in zip(self.commands, outs):
            self.runs += 1
            text = out.read_text() if rc == 0 and out.is_file() else None
            if rc != 0:
                self.failed += 1
                self.notes.append(f"{cmd.name}: exit {rc}: {err[-400:]}")
            texts.append(text)
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self.failed += 1
            self.notes.append("outputs differ between repetitions")
        return wall


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be nonnegative")
    if not (ROOT / "src" / "cachesec" / "__init__.py").is_file():
        die(f"no cachesec sources under {ROOT / 'src'}; run from a checkout")
    if not (HERE / "refs.json").is_file():
        die("bench/refs.json is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as W
    if args.workload not in W.NAMES:
        die(f"unknown workload {args.workload!r}; one of {', '.join(W.NAMES)}")

    import cachesec.cli as cli
    from spans import Tracer, layer_metrics, self_share
    W.warm_up(args.workload)
    commands = W.commands(args.workload, args.seed)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    setups, plain, traced, layers, shares, spans = [], [], [], [], [], []
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        jobs = Jobs(cli, commands, Path(tmp))
        measured = 0.0
        while not plain or measured < args.seconds:
            # set-up probes are spread over the run, so that they see the
            # same machine load as the jobs rather than one moment of it
            if measured >= len(setups) * args.seconds / SETUP_PROBES:
                setups.append(probe_setup(args.workload))
            plain.append(jobs.run())
            measured += plain[-1]
            if args.trace:
                tracer = Tracer(job=len(traced))
                tracer.install()
                try:
                    wall = jobs.run(tracer)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                measured += wall
                layers.append(layer_metrics(tracer.spans))
                shares.append(self_share(tracer.spans, wall))
                spans += [vars(s) for s in tracer.spans]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_PROBES:
            setups.append(probe_setup(args.workload))
        from check import Checker
        checker = Checker(HERE / "refs.json", args.workload, args.seed)
        for cmd, text in zip(commands, jobs.first):
            checker.command(cmd, text)
    tally = checker.tally
    attempted = tally.attempted + jobs.runs
    failed = tally.failed + jobs.failed
    if args.trace:
        metrics = median_metrics(layers)
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups)
        metrics["trace.overhead_frac"] = \
            statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["fail_frac"] = failed / attempted
        metrics["check.ref_misses"] = tally.misses
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "job_s": statistics.median(plain),
            "setup_s": statistics.median(s["import_s"] + s["warmup_s"]
                                         for s in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "jobs": len(plain), "traced_jobs": len(traced),
        "job_s_all": plain, "traced_job_s_all": traced,
        "self_share": shares,
        "setup_probes": setups,
        "command_s_median": {k: statistics.median(v)
                             for k, v in jobs.per_command.items()},
        "check": {"attempted": attempted, "failed": failed,
                  "ref_misses": tally.misses,
                  "failures": jobs.notes + tally.notes,
                  "misses": tally.miss_notes},
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (outdir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans))

    print(f"# environment: {json.dumps(env)}")
    print(f"# {args.workload}: {len(plain)} jobs"
          + (f", {len(traced)} traced" if args.trace else "")
          + f", {SETUP_PROBES} set-up probes")
    for name, secs in record["command_s_median"].items():
        print(f"#   {name:<16} {secs:9.4f} s")
    print(f"# checked: {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}), "
          f"{tally.misses} reference misses")
    if shares:
        print(f"# summed self time / traced job time: "
              f"{', '.join(f'{x:.4f}' for x in shares)}")
    for note in record["check"]["failures"][:10]:
        print(f"#   failed: {note}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:14.6g} {units[name]}")
    if not args.trace:  # a per-layer metric, printed here for the reader
        print(f"{'fail_frac':<36} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
