"""Layer-by-layer benchmark for rdslink.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload heisenberg --seed 1 --trace 0

Runs the workload as a closed loop of passes, one job in flight, from one
process (the bundle workload starts one CLI child process at a time).
A new pass starts only while it is expected to end nearer to --seconds
(by default run_seconds of BENCHMARK.json) than the last one did; at
least one pass always runs.  Every output is checked; a job that raises
or gives a wrong verdict counts in `failed` and the run goes on.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
every pass, bundle sha256 digests, spans) goes to .perfbench/results/.
See perfbench/README.md for why each workload and metric exists.
"""

import os

# Pin numpy's and BLAS's thread pools before anything imports numpy; the
# CLI child processes inherit the same settings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# per-layer metrics read from a span statistic of another name
SPAN_STAT = {"groups.table_mb": ("groups.FiniteGroup", "table_mb"),
             "rds.verify_rds.rejects": ("rds.verify_rds", "raised")}


class Context:
    """What passes share: the work directory, the tracer, child processes
    and the verify inputs generated from each bundle."""

    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.generated = {}
        self.generate_s = 0.0  # time spent generating, done once per run

    def spawn(self, argv, stderr_path):
        """Run a child to completion; returns (exit code, peak RSS in KB).

        wait4 reports the child's own peak RSS.
        """
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def generate(self, bundle_path, family, seed, swap):
        """Verify inputs for a bundle (untimed, in a helper process).

        Bundles are byte-stable, so a later pass must write the same bytes
        as the first; it then reuses the files generated from them.
        """
        digest = hashlib.sha256()
        with open(bundle_path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        sha = digest.hexdigest()
        done = self.generated.get(family)
        if done:
            if done["sha256"] != sha:
                raise ValueError(f"{family} bundle bytes changed between "
                                 f"passes: {done['sha256']} then {sha}")
            return done
        t0 = time.perf_counter()
        prefix = os.path.join(self.workdir, f"in-{family}")
        argv = [sys.executable, os.path.join(HERE, "relabel.py"), bundle_path,
                prefix, str(seed)] + (["--swap"] if swap else [])
        out = subprocess.run(argv, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, check=True)
        summary = json.loads(out.stdout)
        summary["prefix"] = prefix
        self.generated[family] = summary
        self.generate_s += time.perf_counter() - t0
        return summary


def set_up(workload, seed, tiny):
    """Import rdslink and make the workload's inputs from the seed."""
    import rdslink  # noqa: F401

    rng = random.Random(f"{workload.name}/{seed}")
    return workload.inputs(rng, tiny)


def probe_setup(args, count):
    """Median set-up time of `count` fresh processes of this workload."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(count):
        t0 = time.monotonic()
        out = subprocess.run(argv, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_pass(workload, inputs, ctx, traced, pass_id):
    from workloads import Pass

    p = Pass(ctx, traced)
    if traced:
        import spans

        ctx.tracer.pass_id = pass_id
        ctx.tracer.records = []
        ctx.tracer.stack = [None]
        counts, undo = spans.install(ctx.tracer)
        missing = [n for n, c in counts.items() if c == 0]
        if missing:
            raise RuntimeError(f"no module binds {missing}")
    gc.collect()
    try:
        workload.run(inputs, p)
    finally:
        if traced:
            undo()
            p.records = ctx.tracer.records + p.records
    p.wall = p.times["write"] + p.times["read"]
    return p


def load_spec():
    """BENCHMARK.json: the run length and each metric's unit by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {key: {m["name"]: m["unit"] for m in spec[key]}
                  for key in ("end_to_end", "per_layer")}


def layer_metrics(traced, untraced, workload, names):
    """Per-layer metrics (those in `names`): means over the traced passes."""
    import spans

    rows = {}
    for p in traced:
        for name, row in spans.aggregate(p.records).items():
            acc = rows.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
    for row in rows.values():
        for key in row:
            row[key] /= len(traced)
    stray = [n for n in rows if f"{n}.self_s" not in names]
    if stray:
        raise RuntimeError(f"spans without a self_s metric: {stray}")
    silent = [n for n in workload.reaches if n not in rows]
    if silent:
        raise RuntimeError(f"layers never entered on {workload.name}: "
                           f"{silent}")
    wall = statistics.fmean(p.wall for p in traced)
    values = {}
    for name in names:
        if name in SPAN_STAT:
            layer, stat = SPAN_STAT[name]
        else:
            layer, stat = name.rsplit(".", 1)
        values[name] = rows.get(layer, {}).get(stat, 0)
    values["cli.bundle_mb"] = statistics.fmean(
        p.facts.get("bundle_mb", 0.0) for p in traced)
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(
        v for n, v in values.items() if n.endswith(".self_s"))
    values["trace.overhead_s"] = wall - statistics.fmean(
        p.wall for p in untraced)
    return values


def environment(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit or "unavailable (not a git checkout)",
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def use_sources():
    """Import rdslink from the checkout's src/, here and in child processes.

    Returns False when the sources are missing.
    """
    if not os.path.isfile(os.path.join(SRC, "rdslink", "__init__.py")):
        return False
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    return True


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["heisenberg", "dps", "bundle", "fields"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds, not minutes)")
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # set-up timing child
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not use_sources():
        sys.stderr.write(f"error: no rdslink sources under {SRC}\n")
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.probe:
        set_up(workload, args.seed, args.tiny)
        print(time.monotonic())
        return 0

    spec, units = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = units["per_layer" if args.trace else "end_to_end"]
    setup_s = None
    if not args.trace:
        setup_s = probe_setup(args, 1 if args.tiny else 7)
    inputs = set_up(workload, args.seed, args.tiny)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    ctx = Context(workdir, tracer)
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        rounds = 0
        while True:
            t0, g0 = time.perf_counter(), ctx.generate_s
            untraced.append(run_pass(workload, inputs, ctx, False, None))
            if args.trace:
                traced.append(run_pass(workload, inputs, ctx, True,
                                       f"{args.workload}-{args.seed}-"
                                       f"{rounds}"))
            rounds += 1
            # stop when ending now is nearer to --seconds than ending after
            # one more round of the same length; the inputs generated in
            # this round are reused, so their time does not recur
            took = time.perf_counter() - t0 - (ctx.generate_s - g0)
            if time.perf_counter() - start + took / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        values = layer_metrics(traced, untraced, workload, units)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "write_s": statistics.median(p.times["write"] for p in untraced),
            "read_s": statistics.median(p.times["read"] for p in untraced),
            "setup_s": setup_s + statistics.median(
                p.child_setup_s for p in untraced),
            "peak_rss_mb": max([rss_kb / 1024]
                               + [p.child_rss_mb for p in untraced]),
        }
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "attempted": attempted, "failed": failed,
              "errors": [e for p in passes for e in p.errors],
              "tracebacks": [t for p in passes for t in p.tracebacks],
              "bundles": [p.facts.get("bundles") for p in passes],
              "passes": [{"traced": p.traced, "wall_s": p.wall,
                          "write_s": p.times["write"],
                          "read_s": p.times["read"],
                          "child_setup_s": p.child_setup_s,
                          "attempted": p.attempted, "failed": p.failed}
                         for p in passes],
              "metrics": metrics}
    with open(os.path.join(STATE, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(STATE, "results", tag + ".spans.jsonl"),
                  "w") as fh:
            for p in traced:
                for rec in p.records:
                    fh.write(json.dumps(rec) + "\n")

    print("environment " + json.dumps(env))
    for e in record["errors"]:
        print(f"FAILED {e}")
    for p in passes:
        if p.facts.get("bundles"):
            print("bundles " + json.dumps(p.facts["bundles"]))
            break
    print(f"passes {len(untraced)} untraced, {len(traced)} traced")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for n, m in metrics.items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
