"""Self-test of the benchmark at tiny sizes; takes a few seconds.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Sizes: heisenberg GF(3), dps GF(4) with t = 4, bundle thm12 p=3 r=2 (and
q8-2r r=2), fields GF(3^3).  Checks that every metric BENCHMARK.json
names is printed with its unit, that traced self times and unattributed
time add up to the traced wall time, that the same seed gives the same
inputs, that a tampered verdict is counted as a failure, and that the
benchmark refuses to run without the rdslink sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the thread pools before numpy loads)

assert run.use_sources(), "run from a checkout with src/rdslink"

from workloads import WORKLOADS, Pass  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_printed(spec):
    """Every metric of BENCHMARK.json, by name and unit, on every workload."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in spec_workloads(spec):
            out = bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                        "--trace", str(trace), "--tiny")
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, out.stdout
            assert result["attempted"] >= 1
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            values = {n: m["value"] for n, m in result["metrics"].items()}
            for n in want:
                line = f"{n} = "
                assert any(s.startswith(line) and s.endswith(want[n])
                           for s in out.stdout.splitlines()), (name, n)
            if trace:
                selfs = sum(v for n, v in values.items()
                            if n.endswith(".self_s"))
                assert math.isclose(selfs + values["trace.unattributed_s"],
                                    values["trace.wall_s"], rel_tol=1e-9)
                assert values["trace.unattributed_s"] > -1e-6, values
            else:
                assert all(v > 0 for v in values.values()), values
            print(f"ok   {name} --trace {trace}: {len(want)} metrics")


def spec_workloads(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(WORKLOADS), names
    return names


def check_seeded_inputs():
    for w in WORKLOADS.values():
        a, b = (repr(run.set_up(w, 5, True)) for _ in range(2))
        assert a == b, w.name
    print("ok   same seed, same inputs")


def check_tampered_verdicts():
    """A wrong verdict from rdslink must count as a failed job."""
    workdir = os.path.join(run.STATE, "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = run.Context(workdir, None)
        bundle = WORKLOADS["bundle"]
        inputs = run.set_up(bundle, 1, True)
        assert run.run_pass(bundle, inputs, ctx, False, None).failed == 0

        # the negative control now holds the genuine sets: verify says ok
        genuine = ctx.generated["q8-2r"]["prefix"]
        shutil.copy(genuine + ".bundle.json", genuine + ".swapped.json")
        p = run.run_pass(bundle, inputs, ctx, False, None)
        assert p.failed == 1 and "swap" in p.errors[0], p.errors

        import rdslink.rds as rds

        heis = WORKLOADS["heisenberg"]
        real = rds.cayley_drg_check
        rds.cayley_drg_check = lambda G, S: (real(G, S)[0], [])
        try:
            p = Pass(ctx, False)
            heis.run(run.set_up(heis, 1, True), p)
        finally:
            rds.cayley_drg_check = real
        assert p.failed == 1 and "antipodal" in p.errors[0], p.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   tampered verdicts count as failures")


def check_refuses_without_sources():
    bare = os.path.join(run.STATE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = bench("--workload", "heisenberg", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=bare)
        assert out.returncode != 0 and '"metrics"' not in out.stdout, out
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   no result without the rdslink sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_seeded_inputs()
    check_tampered_verdicts()
    check_refuses_without_sources()
    check_printed(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
