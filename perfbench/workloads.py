"""The benchmark's four workloads: seeded inputs, one pass, output checks.

Each workload's `inputs(rng, tiny)` makes everything the seed decides and
`run(inputs, p)` performs one pass through `Pass.job`, which times the
call into rdslink, checks its output and counts a failure instead of
stopping the run.  Every job belongs to the pass's "write" phase (the
program builds tables and certificates) or its "read" phase (the
program checks them).  `reaches` names the layers a traced pass must
enter; a traced run fails if one of them records no span.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Pass:
    """Times, verdicts and facts of one pass."""

    def __init__(self, ctx, traced):
        self.ctx = ctx
        self.traced = traced
        self.tracer = ctx.tracer if traced else None
        self.times = {"write": 0.0, "read": 0.0}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracebacks = []
        self.child_setup_s = 0.0
        self.child_rss_mb = 0.0
        self.records = []  # spans of CLI children
        self.facts = {}

    def job(self, phase, name, call, check):
        """Time call(), then check(result) untimed.

        Returns the result, or None if the call raised or the check failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, failure = call(), None
        except Exception as exc:  # a failed job is counted; the run goes on
            out, failure = None, exc
        self.times[phase] += time.perf_counter() - t0
        if failure is None:
            try:
                check(out)
            except Exception as exc:
                failure = exc
        if failure is not None:
            self.failed += 1
            self.errors.append(f"{name}: {type(failure).__name__}: {failure}")
            self.tracebacks.append("".join(
                traceback.format_exception(failure)))
            return None
        return out

    def cli(self, args, tag):
        """Run one CLI command in a child process; returns its exit code.

        The child's lifetime is the job's time; its set-up (start-up and
        import) and peak RSS are recorded from its own report and wait4.
        """
        ctx = self.ctx
        out_path = os.path.join(ctx.workdir, f"{tag}.child.json")
        rec = self.tracer.begin("cli.process") if self.traced else None
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), out_path,
                "1" if self.traced else "0",
                str(self.tracer.pass_id) if self.traced else "-",
                rec[0] if rec else "-", "--"] + args
        t0 = time.monotonic()
        try:
            code, rss_kb = ctx.spawn(argv, os.path.join(ctx.workdir,
                                                        f"{tag}.stderr"))
        finally:
            if rec:
                self.tracer.end(rec)
        with open(out_path) as fh:
            report = json.load(fh)
        self.child_setup_s += report["ready"] - t0
        self.child_rss_mb = max(self.child_rss_mb, rss_kb / 1024)
        self.records.extend(report["spans"])
        return code


# ---------------------------------------------------------------------------
# heisenberg: table build, automorphism audits, graph layer


class Heisenberg:
    name = "heisenberg"
    reaches = ("groups.from_elements", "groups.FiniteGroup",
               "groups.Automorphism", "groups.orbits", "groups.center",
               "schur.cyclotomic", "schur.verify_sring", "groupring.mul",
               "groupring.indicator", "rds.verify_rds", "rds.is_icommuting",
               "rds.cayley_adjacency", "rds.certify_drg3",
               "linked.verify_linked", "constructions.heisenberg_system")

    @staticmethod
    def inputs(rng, tiny):
        from rdslink import field_make

        out = []
        for p, r in ([(3, 1)] if tiny else [(7, 1), (3, 2)]):
            F = field_make(p, r)
            nonsquares = [a for a in F.elements() if not F.is_square(a)]
            out.append((F, rng.choice(nonsquares)))
        return out

    @staticmethod
    def run(inputs, p):
        from rdslink import heisenberg_system
        from rdslink.rds import cayley_drg_check

        for F, eps in inputs:
            q = F.q

            def check(sys_, q=q, eps=eps):
                expect(sys_.eps == eps, "eps not used")
                params = sys_.certificate.parameters
                want = (q * q, q, q * q, q, q, 1, q + 1)
                expect(params == want, f"parameters {params}, want {want}")

            hs = p.job("write", f"heisenberg_system q={q}",
                       lambda F=F, eps=eps: heisenberg_system(F, eps), check)

        # the graph of the last (largest) field's system
        def drg_check(result):
            arr, classes = result
            want = (q * q - 1, q * (q - 1), 1, 1, q, q * q - 1)
            expect(arr.as_tuple() == want,
                   f"intersection array {arr}, want {want}")
            expect(sorted(len(c) for c in classes) == [q] * (q * q),
                   "antipodal classes are not q^2 classes of size q")

        def drg():
            if hs is None:
                raise CheckFailed("no system to take the graph from")
            return cayley_drg_check(hs.group, hs.orbit_sets[0])

        p.job("read", f"cayley_drg_check q={q}", drg, drg_check)


# ---------------------------------------------------------------------------
# dps: group-ring convolutions over a 4096-element direct product


class Dps:
    name = "dps"
    reaches = ("groups.from_elements", "groups.FiniteGroup",
               "groups.direct_product", "groupring.mul",
               "groupring.indicator", "schur.verify_sring",
               "schur.amorphic_latin", "rds.verify_rds",
               "linked.verify_linked", "constructions.dps_system")

    @staticmethod
    def inputs(rng, tiny):
        from rdslink import field_make

        p, r, t = (2, 2, 4) if tiny else (2, 4, 16)
        F = field_make(p, r)
        n = F.q
        lines = list(range(n + 1))
        rng.shuffle(lines)
        w = n // t
        cells = [tuple(sorted(lines[:w + 1]))]
        cells += [tuple(sorted(lines[w + 1 + i * w:w + 1 + (i + 1) * w]))
                  for i in range(t - 1)]
        return F, t, cells

    @staticmethod
    def run(inputs, p):
        from rdslink import dps_system, verify_linked

        F, t, cells = inputs
        n = F.q
        s = t
        want = (n * n, t, n * n, n * n // t, s - 1, n + (n - 1) * n // t,
                (n - 1) * n // t)

        def check(ds):
            params = ds.certificate.parameters
            expect(params == want, f"parameters {params}, want {want}")

        ds = p.job("write", f"dps_system n={n} t={t}",
                   lambda: dps_system(F, t, labeling=cells), check)

        def reverify():
            if ds is None:
                raise CheckFailed("no system to re-verify")
            return verify_linked(ds.ambient, ds.certificate.N, ds.families)

        def check_again(cert):
            expect(cert.parameters == want,
                   f"re-verified parameters {cert.parameters}, want {want}")
            expect(cert.sets == ds.certificate.sets, "member sets differ")

        p.job("read", f"verify_linked n={n} t={t}", reverify, check_again)


# ---------------------------------------------------------------------------
# fields: O(q^2) polynomial products in ff


class Fields:
    name = "fields"
    reaches = ("ff.field_make", "ff.least_nonsquare", "ff.pell_solutions")

    @staticmethod
    def inputs(rng, tiny):
        import rdslink  # noqa: F401  (set-up ends with the import)

        specs = [(3, 3)] if tiny else [(3, 6), (2, 9), (5, 4)]
        # Pell constant c != 0, so that there are q + 1 solutions
        return [(pp, r, rng.randrange(1, pp ** r) if pp % 2 else None)
                for pp, r in specs]

    @staticmethod
    def run(inputs, p):
        from rdslink import field_make, least_nonsquare, pell_solutions

        fields = []
        for pp, r, c in inputs:
            q = pp ** r

            def check(F, q=q):
                expect(F.q == q, f"order {F.q}, want {q}")
                xs = range(q)
                expect(all(F.pow(x, q) == x for x in xs), "x^q != x")
                expect(any(F.mult_order(x) == q - 1 for x in xs[1:]),
                       "multiplicative group is not cyclic of order q-1")

            F = p.job("write", f"field_make GF({pp}^{r})",
                      lambda pp=pp, r=r: field_make(pp, r), check)
            if F is not None:
                fields.append((F, c))
        for F, c in fields:
            if c is None:
                continue

            def check_ns(a, F=F):
                expect(not F.is_square(a), f"{a} is a square")
                expect(all(F.is_square(b) for b in range(a)),
                       "a smaller nonsquare exists")

            eps = p.job("read", f"least_nonsquare GF({F.q})",
                        lambda F=F: least_nonsquare(F), check_ns)
            if eps is None:
                continue

            def check_pell(sols, F=F, c=c, eps=eps):
                expect(len(sols) == F.q + 1,
                       f"{len(sols)} solutions, want q + 1 = {F.q + 1}")
                expect(all(F.sub(F.mul(u, u), F.mul(eps, F.mul(v, v))) == c
                           for u, v in sols), "a pair misses the equation")

            p.job("read", f"pell_solutions GF({F.q}) c={c}",
                  lambda F=F, c=c, eps=eps: pell_solutions(F, eps, c),
                  check_pell)


# ---------------------------------------------------------------------------
# bundle: the CLI, JSON, central products and the load-time table audit


class Bundle:
    name = "bundle"
    reaches = ("groups.central_product", "groups.FiniteGroup",
               "groupring.mul", "rds.verify_rds", "rds.is_icommuting",
               "rds.verify_pds", "rds.rds_product", "linked.verify_linked",
               "linked.linked_product", "linked.associated_group",
               "constructions.theorem_1_2_rds",
               "constructions.extraspecial_rds",
               "constructions.q8_system_2r", "cli.main.construct",
               "cli.main.verify", "cli.process")

    @staticmethod
    def inputs(rng, tiny):
        import rdslink  # noqa: F401  (set-up ends with the import)

        # the seeds of the relabeling permutations (and of the swap)
        return {"thm12_r": 2 if tiny else 3,
                "q8_r": 2 if tiny else 4,
                "relabel_seeds": (rng.randrange(2 ** 32),
                                  rng.randrange(2 ** 32))}

    @staticmethod
    def run(inputs, p):
        from rdslink.linked import munu_branches

        ctx = p.ctx
        pr, qr = 3, inputs["thm12_r"]
        made = {}  # family -> summary of the bundle and its verify inputs

        def check_thm12(g):
            c = g["certificate"]
            want = (pr ** (2 * qr), pr, pr ** (2 * qr), pr ** (2 * qr - 1))
            have = (c["m"], c["n"], c["k"], c["lambda"])
            expect(have == want, f"parameters {have}, want {want}")
            expect(g["exponent"] == pr * pr,
                   f"exponent {g['exponent']}, want {pr * pr}")

        def check_q8(g):
            c = g["certificate"]
            branches = [tuple(b) for b in munu_branches(c["m"], c["n"],
                                                        c["k"])]
            expect((c["mu"], c["nu"]) in branches,
                   f"(mu, nu) = ({c['mu']},{c['nu']}) is on neither branch "
                   f"{branches}")

        for fam, args, seed, swap, check_family in (
                ("thm12", ["construct", "thm12", "--p", str(pr), "--r",
                           str(qr)], inputs["relabel_seeds"][0], False,
                 check_thm12),
                ("q8-2r", ["construct", "q8-2r", "--r", str(inputs["q8_r"])],
                 inputs["relabel_seeds"][1], True, check_q8)):
            path = os.path.join(ctx.workdir, f"{fam}.json")
            if os.path.exists(path):
                os.remove(path)

            def check(code, fam=fam, path=path, seed=seed, swap=swap,
                      check_family=check_family):
                expect(code == 0, f"exit code {code}")
                made[fam] = ctx.generate(path, fam, seed, swap)
                check_family(made[fam])

            p.job("write", f"construct {fam}",
                  lambda args=args, path=path, fam=fam: p.cli(
                      args + ["--out", path], f"construct-{fam}"), check)

        p.facts["bundles"] = {fam: {"sha256": g["sha256"],
                                    "bytes": g["bytes"]}
                              for fam, g in made.items()}
        p.facts["bundle_mb"] = sum(g["bytes"] for g in made.values()) / 1e6

        def verify(kind, fam, sets_file, tag):
            if fam not in made:
                raise CheckFailed("no bundle to verify")
            prefix = made[fam]["prefix"]
            out = os.path.join(ctx.workdir, f"{tag}.report.json")
            code = p.cli(["verify", kind, "--group", prefix + ".bundle.json",
                          "--sets", prefix + sets_file, "--forbidden",
                          prefix + ".forbidden.json", "--out", out], tag)
            with open(out) as fh:
                return code, json.load(fh)

        def genuine(fam):
            def check(result):
                code, report = result
                expect(code == 0 and report.get("ok") is True,
                       f"exit {code}, report {report.get('error')}")
                cert = report["certificates"][0]
                want = made[fam]["certificate"]
                for key in ("m", "n", "k", "lambda", "s", "mu", "nu"):
                    expect(cert.get(key) == want.get(key),
                           f"{key} = {cert.get(key)}, want {want.get(key)}")
                sets = cert["sets"] if "sets" in cert else [cert["set"]]
                expect(sets == made[fam]["sets"], "sets differ")
            return check

        def rejected(result):
            code, report = result
            expect(code == 1 and report.get("ok") is False,
                   f"negative control gave exit {code}, "
                   f"ok = {report.get('ok')}")

        for kind, fam, sets_file, tag, check in (
                ("rds", "thm12", ".bundle.json", "verify-thm12",
                 genuine("thm12")),
                ("linked", "q8-2r", ".bundle.json", "verify-q8-2r",
                 genuine("q8-2r")),
                ("linked", "q8-2r", ".swapped.json", "verify-q8-2r-swap",
                 rejected)):
            p.job("read", tag,
                  lambda kind=kind, fam=fam, sets_file=sets_file, tag=tag:
                  verify(kind, fam, sets_file, tag), check)


WORKLOADS = {w.name: w for w in (Heisenberg, Dps, Fields, Bundle)}
