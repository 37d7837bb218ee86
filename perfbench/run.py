#!/usr/bin/env python3
"""Repository benchmark: the runs users make, at CLI default options.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold|edit|reverify --seed N \
        --seconds S --trace 0|1

Builds the repository's release `autocorres` and `certcheck` binaries and
the `perfbench` helper (`perfbench/Cargo.toml`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates every C input from `--seed` with
`codegen`, and drives the binaries one fresh process per operation in a
closed loop with one client. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs the traced operations (`perfbench` subcommands calling
each layer's public function) and prints the per-layer metrics. The last
stdout line is the JSON result. Run records accumulate in
`.bench_work/records/`; scratch files live in `.bench_work/tmp/`.
See `perfbench/README.md` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
RECORDS = os.path.join(ROOT, ".bench_work", "records")
WORK = os.path.join(ROOT, ".bench_work", "tmp")
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BIN = os.path.join(TARGET, "release")
AUTOCORRES = os.path.join(BIN, "autocorres")
CERTCHECK = os.path.join(BIN, "certcheck")
PERFBENCH = os.path.join(BIN, "perfbench")

# Every run must end within 180 s of its start (builds excluded).
RUN_BUDGET_S = 170.0

# The options `autocorres FILE.c` uses when no flag is given
# (src/bin/autocorres.rs); recorded with every run.
CLI_DEFAULTS = {"level": "wa", "trials": 60, "seed": 2014, "workers": 0, "absint": True}

# The quickstart program (examples/quickstart.rs), the input of the golden
# WA snapshot tests/golden/quickstart_wa.txt.
QUICKSTART_SRC = "int max(int a, int b) {\n    if (a < b)\n        return b;\n    return a;\n}\n"

# Set-up repetitions per workload; `setup_s` is their median. The edit and
# reverify set-ups are priming runs (5 s and 20 s), so they run twice only.
SETUP_REPS = {"cold": 5, "edit": 2, "reverify": 2}

# Edit-loop strata: each round edits one function per index stratum.
EDIT_STRATA = 4

OK_LINE = "all theorems replayed through the checker: OK"


class Proc:
    def __init__(self, wall, rss_mb, code, out, err):
        self.wall, self.rss_mb, self.code, self.out, self.err = wall, rss_mb, code, out, err


class Run:
    """State of one benchmark run: deadline, checks, failures."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.failures = []
        self.child = None
        self.ops_failed = 0
        self.workers = None
        self.extra = {}

    def remaining(self):
        return self.start + RUN_BUDGET_S - time.monotonic()

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def proc(self, args):
        """Runs one process to completion: wall time, peak RSS, output."""
        out_p, err_p = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
        # Flush earlier writes (restored caches, certificates) so their
        # write-back does not land inside this measurement.
        os.sync()
        with open(out_p, "wb") as o, open(err_p, "wb") as e:
            t0 = time.perf_counter()
            p = self.child = subprocess.Popen(args, stdout=o, stderr=e, stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(1.0, self.remaining()), p.kill)
            timer.daemon = True
            timer.start()
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            self.child = None
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_p, encoding="utf-8", errors="replace") as o:
            out = o.read()
        with open(err_p, encoding="utf-8", errors="replace") as e:
            err = e.read()
        return Proc(wall, ru.ru_maxrss / 1024.0, p.returncode, out, err)

    def stop(self, signum, _frame):
        """Signal handler: end the running child, wait for it, exit."""
        if self.child is not None:
            self.child.kill()
            try:
                os.waitpid(self.child.pid, 0)
            except ChildProcessError:
                pass
        sys.exit(128 + signum)

    def traced(self, *args):
        """Runs one `perfbench` traced subcommand; returns (spans, counts)."""
        p = self.proc([PERFBENCH, *args])
        if not self.check(p.code == 0, f"perfbench {args[0]}: exit {p.code}: {p.err.strip()}"):
            return {}, {}
        d = json.loads(p.out.strip().splitlines()[-1])
        spans = {}
        for name, s, e in d["spans"]:
            spans[name] = spans.get(name, 0.0) + (e - s)
        return spans, d["counts"]


def build(run):
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "autocorres", "--bin", "certcheck"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        run.child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        code = run.child.wait()
        run.child = None
        if code != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def fresh_dir(path):
    if os.path.exists(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def dir_stats(path):
    files, size = 0, 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


def gen(run, profile, mix, seed, out):
    p = run.proc([PERFBENCH, "gen", profile, mix, str(seed), out])
    run.check(p.code == 0, f"gen {profile} {mix} {seed}: {p.err.strip()}")
    return out


def fn_lines(stdout):
    """Functions the CLI printed a specification for."""
    return sum(1 for line in stdout.splitlines() if line.endswith("≡"))


def translate_ok(run, p, fns, what):
    """An op's checks: exit 0, every theorem replayed, every function printed."""
    ok = run.check(p.code == 0, f"{what}: exit {p.code}: {p.err.strip()[-300:]}")
    ok = run.check(OK_LINE in p.err, f"{what}: no proof-check verdict") and ok
    return run.check(fn_lines(p.out) == fns, f"{what}: {fn_lines(p.out)} of {fns} functions") and ok


def canaries(run):
    """Canaries: the quickstart WA spec and certificate equal their golden
    files, and every function of the C corpus is proved."""
    q = os.path.join(WORK, "quickstart.c")
    with open(q, "w") as f:
        f.write(QUICKSTART_SRC)
    with open(os.path.join(ROOT, "tests/golden/quickstart_wa.txt")) as f:
        golden = f.read()
    p = run.proc([AUTOCORRES, q, "--fn", "max"])
    run.check(p.code == 0 and p.out == golden + "\n", "canary: quickstart WA spec != golden")
    p = run.proc([CERTCHECK, os.path.join(ROOT, "tests/golden/quickstart.cert"), "--quiet"])
    run.check(p.code == 0, "canary: certcheck rejected tests/golden/quickstart.cert")
    p = run.proc([AUTOCORRES, "--corpus", os.path.join(ROOT, "tests/corpus/c")])
    run.check(p.code == 0 and " 0 failed;" in p.out, "canary: corpus sweep failed")


# ---- workloads -----------------------------------------------------------------

FN_HEADER = re.compile(r"^unsigned fn_(\d+)\(([^)]*)\) \{$", re.M)


def edit_source(src, idx, rng):
    """Replaces the body of `fn_<idx>` with a small seeded body over its
    first unsigned parameter (every generated function returns unsigned)."""
    m = next(m for m in FN_HEADER.finditer(src) if int(m.group(1)) == idx)
    var = next(p.split()[-1] for p in m.group(2).split(",") if p.strip().startswith("unsigned "))
    i, depth = m.end(), 1
    while depth:
        depth += {"{": 1, "}": -1}.get(src[i], 0)
        i += 1
    k1, k2, k3 = rng.randrange(1, 256), rng.randrange(2, 64), rng.randrange(1, 16)
    body = (f"\n    unsigned e = {var} ^ {k1}u;\n    if (e > {k2}u) e = e - {k2}u;\n"
            f"    return e + {k3}u;\n}}")
    return src[: m.end()] + body + src[i:]


def edit_round(rng, n):
    """One round of edited-function indices: one per stratum of the index
    range, in random order. Each draw is uniform within its stratum, so
    every function is equally likely; mirrored strata use antithetic
    offsets (u, 1 - u), which keeps the round's median and sum steady."""
    u = rng.random()
    idx = []
    for j in range(EDIT_STRATA):
        off = u if j < EDIT_STRATA // 2 else 1.0 - u
        idx.append(min(int((j + off) * n / EDIT_STRATA), n - 1))
    rng.shuffle(idx)
    return idx


class Workload:
    """Set-up, one op, and the traced op of a workload."""

    name = ""
    fns = 0
    # A run measures whole rounds of this many ops, and at least one.
    round_ops = 4

    def __init__(self, run, seed):
        self.run, self.seed = run, seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def finish(self):
        """Correctness checks after the measured loop."""


class Cold(Workload):
    """`autocorres FILE.c --check` on a fresh CapDL-scale program per op."""

    name, fns = "cold", 164

    def setup(self):
        canaries(self.run)

    def next_input(self):
        return gen(self.run, "capdl", "table5", self.rng.getrandbits(48),
                   os.path.join(WORK, "op.c"))

    def op(self):
        f = self.next_input()
        p = self.run.proc([AUTOCORRES, f, "--check"])
        ok = translate_ok(self.run, p, self.fns, "cold op")
        return [p], self.fns if ok else 0

    def traced_op(self):
        f = self.next_input()
        real = self.run.proc([AUTOCORRES, f, "--check"])
        translate_ok(self.run, real, self.fns, "cold op")
        cache, save = fresh_dir(os.path.join(WORK, "cache")), fresh_dir(os.path.join(WORK, "save"))
        cert = os.path.join(WORK, "op.cert")
        scratch = self.run.traced("scratch", f)
        session = self.run.traced("session", f, cache, cert)
        store = self.run.traced("store", cache, save)
        check = self.run.traced("certcheck", cert)
        path = sum(scratch[0].values())
        return layer_metrics(self.run, real, path, scratch, session, store, check, cache, save,
                             replay_from=scratch, teardown_from=scratch)


class Edit(Workload):
    """One-function edits of a CapDL-scale audit-mix program against a
    primed `--cache-dir`."""

    name, fns, round_ops = "edit", 164, EDIT_STRATA

    def setup(self):
        canaries(self.run)
        self.base = gen(self.run, "capdl", "audit", self.seed, os.path.join(WORK, "base.c"))
        with open(self.base) as f:
            self.src = f.read()
        self.primed = fresh_dir(os.path.join(WORK, "primed"))
        p = self.run.proc([AUTOCORRES, self.base, "--cache-dir", self.primed, "--check"])
        translate_ok(self.run, p, self.fns, "edit priming")
        self.n = len(FN_HEADER.findall(self.src))
        self.queue = []
        self.first = None

    def next_input(self):
        if not self.queue:
            self.queue = edit_round(self.rng, self.n)
        idx = self.queue.pop()
        path = os.path.join(WORK, "edited.c")
        with open(path, "w") as f:
            f.write(edit_source(self.src, idx, self.rng))
        return path, idx

    def restore(self):
        work = os.path.join(WORK, "cache")
        if os.path.exists(work):
            shutil.rmtree(work)
        shutil.copytree(self.primed, work)
        return work

    def op(self):
        f, idx = self.next_input()
        work = self.restore()
        p = self.run.proc([AUTOCORRES, f, "--cache-dir", work, "--check"])
        ok = translate_ok(self.run, p, self.fns, f"edit op fn_{idx}")
        if ok and self.first is None:
            with open(f) as s:
                self.first = (idx, s.read(), p.out)
        return [p], self.fns if ok else 0

    def finish(self):
        """The first edit op's output equals a scratch translation of the
        same edited source."""
        if self.first is None:
            return
        idx, src, out = self.first
        path = os.path.join(WORK, "scratch.c")
        with open(path, "w") as f:
            f.write(src)
        p = self.run.proc([AUTOCORRES, path, "--check"])
        translate_ok(self.run, p, self.fns, "edit scratch translation")
        self.run.check(p.out == out, f"edit fn_{idx}: cached output != scratch translation")

    def traced_op(self):
        f, _ = self.next_input()
        real = self.run.proc([AUTOCORRES, f, "--cache-dir", self.restore(), "--check"])
        translate_ok(self.run, real, self.fns, "edit op")
        save = fresh_dir(os.path.join(WORK, "save"))
        cert = os.path.join(WORK, "op.cert")
        scratch = self.run.traced("scratch", f)
        session = self.run.traced("session", f, self.restore(), cert)
        store = self.run.traced("store", self.primed, save)
        check = self.run.traced("certcheck", cert)
        path = sum(v for k, v in session[0].items() if k != "cert.encode")
        return layer_metrics(self.run, real, path, scratch, session, store, check, self.primed,
                             save, replay_from=session, teardown_from=session)


class Reverify(Workload):
    """CI re-check of the seL4-scale program from a primed `--cache-dir`,
    then the independent certificate checker."""

    name, fns, round_ops = "reverify", 552, 3

    def setup(self):
        canaries(self.run)
        self.file = gen(self.run, "sel4", "table5", self.seed, os.path.join(WORK, "sel4.c"))
        self.primed = fresh_dir(os.path.join(WORK, "primed"))
        p = self.run.proc([AUTOCORRES, self.file, "--cache-dir", self.primed, "--check"])
        translate_ok(self.run, p, self.fns, "reverify priming")
        self.reference = p.out
        self.cert = os.path.join(WORK, "op.cert")
        self.certcheck = []

    def op(self):
        p = self.run.proc([AUTOCORRES, self.file, "--cache-dir", self.primed, "--check",
                           "--emit-cert", self.cert])
        ok = translate_ok(self.run, p, self.fns, "reverify op")
        ok = self.run.check(p.out == self.reference, "reverify op: output != set-up run") and ok
        c = self.run.proc([CERTCHECK, self.cert, "--quiet"])
        ok = self.run.check(c.code == 0, f"certcheck: {c.err.strip()}") and ok
        self.certcheck.append(c.wall)
        return [p, c], self.fns if ok else 0

    def finish(self):
        """`certcheck` rejects a byte-flipped copy of the certificate."""
        present = os.path.exists(self.cert) and os.path.getsize(self.cert) > 0
        if not self.run.check(present, "reverify: no certificate"):
            return
        with open(self.cert, "rb") as f:
            data = bytearray(f.read())
        data[random.Random(self.seed).randrange(len(data))] ^= 0x01
        bad = os.path.join(WORK, "flipped.cert")
        with open(bad, "wb") as f:
            f.write(data)
        c = self.run.proc([CERTCHECK, bad, "--quiet"])
        self.run.check(c.code != 0, "certcheck accepted a byte-flipped certificate")

    def traced_op(self):
        real = self.run.proc([AUTOCORRES, self.file, "--cache-dir", self.primed, "--check",
                              "--emit-cert", self.cert])
        translate_ok(self.run, real, self.fns, "reverify op")
        c = self.run.proc([CERTCHECK, self.cert, "--quiet"])
        self.run.check(c.code == 0, "certcheck rejected the op's certificate")
        real.wall += c.wall
        save = fresh_dir(os.path.join(WORK, "save"))
        cert = os.path.join(WORK, "traced.cert")
        scratch = self.run.traced("scratch", self.file)
        session = self.run.traced("session", self.file, self.primed, cert)
        store = self.run.traced("store", self.primed, save)
        check = self.run.traced("certcheck", cert)
        with open(self.cert, "rb") as a, open(cert, "rb") as b:
            self.run.check(a.read() == b.read(),
                           "traced session certificate != CLI certificate (options differ?)")
        path = sum(session[0].values()) + check[0].get("cert.check", 0.0)
        return layer_metrics(self.run, real, path, scratch, session, store, check, self.primed,
                             save, replay_from=session, teardown_from=session)


WORKLOADS = {"cold": Cold, "edit": Edit, "reverify": Reverify}

# ---- traced metrics ------------------------------------------------------------

XC_PHASES = ("l1", "l2", "hl", "wa", "absint")

TRANSLATION_SPANS = ("cparser.parse", "simpl.translate", "l1", "l2.translate", "l2.evidence",
                     "heapabs", "wordabs", "absint")


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(run, real, path_s, scratch, session, store, check, loaded_dir, save_dir,
                  replay_from, teardown_from):
    """Per-layer metrics of one traced op, plus the traced-vs-real
    cross-check: the traced chain's theorem and proof-node counts must
    equal the pipeline's own `PipelineStats` phase counts."""
    (ss, sc), (ps, pc), (ts, tc), (cs, cc) = scratch, session, store, check
    for phase in XC_PHASES:
        for kind in ("thms", "proof_nodes"):
            key = f"xc.{phase}.{kind}"
            run.check(key in sc and sc.get(key) == pc.get(key),
                      f"cross-check {key}: traced {sc.get(key)} != pipeline {pc.get(key)}")
    run.check(pc.get("xc.adapt.thms") == 0, "cross-check: adapt theorems outside the traced chain")
    translation = sum(ss.get(k, 0.0) for k in TRANSLATION_SPANS)
    rc = replay_from[1]
    _, loaded_bytes = dir_stats(loaded_dir)
    files_written, _ = dir_stats(os.path.join(save_dir, "artifacts"))
    m = {
        "cparser.parse_s": ss.get("cparser.parse", 0.0),
        "simpl.translate_s": ss.get("simpl.translate", 0.0),
        "l1.s": ss.get("l1", 0.0),
        "l1.proof_nodes": sc.get("xc.l1.proof_nodes", 0),
        "l2.translate_s": ss.get("l2.translate", 0.0),
        "l2.evidence_s": ss.get("l2.evidence", 0.0),
        "l2.evidence_share": ratio(ss.get("l2.evidence", 0.0), translation),
        "l2.oracle_leaves": sc.get("l2.oracle_leaves", 0),
        "heapabs.s": ss.get("heapabs", 0.0),
        "heapabs.proof_nodes": sc.get("xc.hl.proof_nodes", 0),
        "wordabs.s": ss.get("wordabs", 0.0),
        "wordabs.proof_nodes": sc.get("xc.wa.proof_nodes", 0),
        "absint.s": ss.get("absint", 0.0),
        "absint.guards": sc.get("absint.guards", 0),
        "absint.discharge_ratio": ratio(sc.get("absint.discharged", 0), sc.get("absint.guards", 0)),
        "kernel.replay_s": replay_from[0].get("kernel.replay", 0.0),
        "kernel.replay_nodes": rc.get("replay.nodes", 0),
        "kernel.replay_hit_ratio": ratio(rc.get("replay.hits", 0),
                                         rc.get("replay.hits", 0) + rc.get("replay.misses", 0)),
        "cert.encode_s": ps.get("cert.encode", 0.0),
        "cert.mb": pc.get("cert.bytes", 0) / 1e6,
        "cert.check_s": cs.get("cert.check", 0.0),
        "cert.nodes_per_s": ratio(cc.get("cert.nodes", 0), cs.get("cert.check", 0.0)),
        "store.load_s": ts.get("store.load", 0.0),
        "store.load_mb_per_s": ratio(loaded_bytes / 1e6, ts.get("store.load", 0.0)),
        "store.files": tc.get("store.files", 0),
        "store.save_s": ts.get("store.save", 0.0),
        "store.files_written": files_written,
        "store.rejected": tc.get("store.rejected", 0),
        "session.open_s": ps.get("session.open", 0.0),
        "session.translate_s": ps.get("session.translate", 0.0),
        "session.dirty_fns": pc.get("dirty_fns", 0),
        "session.reuse_ratio": ratio(pc.get("cached_nodes", 0), pc.get("phase_jobs", 0)),
        "intern.dedup_ratio": sc.get("intern.dedup_ratio", 0.0),
        "teardown.s": teardown_from[0].get("teardown", 0.0),
        "trace.gap_s": real.wall - path_s,
    }
    run.workers = pc.get("workers")
    return m


# Every metric the benchmark reports, with its unit: end-to-end first,
# then per-layer (BENCHMARK.json lists the same names).
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "fns_per_s": "1/s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}
PER_LAYER = {
    "cparser.parse_s": "s", "simpl.translate_s": "s", "l1.s": "s", "l1.proof_nodes": "count",
    "l2.translate_s": "s", "l2.evidence_s": "s", "l2.evidence_share": "ratio",
    "l2.oracle_leaves": "count", "heapabs.s": "s", "heapabs.proof_nodes": "count",
    "wordabs.s": "s", "wordabs.proof_nodes": "count", "absint.s": "s", "absint.guards": "count",
    "absint.discharge_ratio": "ratio", "kernel.replay_s": "s", "kernel.replay_nodes": "count",
    "kernel.replay_hit_ratio": "ratio", "cert.encode_s": "s", "cert.mb": "MB",
    "cert.check_s": "s", "cert.nodes_per_s": "1/s", "store.load_s": "s",
    "store.load_mb_per_s": "MB/s", "store.files": "count", "store.save_s": "s",
    "store.files_written": "count", "store.rejected": "count", "session.open_s": "s",
    "session.translate_s": "s", "session.dirty_fns": "count", "session.reuse_ratio": "ratio",
    "intern.dedup_ratio": "ratio", "teardown.s": "s", "trace.gap_s": "s",
}


# ---- the run -------------------------------------------------------------------


def measure(run, wl):
    reps = 1 if run.args.trace else SETUP_REPS[wl.name]
    setup = []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)

    t0 = time.monotonic()
    results = []

    def one(op):
        before = len(run.failures)
        results.append(op())
        run.ops_failed += len(run.failures) > before

    if run.args.trace:
        while not results or time.monotonic() - t0 < run.args.seconds:
            one(wl.traced_op)
        return len(results), {k: statistics.median(m[k] for m in results) for k in PER_LAYER}

    while not results or len(results) % wl.round_ops or time.monotonic() - t0 < run.args.seconds:
        one(wl.op)
    wl.finish()
    probe = run.proc([PERFBENCH, "workers", os.path.join(WORK, "quickstart.c")])
    if run.check(probe.code == 0, f"workers probe: {probe.err.strip()}"):
        run.workers = json.loads(probe.out)["workers"]
    walls = [sum(p.wall for p in procs) for procs, _ in results]
    run.extra = {"setup_reps_s": setup, "op_s": walls}
    if isinstance(wl, Reverify):
        run.extra["certcheck_s_p50"] = statistics.median(wl.certcheck)
    return len(results), {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(walls),
        "fns_per_s": sum(fns for _, fns in results) / sum(walls),
        "peak_rss_mb": max(p.rss_mb for procs, _ in results for p in procs),
    }


def source_digest():
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(base) for n in ns)
        for p in paths:
            if "/target/" in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout, when the checkout itself is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run = Run(args)
    signal.signal(signal.SIGTERM, run.stop)
    signal.signal(signal.SIGINT, run.stop)
    build(run)
    run.start = time.monotonic()
    fresh_dir(WORK)
    wl = WORKLOADS[args.workload](run, args.seed)
    ops, metrics = measure(run, wl)
    shutil.rmtree(WORK)

    # A failed check outside an op counts as one more failed operation.
    extra = len(run.failures) - run.ops_failed
    attempted, failed = ops + extra, run.ops_failed + extra
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cli_defaults": CLI_DEFAULTS,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "failures": run.failures,
        "workers": run.workers,
        **run.extra,
        "metrics": metrics,
    }
    os.makedirs(RECORDS, exist_ok=True)
    with open(os.path.join(RECORDS, f"{args.workload}-{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:9} {name:26} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
