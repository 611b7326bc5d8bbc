#!/usr/bin/env python3
"""SilverVale benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper|mutants|daemon --seed N \
        --seconds S --trace 0|1 [--list-failures]

Run from the root of a source checkout. It builds `sv` and the in-process
probe (perfbench/probe.ml) into .bench_build/, drives the real `sv` binary
for --seconds seconds (one-shot CLI processes, or one resident `sv serve`
over its socket), checks every output against answers computed apart from
the measured processes, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from an
in-process replay with spans around each layer's public calls.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import socket
import statistics
import struct
import subprocess
import sys
import time

BUILD = os.path.join(".bench_build", "dune")
WORK = os.path.join(".bench_build", "work")
SV = os.path.join(BUILD, "default", "bin", "sv.exe")
PROBE = os.path.join(BUILD, "default", "perfbench", "probe.exe")
CALIB = os.path.join(BUILD, "default", "perfbench", "calib.exe")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- environment --------------------------------------------------------


def pinned_env():
    """The environment every measured process sees: no SV_* setting and no
    OCAMLRUNPARAM, so jobs, caches, sockets, faults and GC come only from
    the flags this script passes."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SV_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


ENV = pinned_env()


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "sv.ml"))):
        raise BenchError("not a SilverVale source checkout (no dune-project or bin/sv.ml)")
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD), "--display", "quiet",
         "bin/sv.exe", "perfbench/probe.exe", "perfbench/calib.exe"],
        env=ENV, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0 or not all(os.path.isfile(f) for f in (SV, PROBE, CALIB)):
        raise BenchError("build failed")


def host_facts():
    def out(cmd):
        try:
            return subprocess.run(cmd, env=ENV, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    digest = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    with open(os.path.join(d, f), "rb") as fh:
                        digest.update(f.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocaml", "-version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "no git",
        "source_sha256": digest.hexdigest()[:16],
        "loadavg": os.getloadavg(),
    }


# --- measured processes -------------------------------------------------


class Proc:
    """One finished `sv` process: start and end, wall time, child rusage,
    output."""

    def __init__(self, args, out_path):
        self.t0 = time.perf_counter()
        with open(out_path, "wb") as out:
            p = subprocess.Popen([SV] + args, stdout=out, stderr=subprocess.DEVNULL, env=ENV)
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.t1 = time.perf_counter()
        self.wall = self.t1 - self.t0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.ok = p.returncode == 0
        with open(out_path, encoding="utf-8") as fh:
            self.out = fh.read()


class Calibrator:
    """The host's speed, sampled through the run (README.md, "Host speed").

    On a shared host the CPU's speed drifts over seconds to minutes, and
    processes slow together: the same `sv` command run back to back took
    0.17-0.31 s, its user time moving with its wall time. perfbench/calib.ml
    is a fixed kernel that links no repository code, so its cost moves only
    with the host. It runs between measured operations, once per CAL_EVERY
    seconds, and its time is left out of every measured interval. Each
    measured interval is then put at the reference speed: its time x
    CAL_REF_S / the median time of the kernel runs around it. Over six
    drifting mutants runs this took the per-run warm-half spread from 0.31
    to 0.03; one factor for the whole run left 0.10."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds)
        self.spent = 0.0
        self.last = time.perf_counter()

    def maybe(self):
        if time.perf_counter() - self.last >= CAL_EVERY:
            self.run()

    def run(self):
        t0 = time.perf_counter()
        r = subprocess.run([CALIB], env=ENV, capture_output=True, text=True, timeout=60)
        t1 = time.perf_counter()
        if r.returncode != 0 or r.stdout != CAL_OUTPUT:
            raise BenchError("calibration kernel failed: %r" % r.stdout)
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0
        self.last = t1

    def at(self, t0, t1, value):
        """`value`, measured over [t0, t1], at the reference speed: scaled
        by the median of the kernel runs inside the interval, or of the
        CAL_NEAR runs nearest its middle when fewer ran inside."""
        while len(self.samples) < CAL_NEAR:
            self.run()
        near = [d for m, d in self.samples if t0 <= m <= t1]
        if len(near) < CAL_NEAR:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda md: abs(md[0] - mid))[:CAL_NEAR]]
        return value * CAL_REF_S / statistics.median(near)


CAL_EVERY = 0.5  # seconds of measured work between kernel runs
CAL_NEAR = 5
CAL_REF_S = 0.13  # the kernel's median time on the 2-core reference host
CAL_OUTPUT = "calib 58321 4096 4347 768\n"
CAL = Calibrator()


def report_times(res, metrics):
    """metrics(at) gives the time metrics {name: (value, unit)}, with every
    measured interval passed through at(t0, t1, value). They go to res at
    the reference speed, and as measured to the run's info line."""
    res.info["measured"] = {n: v for n, (v, _) in metrics(lambda t0, t1, v: v).items()}
    res.metrics.update(metrics(CAL.at))
    res.info["calib"] = {"runs": len(CAL.samples),
                         "median_s": statistics.median(d for _, d in CAL.samples)}


def span(t0):
    """(t0, now, seconds since t0)."""
    t1 = time.perf_counter()
    return t0, t1, t1 - t0


def fresh_file(path):
    with open(path, "wb"):
        pass
    return path


def probe(cmd, job, tag):
    jp = os.path.join(WORK, tag + "-job.json")
    op = os.path.join(WORK, tag + "-out.json")
    with open(jp, "w") as fh:
        json.dump(job, fh)
    r = subprocess.run([PROBE, cmd, jp, op], env=ENV, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError("probe %s failed: %s" % (cmd, r.stderr.strip()[-400:]))
    with open(op) as fh:
        return json.load(fh)


def quantile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def rounds_until(seconds, run_round):
    """Call run_round() for whole rounds while another round is predicted to
    end within `seconds`; always at least one."""
    t0 = time.perf_counter()
    k = 0
    while True:
        r0 = time.perf_counter()
        run_round()
        k += 1
        last = time.perf_counter() - r0
        if time.perf_counter() - t0 + last > seconds:
            return k


# --- checkers -------------------------------------------------------------
# Each returns a list of problems; [] means the output passed. self_test()
# feeds every one of them a wrong input, so a pass is never vacuous.

CACHE_LINE = re.compile(r"^(ted|index|metric)-cache: .*\(saved to [^)]*\)$")
NUM = re.compile(r"\d+\.\d+")


def strip_cache_lines(text):
    return "".join(l for l in text.splitlines(True) if not CACHE_LINE.match(l.rstrip("\n")))


def normalised(d, dmax):
    if dmax == 0:
        return 0.0 if d == 0 else 1.0
    return min(1.0, d / dmax)


def parse_heatmap(text):
    """Cells of the first box-drawn matrix in `text`, as printed strings."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("│"):
            if rows:
                break
            continue
        cols = [c.strip() for c in line.strip("│").split("│")]
        if cols[0] == "":
            continue  # header row
        rows.append([NUM.search(c).group(0) for c in cols[1:]])
    return rows


def check_matrix(cells, sizes):
    """Square, zero diagonal, cells in [0, 1], and symmetric in raw d:
    a printed cell c at (i, j) bounds d to [(c - .005) s_j, (c + .005) s_j]
    (no upper bound when clamped at 1), and the two intervals of (i, j)
    and (j, i) must meet."""
    n = len(sizes)
    errs = []
    if len(cells) != n or any(len(r) != n for r in cells):
        return ["matrix is not %dx%d" % (n, n)]

    def interval(i, j):
        c = float(cells[i][j])
        return ((c - 0.005) * sizes[j], float("inf") if c >= 1.0 else (c + 0.005) * sizes[j])

    for i in range(n):
        if cells[i][i] != "0.00":
            errs.append("diagonal cell %d is %s" % (i, cells[i][i]))
        for j in range(n):
            if not 0.0 <= float(cells[i][j]) <= 1.0:
                errs.append("cell (%d,%d) = %s outside [0, 1]" % (i, j, cells[i][j]))
            if i < j:
                (a0, a1), (b0, b1) = interval(i, j), interval(j, i)
                if max(a0, b0) > min(a1, b1) + 1e-9:
                    errs.append("cells (%d,%d)=%s and (%d,%d)=%s are not symmetric in raw d"
                                % (i, j, cells[i][j], j, i, cells[j][i]))
    return errs


def check_pairs(cells, sizes, pairs):
    """Sampled pairs: the flat kernel equals reference Zhang-Shasha, the
    Source distance equals the LCS distance, and the printed cells in both
    directions are the reference distance over the target's size."""
    errs = []
    for p in pairs:
        i, j, zs = p["i"], p["j"], p["zs"]
        if p["flat"] != zs:
            errs.append("pair (%d,%d): program TED %d, reference %d" % (i, j, p["flat"], zs))
        if p["source"] != p["lcs"]:
            errs.append("pair (%d,%d): program Source %d, LCS %d" % (i, j, p["source"], p["lcs"]))
        for a, b in ((i, j), (j, i)):
            want = "%.2f" % normalised(zs, sizes[b])
            if cells and cells[a][b] != want:
                errs.append("cell (%d,%d) = %s, reference %s" % (a, b, cells[a][b], want))
    return errs


def check_triangle(triples):
    errs = []
    for t in triples:
        ab, bc, ac = t["d"]
        if ac > ab + bc:
            errs.append("triangle %s: %d > %d + %d" % (t["abc"], ac, ab, bc))
    return errs


def parse_compare(text):
    rows = {}
    for line in text.splitlines():
        cols = [c.strip() for c in line.strip("│").split("│")]
        if len(cols) == 4 and re.fullmatch(r"\d+", cols[1]):
            rows[cols[0]] = (int(cols[1]), int(cols[2]), cols[3])
    return rows


def check_compare(text, fresh):
    """Every metric row of a `compare` table equals the fresh (d, dmax), its
    normalised column is d/dmax to three places, and Source d equals the
    LCS reference."""
    rows = parse_compare(text)
    errs = []
    for label, (d, dmax) in fresh["rows"].items():
        if label not in rows:
            errs.append("compare output lacks row %s" % label)
            continue
        pd, pdmax, pnorm = rows[label]
        if (pd, pdmax) != (d, dmax):
            errs.append("%s: printed d/dmax %d/%d, fresh %d/%d" % (label, pd, pdmax, d, dmax))
        if pnorm != "%.3f" % normalised(d, dmax):
            errs.append("%s: normalised %s, expected %.3f" % (label, pnorm, normalised(d, dmax)))
    if "Source" in rows and rows["Source"][0] != fresh["lcs"]:
        errs.append("Source d %d, LCS reference %d" % (rows["Source"][0], fresh["lcs"]))
    return errs


def check_warm(cold, warm):
    if strip_cache_lines(cold) != strip_cache_lines(warm):
        return ["warm output differs from its cold output"]
    return []


def first_difference(reply, fresh):
    """None when equal, else where they first differ, as line:column and
    the two differing cells."""
    if reply == fresh:
        return None
    a, b = reply.splitlines(), fresh.splitlines()
    for ln, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            xs, ys = x.split("│"), y.split("│")
            for col, (cx, cy) in enumerate(zip(xs, ys)):
                if cx != cy:
                    return "line %d cell %d: got %r, fresh %r" % (ln, col, cx.strip(), cy.strip())
            return "line %d: got %r, fresh %r" % (ln, x, y)
    return "length %d lines, fresh %d lines" % (len(a), len(b))


def self_test():
    """Feed each checker a wrong input and require a complaint (and the
    right input and require none)."""
    sizes = [100, 100, 200]
    good = [["0.00", "0.10", "0.25"], ["0.10", "0.00", "0.25"], ["0.50", "0.50", "0.00"]]
    pair = {"i": 0, "j": 2, "zs": 50, "flat": 50, "lcs": 7, "source": 7}
    fresh = {"rows": {"T_sem": (12, 48)}, "lcs": 3}
    table = "│ Source  │ 3 │ 9 │ 0.333 │\n│ T_sem │ 12 │ 48 │ 0.250 │\n"
    cases = [
        ("matrix", lambda: check_matrix(good, sizes),
         lambda: check_matrix([good[0], ["0.40", "0.00", "0.25"], good[2]], sizes)),
        ("ted cell", lambda: check_pairs(good, sizes, [pair]),
         lambda: check_pairs(good, sizes, [dict(pair, zs=51, flat=51)])),
        ("ted kernel", lambda: check_pairs(good, sizes, [pair]),
         lambda: check_pairs(good, sizes, [dict(pair, flat=49)])),
        ("triangle", lambda: check_triangle([{"abc": [0, 1, 2], "d": [3, 4, 7]}]),
         lambda: check_triangle([{"abc": [0, 1, 2], "d": [3, 4, 8]}])),
        ("compare", lambda: check_compare(table, fresh),
         lambda: check_compare(table.replace("│ 12 │", "│ 13 │"), fresh)),
        ("warm", lambda: check_warm("a\nted-cache: 1 entries, 0 hits / 1 misses this run (saved to x)\n",
                                    "a\nted-cache: 1 entries, 1 hits / 0 misses this run (saved to y)\n"),
         lambda: check_warm("a 0.12\n", "a 0.13\n")),
        ("daemon reply", lambda: [] if first_difference(table, table) is None else ["equal flagged"],
         lambda: [] if first_difference(table.replace("48", "49"), table) is None else ["changed"]),
    ]
    for name, right, wrong in cases:
        if right():
            raise BenchError("checker self-test %s: flags a right input: %s" % (name, right()))
        if not wrong():
            raise BenchError("checker self-test %s: passes a wrong input" % name)


def sample_pairs(rng, n, k):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [list(p) for p in rng.sample(pairs, min(k, len(pairs)))]


def sample_triples(rng, n, k):
    return [rng.sample(range(n), 3) for _ in range(k)] if n >= 3 else []


def check_corpus_outputs(facts, outputs, errs):
    """Matrix, sampled-pair, triangle and verification checks of every
    printed heatmap of one corpus."""
    sizes = facts["sizes"]
    if not all(facts["verified"]):
        errs.append("%s: interpreter verification failed for %s" % (
            facts["app"], [m for m, v in zip(facts["models"], facts["verified"]) if not v]))
    errs.extend("%s: %s" % (facts["app"], e) for e in check_triangle(facts["triples"]))
    for out in outputs:
        cells = parse_heatmap(out)
        errs.extend("%s: %s" % (facts["app"], e) for e in check_matrix(cells, sizes))
        errs.extend("%s: %s" % (facts["app"], e) for e in check_pairs(cells, sizes, facts["pairs"]))


class Timings:
    """Per-round figures of a cold-then-warm workload of one-shot commands,
    and the nine end-to-end metrics made from them.

    The commands of a round are different commands whose latencies form
    one cluster per command, so a median over single commands falls on
    whichever command happens to be in the middle, and moved by 0.15-0.2
    between runs. The p50 latencies are therefore the median over rounds
    of each half's mean command latency, and the p90 the median over
    rounds of the 90th percentile of each round's warm latencies. A p90
    over a run's 15-21 single warm commands is its second or third
    largest, and spread 0.20 over ten runs where the other times spread
    0.09 or less.

    The warm half of a round runs its commands `warm_passes` times:
    warm commands are short, and with one pass the warm figures of
    `paper` spread 0.18 over ten runs. warm_s is per pass."""

    def __init__(self, warm_passes):
        self.warm_passes = warm_passes
        self.rounds = []  # (start, end, wall without calibration, cold, warm)

    def round(self, res, run):
        """run(cold, warm) executes one round: cold(argv, out) for each cold
        command, then warm(argv, out) for each warm one; both return the
        finished Proc."""
        cold, warm = [], []

        def caller(procs):
            def call(argv, out):
                procs.append(Proc(argv, out))
                CAL.maybe()
                return procs[-1]
            return call

        t0, cal0 = time.perf_counter(), CAL.spent
        run(caller(cold), caller(warm))
        t1 = time.perf_counter()
        self.rounds.append((t0, t1, t1 - t0 - (CAL.spent - cal0), cold, warm))
        res.attempted += len(cold) + len(warm)
        res.failed += sum(not p.ok for p in cold + warm)

    def report(self, res, setups):
        """setups: (start, end, seconds) of each set-up."""
        res.metrics["peak_rss_mb"] = (max(p.rss_mb for *_, c, w in self.rounds for p in c + w), "MiB")

        def metrics(at):
            def wall(p):
                return at(p.t0, p.t1, p.wall)
            walls = [at(t0, t1, w) for t0, t1, w, _, _ in self.rounds]
            return {
                "setup_s": (statistics.median(at(*s) for s in setups), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "warm_s": (statistics.median(sum(map(wall, w)) / self.warm_passes
                                             for *_, w in self.rounds), "s"),
                "cpu_s": (statistics.median(sum(at(p.t0, p.t1, p.cpu) for p in c + w)
                                            for *_, c, w in self.rounds), "s"),
                "warm_p50_ms": (1e3 * statistics.median(statistics.mean(map(wall, w))
                                                        for *_, w in self.rounds), "ms"),
                "warm_p90_ms": (1e3 * statistics.median(
                    statistics.quantiles(map(wall, w), n=10, method="inclusive")[8]
                    for *_, w in self.rounds), "ms"),
                "cold_p50_ms": (1e3 * statistics.median(statistics.mean(map(wall, c))
                                                        for *_, c, _ in self.rounds), "ms"),
                "rps": (sum(len(c) + len(w) for *_, c, w in self.rounds) / sum(walls), "req/s"),
            }
        report_times(res, metrics)


# --- workload: paper ------------------------------------------------------

PAPER_CMDS = [
    ["compare", "-a", "tealeaf", "-b", "serial", "-t", "cuda"],
    ["compare", "-a", "cloverleaf", "-b", "serial", "-t", "kokkos"],
    ["cluster", "-a", "babelstream-f", "-m", "t_src"],
]


PAPER_WARM_PASSES = 3


def paper(args, rng, res):
    def cached(cmd, idx, ted):
        return cmd + ["-j", "1", "--index-cache", idx, "--ted-cache", ted]

    setups = []
    for k in range(3):
        CAL.run()
        t0 = time.perf_counter()
        d = os.path.join(WORK, "paper-shared-%d" % k)
        os.makedirs(d, exist_ok=True)
        shared = (fresh_file(os.path.join(d, "index.cache")), fresh_file(os.path.join(d, "ted.cache")))
        for i, cmd in enumerate(PAPER_CMDS):
            if not Proc(cached(cmd, *shared), os.path.join(d, "prime%d.out" % i)).ok:
                raise BenchError("priming the shared cache failed: %s" % cmd)
        setups.append(span(t0))
    cold_idx, cold_ted = os.path.join(WORK, "cold-index.cache"), os.path.join(WORK, "cold-ted.cache")
    cold_out, warm_out = {}, {}
    t = Timings(PAPER_WARM_PASSES)

    def one_round():
        def run(cold, warm):
            for i in rng.sample(range(len(PAPER_CMDS)), len(PAPER_CMDS)):
                p = cold(cached(PAPER_CMDS[i], fresh_file(cold_idx), fresh_file(cold_ted)),
                         os.path.join(WORK, "cold%d.out" % i))
                cold_out.setdefault(i, []).append(p.out)
            for _ in range(PAPER_WARM_PASSES):
                for i in rng.sample(range(len(PAPER_CMDS)), len(PAPER_CMDS)):
                    p = warm(cached(PAPER_CMDS[i], *shared), os.path.join(WORK, "warm%d.out" % i))
                    warm_out.setdefault(i, []).append(p.out)
        t.round(res, run)

    res.info["rounds"] = rounds_until(args.seconds, one_round)
    t.report(res, setups)

    # checks, outside the timed phase
    bsf = len(parse_heatmap(cold_out[2][0]))
    facts = probe("check", {
        "compares": [{"app": c[2], "base": c[4], "target": c[6]} for c in PAPER_CMDS[:2]],
        "corpora": [{"app": "babelstream-f", "metric": "t_src",
                     "pairs": sample_pairs(rng, bsf, 4), "triples": sample_triples(rng, bsf, 2)}],
    }, "paper-check")
    errs = res.errors
    for i in range(len(PAPER_CMDS)):
        if any(o != cold_out[i][0] for o in cold_out[i]):
            errs.append("%s: cold output changes between rounds" % PAPER_CMDS[i])
        for w in warm_out[i]:
            errs.extend("%s: %s" % (PAPER_CMDS[i], e) for e in check_warm(cold_out[i][0], w))
        if i < 2:
            fresh = facts["compares"][i]
            if not all(fresh["verified"]):
                errs.append("%s: interpreter verification failed" % PAPER_CMDS[i])
            errs.extend("%s: %s" % (PAPER_CMDS[i], e) for e in check_compare(cold_out[i][0], fresh))
        else:
            check_corpus_outputs(facts["corpora"][0], [cold_out[i][0]], errs)
    ops = []
    for cache in (None, {"index": os.path.abspath(shared[0]), "ted": os.path.abspath(shared[1])}):
        ops += [{"op": "compare", "app": c[2], "base": c[4], "target": c[6], "cache": cache}
                for c in PAPER_CMDS[:2]]
        ops.append({"op": "cluster", "app": "babelstream-f", "metric": "t_src", "cache": cache})
    return ops


# --- workload: mutants ----------------------------------------------------

# One C++ and two Fortran corpora, generated from fixed spec seeds. A
# seeded choice of corpora moved a run's cost by a coefficient of variation
# of 0.19 per corpus pair, which no affordable run length averages out; the
# run's --seed orders the commands instead. Three corpora keep a round
# near 3 s, so a run has several rounds to take the median of; with nine,
# a round took 8-10 s and a slow stretch of the host left one round.
N_CPP = 1
MUTANT_CORPORA = ["gen:mutate:babelstream:1:5"] + \
    ["gen:mutate:babelstream-f:%d:12" % s for s in (1, 2)]
MUTANT_WARM_PASSES = 2


def mutants(args, rng, res):
    """Each round clusters every corpus cold against empty cache files,
    then MUTANT_WARM_PASSES times warm against the caches the cold runs
    saved, each pass in a seeded order."""
    n = len(MUTANT_CORPORA)
    setups = []
    for k in range(3):
        CAL.run()
        t0 = time.perf_counter()
        d = os.path.join(WORK, "mutants-%d" % k)
        os.makedirs(d, exist_ok=True)
        for j in (0, N_CPP):
            if not Proc(["gen", "--spec", MUTANT_CORPORA[j], "-o", os.path.join(d, str(j))],
                        os.path.join(WORK, "gen.out")).ok:
                raise BenchError("sv gen failed for %s" % MUTANT_CORPORA[j])
        setups.append(span(t0))
    outs, warm_outs = {}, {}
    t = Timings(MUTANT_WARM_PASSES)
    caches = [(os.path.join(WORK, "cold-index%d.cache" % j), os.path.join(WORK, "cold-ted%d.cache" % j))
              for j in range(n)]

    def argv(j):
        return ["cluster", "-a", MUTANT_CORPORA[j], "-m", "t_sem", "-j", "1",
                "--index-cache", caches[j][0], "--ted-cache", caches[j][1]]

    def one_round():
        def run(cold, warm):
            for j in rng.sample(range(n), n):
                fresh_file(caches[j][0])
                fresh_file(caches[j][1])
                outs.setdefault(j, []).append(cold(argv(j), os.path.join(WORK, "mutants.out")).out)
            for _ in range(MUTANT_WARM_PASSES):
                for j in rng.sample(range(n), n):
                    warm_outs.setdefault(j, []).append(warm(argv(j), os.path.join(WORK, "mutants.out")).out)
        t.round(res, run)

    res.info["rounds"] = rounds_until(args.seconds, one_round)
    t.report(res, setups)

    # every corpus: verification, matrix properties, cold/warm and
    # round-to-round identity; reference pairs and triangles on a seeded
    # C++ and Fortran corpus
    picks = (rng.randrange(N_CPP), rng.randrange(N_CPP, n))
    jobs = []
    for j, spec in enumerate(MUTANT_CORPORA):
        m = len(parse_heatmap(outs[j][0]))
        jobs.append({"app": spec, "metric": "t_sem",
                     "pairs": sample_pairs(rng, m, 1 if j < N_CPP else 3) if j in picks else [],
                     "triples": sample_triples(rng, m, 2) if j in picks else []})
    facts = probe("check", {"corpora": jobs}, "mutants-check")
    for j, f in enumerate(facts["corpora"]):
        spec = MUTANT_CORPORA[j]
        if any(o != outs[j][0] for o in outs[j]):
            res.errors.append("%s: cold output changes between rounds" % spec)
        for w in warm_outs[j]:
            res.errors.extend("%s: %s" % (spec, e) for e in check_warm(outs[j][0], w))
        check_corpus_outputs(f, [outs[j][0]], res.errors)
    rel = [{"index": "mutants%d-index.cache" % j, "ted": "mutants%d-ted.cache" % j} for j in picks]
    return [{"op": "cluster", "app": MUTANT_CORPORA[j], "metric": "t_sem", "cache": rel[i]}
            for _ in ("cold", "warm") for i, j in enumerate(picks)]


# --- workload: daemon -----------------------------------------------------

DAEMON_CYCLES = 3
DAEMON_SETUPS = 12  # set-up-only daemon starts; each start takes ~7 ms
DAEMON_CORPORA = ["babelstream-f"] + ["gen:mutate:babelstream-f:%d:4" % s for s in range(1, 13)]


class Daemon:
    """One `sv serve -j 1` on a private socket with fresh cache files, and
    one client connection speaking its length-prefixed JSON frames."""

    def __init__(self, tag):
        d = os.path.join(WORK, tag)
        os.makedirs(d, exist_ok=True)
        self.sock_path = os.path.join(d, "s.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        caches = [fresh_file(os.path.join(d, n)) for n in ("index.cache", "ted.cache", "metric.cache")]
        self.log = open(os.path.join(d, "serve.out"), "wb")
        self.proc = subprocess.Popen(
            [SV, "serve", "--socket", self.sock_path, "-j", "1", "--index-cache", caches[0],
             "--ted-cache", caches[1], "--metric-cache", caches[2]],
            stdout=self.log, stderr=subprocess.STDOUT, env=ENV)
        self.sent = 0
        self.conn = None
        deadline = time.monotonic() + 30
        while self.conn is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("sv serve did not come up")
            try:
                c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                c.connect(self.sock_path)
                self.conn = c
            except OSError:
                c.close()
                time.sleep(0.001)
        self.status()

    def call(self, req):
        payload = json.dumps(req, separators=(",", ":")).encode()
        self.conn.sendall(struct.pack(">I", len(payload)) + payload)
        self.sent += 1
        n = struct.unpack(">I", self._recv(4))[0]
        return json.loads(self._recv(n))

    def _recv(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.conn.recv(n - len(buf))
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
        return buf

    def status(self):
        r = self.call({"verb": "status"})
        if r.get("status") != "ok":
            raise BenchError("status failed: %s" % r)
        return r

    def cpu(self):
        with open("/proc/%d/stat" % self.proc.pid) as fh:
            f = fh.read().rsplit(")", 1)[1].split()
        return (int(f[11]) + int(f[12])) / CLK_TCK

    def stop(self):
        """Shut down, reap, and return the daemon's max RSS in MiB."""
        try:
            if self.conn is not None:
                self.call({"verb": "shutdown"})
        except (OSError, BenchError, ValueError):
            pass
        if self.conn is not None:
            self.conn.close()
        deadline = time.monotonic() + 30
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, ru = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return ru.ru_maxrss / 1024.0


def daemon_requests(facts):
    """Phase A: every distinct request once, corpus by corpus, first touch of
    each corpus a T_sem matrix; then one status."""
    reqs = []
    for f in facts:
        app, m = f["app"], f["models"]
        reqs += [
            {"verb": "matrix", "app": app, "metric": "t_sem"},
            {"verb": "index", "app": app, "model": m[0]},
            {"verb": "compare", "app": app, "base": m[0], "target": m[1]},
            {"verb": "cluster", "app": app, "metric": "t_sem"},
            {"verb": "nearest", "app": app, "model": m[0], "metric": "t_sem", "k": 3},
        ]
    return reqs + [{"verb": "status"}]


def daemon(args, rng, res):
    sample = rng.sample(range(len(DAEMON_CORPORA)), 2)
    corpora = probe("check", {"corpora": [
        {"app": app, "metric": "t_sem",
         "pairs": [[0, 1], [1, 2]] if k in sample else [],
         "triples": [[0, 1, 2]] if k in sample else []}
        for k, app in enumerate(DAEMON_CORPORA)]}, "daemon-facts")["corpora"]
    reqs = daemon_requests(corpora)
    fresh = probe("check", {"requests": reqs}, "daemon-fresh")["requests"]

    # DAEMON_CYCLES cycles, each on a fresh daemon: Phase A sends every request
    # once in a fixed order (cold), Phase B repeats them in rounds (warm).
    # A Phase B round visits the corpora in a seeded order and sends each
    # corpus's requests together, in the Phase A order. With the order
    # inside a corpus seeded too, the verb that pays for regenerating the
    # corpus changed from round to round, and the median latency jumped
    # between the sub-millisecond and the several-millisecond verbs.
    groups = {}
    for i, q in enumerate(reqs):
        groups.setdefault(q.get("app"), []).append(i)
    setups = []
    for k in range(DAEMON_SETUPS):
        if k % 4 == 0:
            CAL.run()
        t0 = time.perf_counter()
        d = Daemon("daemon-setup")
        setups.append(span(t0))
        d.stop()
    replies = []  # (request index, reply)
    # (start, end, seconds) of each measured interval, less calibration
    cold, warm, warm_rounds, walls_a, cpus_a, phase_b, rss = [], [], [], [], [], [], []
    status_errs = []
    rounds = 0
    for cycle in range(DAEMON_CYCLES):
        t0 = time.perf_counter()
        d = Daemon("daemon-%d" % cycle)
        setups.append(span(t0))

        def send(i):
            t0 = time.perf_counter()
            r = d.call(reqs[i])
            took = span(t0)
            CAL.maybe()
            replies.append((i, r))
            if reqs[i]["verb"] == "status":
                c = {k: r.get(k) for k in ("requests", "served", "errors", "overloaded")}
                if c["requests"] != d.sent or c["served"] + c["errors"] + c["overloaded"] + 1 != c["requests"] \
                        or c["errors"] or c["overloaded"]:
                    status_errs.append("status counters inconsistent: %s after %d requests" % (c, d.sent))
            return took

        try:
            cycle_t0, cal0 = time.perf_counter(), CAL.spent
            cpu0 = d.cpu()
            for i in range(len(reqs)):
                took = send(i)
                if reqs[i]["verb"] == "matrix":
                    cold.append(took)
            t0, t1, wall = span(cycle_t0)
            walls_a.append((t0, t1, wall - (CAL.spent - cal0)))
            cpus_a.append((t0, t1, d.cpu() - cpu0))
            tb, cal_b = time.perf_counter(), CAL.spent

            def one_round():
                r0, cal_r = time.perf_counter(), CAL.spent
                for g in rng.sample(sorted(groups, key=str), len(groups)):
                    for i in groups[g]:
                        warm.append(send(i))
                t0, t1, wall = span(r0)
                warm_rounds.append((t0, t1, wall - (CAL.spent - cal_r)))

            rounds += 1 + rounds_until(
                max(0.0, args.seconds / DAEMON_CYCLES - (time.perf_counter() - cycle_t0)), one_round)
            t0, t1, wall = span(tb)
            phase_b.append((t0, t1, wall - (CAL.spent - cal_b)))
        finally:
            rss.append(d.stop())
    res.info["rounds"] = rounds
    res.metrics["peak_rss_mb"] = (max(rss), "MiB")

    def metrics(at):
        def med(spans):
            return statistics.median(at(*x) for x in spans)
        return {
            "setup_s": (med(setups), "s"),
            "wall_s": (med(walls_a), "s"),
            "warm_s": (med(warm_rounds), "s"),
            "cpu_s": (med(cpus_a), "s"),
            "warm_p50_ms": (1e3 * med(warm), "ms"),
            "warm_p90_ms": (1e3 * quantile([at(*x) for x in warm], 0.9), "ms"),
            "cold_p50_ms": (1e3 * med(cold), "ms"),
            "rps": (len(warm) / sum(at(*x) for x in phase_b), "req/s"),
        }
    report_times(res, metrics)
    res.info["warm_samples"] = len(warm)
    res.info["cold_samples"] = len(cold)

    # checks
    res.errors.extend(status_errs)
    res.attempted += len(replies)
    by_app = {f["app"]: f for f in corpora}
    fps = {}
    for f in corpora:
        for fp in f["fingerprints"]:
            fps.setdefault(fp, set()).add(f["app"])
    failures = {}
    for i, r in replies:
        if reqs[i]["verb"] == "status":
            continue
        if r.get("status") != "ok":
            res.failed += 1
            res.errors.append("request %s answered %s" % (reqs[i], r))
            continue
        diff = first_difference(r["output"], fresh[i])
        if diff is None:
            continue
        res.failed += 1
        failures.setdefault(i, diff)
    for i, diff in sorted(failures.items()):
        app = reqs[i]["app"]
        shared = any(len(fps[fp]) > 1 for fp in by_app[app]["fingerprints"])
        if not shared:
            res.errors.append("request %s differs from a fresh answer with no memo-key "
                              "collision to explain it: %s" % (reqs[i], diff))
        if args.list_failures:
            print("FAILED %s: %s" % (json.dumps(reqs[i]), diff))
    res.info["failing_requests"] = len(failures)
    for f in corpora:
        outs = [fresh[i] for i, q in enumerate(reqs)
                if q.get("app") == f["app"] and q["verb"] == "matrix"]
        check_corpus_outputs(f, outs, res.errors)
    return [{"op": "corpus", "app": f["app"], "metric": "t_sem"} for f in corpora[:3]] + \
        [{"op": "request", "req": q} for q in reqs
         if q.get("app") in (None, *DAEMON_CORPORA[:3])]


# --- traced run -----------------------------------------------------------

# Per-layer metrics, grouped by the layer whose spans produce them. A group
# whose time reads zero on a workload (the workload never calls that
# layer) is taken from the sweep replay instead; see README.md.
LAYERS = {
    "gen": [("gen.time_s", "s", "self", "gen"), ("gen.retries", "count", "count", "gen.retries")],
    "frontend.preprocess": [("frontend.preprocess_s", "s", "self", "frontend.preprocess")],
    "frontend.parse": [("frontend.parse_s", "s", "self", "frontend.parse")],
    "frontend.lower": [("frontend.lower_s", "s", "self", "frontend.lower")],
    "ir.lower": [("ir.lower_s", "s", "self", "ir.lower")],
    "interp": [("interp.time_s", "s", "self", "interp"), ("interp.steps", "count", "count", "interp.steps")],
    "index": [("index.time_s", "s", "self", "index"), ("index.cache_hits", "count", "count", "index.cache_hits"),
              ("index.cache_misses", "count", "count", "index.cache_misses")],
    "store": [("store.load_s", "s", "self", "store.load"), ("store.save_s", "s", "self", "store.save"),
              ("store.bytes", "bytes", "count", "store.bytes"), ("store.entries", "count", "count", "store.entries")],
    "tree": [("tree.hashcons_s", "s", "self", "tree.hashcons"), ("tree.nodes", "count", "count", "tree.nodes"),
             ("tree.flat_compiles", "count", "count", "tree.flat_compiles")],
    "ted": [("ted.time_s", "s", "self", "ted"), ("ted.pairs", "count", "count", "ted.pairs"),
            ("ted.dp_runs", "count", "count", "ted.dp_runs"), ("ted.pruned", "count", "count", "ted.pruned"),
            ("ted.prune_ratio", "ratio", "count", "ted.prune_ratio"),
            ("ted.strategy_left", "count", "count", "ted.strategy_left"),
            ("ted.strategy_right", "count", "count", "ted.strategy_right")],
    "diff": [("diff.time_s", "s", "self", "diff")],
    "cluster": [("cluster.time_s", "s", "self", "cluster")],
    "matrix": [("matrix.time_s", "s", "self", "matrix"), ("matrix.cells", "count", "count", "matrix.cells")],
    "vp": [("vp.time_s", "s", "self", "vp"), ("vp.build_evals", "count", "count", "vp.build_evals"),
           ("vp.query_evals", "count", "count", "vp.query_evals")],
    "render": [("render.time_s", "s", "self", "render"), ("render.bytes", "bytes", "count", "render.bytes")],
}
VERBS = ["index", "compare", "matrix", "cluster", "nearest", "status"]
for v in VERBS:
    LAYERS["serve.handle." + v] = [("serve.handle_p50_ms." + v, "ms", "count", "serve.handle_p50_ms." + v)]
LAYERS["serve.engine"] = [("serve.lru_hits", "count", "count", "serve.lru_hits"),
                          ("serve.lru_misses", "count", "count", "serve.lru_misses"),
                          ("serve.resident_mb", "MiB", "count", "serve.resident_mb")]
GC = [("gc.allocated_mb", "MiB", "count", "gc.allocated_mb"),
      ("gc.major_collections", "count", "count", "gc.major_collections")]


def sweep_ops(seed, work):
    """A small C++ corpus through every layer, including each daemon verb
    in-process, for the layers a workload itself never calls. "__k" names
    the k-th model of the corpus."""
    app = "gen:mutate:babelstream:%d:3" % (seed % 1000 + 1)
    return [{"op": "corpus", "app": app, "metric": "t_sem",
             "cache": {"index": os.path.join(work, "sweep-index.cache"),
                       "ted": os.path.join(work, "sweep-ted.cache")}},
            {"op": "compare", "app": app, "base": "__0", "target": "__1", "cache": None}] + \
        [{"op": "request", "req": q} for q in [
            {"verb": "index", "app": app, "model": "__0"},
            {"verb": "compare", "app": app, "base": "__0", "target": "__1"},
            {"verb": "matrix", "app": app, "metric": "t_sem"},
            {"verb": "cluster", "app": app, "metric": "t_sem"},
            {"verb": "nearest", "app": app, "model": "__0", "metric": "t_sem", "k": 2},
            {"verb": "status"}]]


def traced(args, ops, res):
    """Per-layer metrics: the workload's round replayed in-process without
    and with spans (the difference is the tracing overhead), the sweep for
    layers the workload does not reach, process start and socket
    transport measured against the real binary."""
    def replay(tag, ops, **kw):
        d = os.path.abspath(os.path.join(WORK, tag))
        os.makedirs(d, exist_ok=True)
        for f in os.listdir(d):
            os.unlink(os.path.join(d, f))
        return probe("replay", dict(kw, workdir=d, ops=ops), tag)

    plain = replay("replay-plain", ops, trace=False)
    spanned = replay("replay-traced", ops, trace=True, trace_file=os.path.abspath(
        os.path.join(WORK, "trace-%s.json" % args.workload)))
    sweep = replay("replay-sweep", sweep_ops(args.seed, os.path.abspath(WORK)), trace=True)
    from_sweep = []
    for group, ms in LAYERS.items():
        def value(src, kind, key):
            return src["self_s" if kind == "self" else "counters"].get(key, 0.0)
        timed = [value(spanned, kind, key) for _, unit, kind, key in ms if unit in ("s", "ms")]
        reached = any(timed) if timed else any(value(spanned, kind, key) for _, _, kind, key in ms)
        src = spanned if reached else sweep
        if not reached:
            from_sweep.append(group)
        for name, unit, kind, key in ms:
            res.metrics[name] = (value(src, kind, key), unit)
    for name, unit, _, key in GC:
        res.metrics[name] = (spanned["counters"].get(key, 0.0), unit)
    starts = []
    for _ in range(15):
        starts.append(Proc(["--version"], os.path.join(WORK, "version.out")).wall * 1e3)
    res.metrics["proc.start_ms"] = (statistics.median(starts), "ms")
    d = Daemon("transport")
    try:
        rt = []
        for _ in range(60):
            t0 = time.perf_counter()
            d.status()
            rt.append((time.perf_counter() - t0) * 1e3)
    finally:
        d.stop()
    res.metrics["serve.transport_p50_ms"] = (
        statistics.median(rt) - sweep["counters"].get("serve.handle_p50_ms.status", 0.0), "ms")
    res.metrics["trace.span_share"] = (spanned["span_share"], "ratio")
    res.metrics["trace.overhead_s"] = (spanned["wall_s"] - plain["wall_s"], "s")
    res.metrics["trace.replay_s"] = (spanned["wall_s"], "s")
    res.info["layers_from_sweep"] = from_sweep
    res.info["self_s"] = spanned["self_s"]


# --- main -----------------------------------------------------------------


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.info = {}


WORKLOADS = {"paper": paper, "mutants": mutants, "daemon": daemon}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-failures", action="store_true",
                    help="daemon: print each request whose reply differs from a fresh answer")
    args = ap.parse_args()
    try:
        facts = host_facts()
        build()
        self_test()
        os.makedirs(WORK, exist_ok=True)
        res = Result()
        rng = random.Random("%s:%d" % (args.workload, args.seed))
        if args.trace:
            # the traced run repeats the workload briefly (for its checks
            # and counts), then replays one round in-process
            args.seconds /= 4
        ops = WORKLOADS[args.workload](args, rng, res)
        if args.trace:
            res.metrics.clear()
            traced(args, ops, res)
        with open("BENCHMARK.json") as fh:
            want = {m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
        if set(res.metrics) != want:
            raise BenchError("metrics do not match BENCHMARK.json: missing %s, extra %s"
                             % (sorted(want - set(res.metrics)), sorted(set(res.metrics) - want)))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        sys.exit(2)
    facts["workload"] = args.workload
    facts["seed"] = args.seed
    facts.update(res.info)
    print("host and run: " + json.dumps(facts, sort_keys=True))
    for e in res.errors[:20]:
        print("CHECK FAILED: " + e)
    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))


if __name__ == "__main__":
    main()
