#!/usr/bin/env python3
"""Benchmark of the fair stateless model checker: time to a correct verdict.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The script builds the checker and its measuring process (perfbench/fmbench.ml)
from source with dune, runs one workload, checks every verdict and count
against its known answer, and prints a table, a metadata line and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

Workloads (see perfbench/README.md for why each was chosen):
  peterson-verify    chess check examples/programs/peterson.chess -> verified
  fig1-livelock      dining-2-tryacquire+yield --livelock-bound 4000 -> livelock
  peterson-workers2  peterson-verify on the forked worker pool (--workers 2)
  chessd-mix         a fresh chessd and one closed-loop client

--trace 0 measures the end-to-end metrics: every check runs in a fresh
process, repeated until --seconds is used up, and each metric is the median
over the repetitions. --trace 1 measures the per-layer metrics instead, from
spans the benchmark's own code records around calls into each layer.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

OUT = ".perfbench_out"
FMBENCH = "_build/default/perfbench/fmbench.exe"
CHESSD = "_build/default/bin/chessd.exe"
CHILD_TIMEOUT_S = 170

WORKLOADS = ["peterson-verify", "fig1-livelock", "peterson-workers2", "chessd-mix"]

# Known answers. The deterministic workloads must reach exactly these counts
# under every seed; the forked pool must match the sequential search.
REFERENCE = {
    "peterson-verify": {"verdict": "verified", "executions": 160500, "transitions": 4466320,
                        "yields": 1109660},
    "fig1-livelock": {"verdict": "livelock", "executions": 3653, "transitions": 7347840,
                      "yields": 1820522},
    "peterson-workers2": {"verdict": "verified", "executions": 160500, "transitions": 4466320,
                          "yields": 1109660},
}
# One chessd-mix round checks each catalogue entry once (perfbench/fmbench.ml);
# its fresh jobs add up to exactly these counts.
MIX_ROUND = {"executions": 13400, "transitions": 478836}

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cpu_s": "s",
    "executions": "count",
    "transitions": "count",
    "peak_rss_mb": "MB",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "jobs_per_s": "1/s",
}

PER_LAYER = {
    "dsl.parse_us": "us",
    "dsl.compile_us": "us",
    "static.analyze_us": "us",
    "static.lint_us": "us",
    "engine.start_us": "us",
    "engine.step_ns": "ns",
    "fair_sched.step_ns": "ns",
    "search.replay_steps": "count",
    "search.fresh_steps": "count",
    "search.replay_share": "ratio",
    "sched.priority_edges_added": "count",
    "search.self_s": "s",
    "search.explained_share": "ratio",
    "gc.minor_words_per_transition": "words",
    "gc.major_collections": "count",
    "par.expand_ms": "ms",
    "par.items": "count",
    "par.report_codec_us": "us",
    "par.frame_rtt_us": "us",
    "par.speedup": "ratio",
    "par.budget_overrun.workers": "ratio",
    "par.budget_overrun.domains": "ratio",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "obs.metrics_overhead": "ratio",
    "obs.events_overhead": "ratio",
    "obs.event_lines_per_job": "count",
    "serve.ack_ms": "ms",
    "serve.start_ms": "ms",
    "serve.finish_ms": "ms",
    "serve.dedup_ms": "ms",
    "trace.overhead": "ratio",
}

# What each ratio is measured against.
BASES = {
    "search.replay_share": "search.replay_steps + search.fresh_steps",
    "search.explained_share": "untraced verdict_s of the subject check",
    "par.speedup": "untraced verdict_s of peterson-verify (over peterson-workers2's)",
    "par.budget_overrun.workers": "--max-execs budget (wsq-2s-correct, --workers 2)",
    "par.budget_overrun.domains": "--max-execs budget (wsq-2s-correct, -j 2)",
    "obs.metrics_overhead": "fig1-livelock verdict_s with metrics and events off",
    "obs.events_overhead": "fig1-livelock verdict_s with metrics and events off",
    "trace.overhead": "untraced run of the same check (chessd-mix: mean round wall time)",
}

# The check whose engine, scheduler, search and GC costs a traced run
# attributes; chessd-mix runs many small programs, so it uses peterson.
SUBJECT = {
    "peterson-verify": "peterson-verify",
    "fig1-livelock": "fig1-livelock",
    "peterson-workers2": "peterson-workers2",
    "chessd-mix": "peterson-verify",
}

# Host-speed calibration. The shared 2-core hosts this runs on drift by 30%
# and more within minutes, and every time metric drifts with them. Each
# measurement is bracketed by runs of a fixed calibration kernel (fmbench
# calib, which uses none of the checker's code) and scaled by
# CALIB_REF_S / (mean of the two kernel times): time metrics are reported in
# seconds of a reference host on which the kernel takes CALIB_REF_S. The raw
# times and the kernel times are in the metadata line.
CALIB_REF_S = 0.125

BUDGET = 20000  # --max-execs of the budget-overrun probe
MIN_REPS = 3  # checks per end-to-end run, even past --seconds
SETUP_SPAWNS = 30  # extra set-up-only processes per run (set-up median)
MIX_SETUPS = 30  # extra daemon start-ups per chessd-mix run


def mix_rounds(seconds):
    """chessd-mix rounds per run: one round takes about 2 s on a 2-core
    host, so a run of [seconds] does about 0.5 rounds per second."""
    return max(1, int(seconds * 0.5 + 0.5))


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Processes


class Child:
    """A measuring process: its stdout lines with arrival times, its stderr,
    and its resource usage from wait4 (CPU and peak RSS of the process and of
    every descendant it waited for)."""

    def __init__(self, argv, tag):
        self.argv = argv
        self.err_path = os.path.join(OUT, "stderr-%s-%d.txt" % (tag, os.getpid()))
        self.err = open(self.err_path, "w+")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.err, text=True)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        self.lines = []

    def run(self):
        try:
            for line in self.proc.stdout:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
        finally:
            _, status, ru = os.wait4(self.proc.pid, 0)
            self.timer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.t_exit = time.perf_counter()
            self.err.seek(0)
            self.stderr = self.err.read()
            self.err.close()
            os.remove(self.err_path)
            self.proc.stdout.close()
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_mb = ru.ru_maxrss / 1024.0
        if self.proc.returncode != 0:
            raise BenchError(
                "%s exited with %d: %s" % (" ".join(self.argv), self.proc.returncode, self.stderr.strip())
            )
        if not self.lines:
            raise BenchError("%s printed nothing" % " ".join(self.argv))
        self.result = json.loads(self.lines[-1][1])
        return self

    def ready_s(self):
        for t, line in self.lines:
            if line == "ready":
                return t - self.t_spawn
        raise BenchError("%s never reported set-up done" % " ".join(self.argv))

    def wall_s(self):
        return self.t_exit - self.t_spawn


def fmbench(*args, tag="fmbench"):
    return Child([FMBENCH] + [str(a) for a in args], tag).run()


def build():
    needed = ["dune-project", "lib", "bin/chessd.ml", "examples/programs/peterson.chess"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError("not a checker checkout (missing %s); run from the repository root" % ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "perfbench/fmbench.exe", "bin/chessd.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, timeout=850,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout)


def leftover_processes(marker):
    """Processes whose command line mentions [marker] (a run directory)."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if marker in cmd:
            found.append((int(pid), cmd))
    return found


# --------------------------------------------------------------------------
# Statistics


def summary(values):
    vals = sorted(values)
    n = len(vals)
    med = statistics.median(vals)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": n}


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# --------------------------------------------------------------------------
# End-to-end runs


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.samples = {}  # metric -> list of samples
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.params = {}
        self.spans = []  # (process label, spans)

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)
        log("FAILED: " + msg)


def check_result(run, res, expect):
    """Count one check operation and compare it with its known answer."""
    run.attempted += 1
    bad = [
        "%s %s, expected %s" % (k, res[k], expect[k])
        for k in ("verdict", "executions", "transitions", "yields")
        if k in expect and res[k] != expect[k]
    ]
    if bad:
        run.fail("%s: %s" % (res["workload"], "; ".join(bad)))
    return not bad


def expected_for(workload, expect_verdict):
    exp = dict(REFERENCE[workload])
    if expect_verdict:
        exp["verdict"] = expect_verdict
    return exp


def one_check(workload, *flags):
    c = fmbench("check", workload, *flags, tag=workload)
    if "fairmc:" in c.stderr:
        # e.g. the pool falling back to in-process domains, or a worker
        # respawn: the run no longer measures the executor it names.
        raise BenchError("%s: checker warned: %s" % (workload, c.stderr.strip()))
    return c


def calib():
    return fmbench("calib", tag="calib").result["calib_s"]


def e2e_check(run, seconds, expect_verdict, small):
    w = run.workload
    expect = expected_for(w, expect_verdict)
    spawns = 3 if small else SETUP_SPAWNS
    cal = [calib()]
    setups = [fmbench("check", w, "--setup-only", tag=w).ready_s() for _ in range(spawns)]
    cal.append(calib())
    scale = CALIB_REF_S / statistics.mean(cal[-2:])
    for x in setups:
        run.add("setup_s", x * scale)
    # Set-up is measured only on set-up-only processes: a check's own
    # start follows a calibration process and reads systematically slower.
    raw = {"setup_s": setups, "verdict_s": [], "calib_s": cal}
    lat = []
    t0 = time.perf_counter()
    reps = 0
    min_reps = 1 if small else MIN_REPS
    while True:
        c = one_check(w)
        cal.append(calib())
        scale = CALIB_REF_S / statistics.mean(cal[-2:])
        res = c.result
        reps += 1
        raw["verdict_s"].append(res["verdict_s"])
        run.add("verdict_s", res["verdict_s"] * scale)
        run.add("cpu_s", c.cpu_s * scale)
        run.add("peak_rss_mb", c.maxrss_mb)
        lat.append(c.wall_s() * scale)
        run.add("executions", res["executions"])
        run.add("transitions", res["transitions"])
        check_result(run, res, expect)
        elapsed = time.perf_counter() - t0
        per_rep = elapsed / reps
        if reps >= min_reps and elapsed + per_rep > seconds:
            break
    run.params.update({"checks": reps, "setup_samples": len(run.samples["setup_s"]), "raw": raw})
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "verdict_s": statistics.median(run.samples["verdict_s"]),
        "cpu_s": statistics.median(run.samples["cpu_s"]),
        "executions": statistics.median(run.samples["executions"]),
        "transitions": statistics.median(run.samples["transitions"]),
        "peak_rss_mb": max(run.samples["peak_rss_mb"]),
        "job_latency_p50_ms": statistics.median(lat) * 1e3,
        "job_latency_p90_ms": p90(lat) * 1e3,
        # Checks run one after another, so this is the inverse median
        # latency (a mean over 3-9 samples would follow the slowest).
        "jobs_per_s": 1 / statistics.median(lat),
    }, {"job_latency_ms": [x * 1e3 for x in lat]}


def mix_session(run, rounds, setups, trace=False):
    """One chessd-mix session in a fresh run directory; returns the child."""
    rundir = os.path.join(OUT, "mix-%d-%d-%d" % (run.seed, os.getpid(), len(run.spans)))
    os.makedirs(rundir)
    args = ["mix", "--chessd", CHESSD, "--dir", rundir, "--seed", run.seed,
            "--rounds", rounds, "--setups", setups]
    if trace:
        args.append("--trace")
    try:
        c = fmbench(*args, tag="mix")
    finally:
        left = leftover_processes(rundir)
        for pid, _ in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        shutil.rmtree(rundir, ignore_errors=True)
    if left:
        raise BenchError("daemon or runner processes left after chessd-mix: %s" % left)
    res = c.result
    for j in res["jobs"]:
        run.attempted += 1
        if not j["ok"]:
            run.failed += 1
    for e in res["errors"]:
        run.errors.append(e)
        log("FAILED: " + e)
    for r in res["round_stats"]:
        if r["executions"] != MIX_ROUND["executions"] or r["transitions"] != MIX_ROUND["transitions"]:
            run.fail("chessd-mix round: %d executions / %d transitions, expected %d / %d" % (
                r["executions"], r["transitions"], MIX_ROUND["executions"], MIX_ROUND["transitions"]))
    return c


def e2e_mix(run, seconds, small):
    # A fixed number of rounds, derived from --seconds only, so that every
    # run does the same work: the daemon keeps each finished job's event
    # backlog, so its memory grows with the number of jobs served.
    c = mix_session(run, 1 if small else mix_rounds(seconds), 2 if small else MIX_SETUPS)
    res = c.result
    rounds = res["rounds"]
    cal = res["calib_s"]  # before/after the set-ups, then after each round
    setup_scale = CALIB_REF_S / statistics.mean(cal[0:2])
    scales = [CALIB_REF_S / statistics.mean(cal[i + 1:i + 3]) for i in range(rounds)]
    lat = []
    for j in res["jobs"]:
        lat.append(j["latency_s"] * scales[j["round"]])
    run.samples["setup_s"] = [x * setup_scale for x in res["setup_s"]]
    run.samples["verdict_s"] = [r["search_s"] * k for r, k in zip(res["round_stats"], scales)]
    walls = [r["wall_s"] * k for r, k in zip(res["round_stats"], scales)]
    run.params.update({"rounds": rounds, "jobs": len(lat), "setup_samples": len(res["setup_s"]),
                       "client": "1 closed-loop client", "runners": 1,
                       "raw": {"setup_s": res["setup_s"], "calib_s": cal,
                               "round_wall_s": [r["wall_s"] for r in res["round_stats"]]}})
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "verdict_s": statistics.median(run.samples["verdict_s"]),
        # CPU of the client, the daemon and its runners, per round.
        "cpu_s": c.cpu_s * statistics.mean(scales) / rounds,
        "executions": statistics.median([r["executions"] for r in res["round_stats"]]),
        "transitions": statistics.median([r["transitions"] for r in res["round_stats"]]),
        "peak_rss_mb": c.maxrss_mb,
        "job_latency_p50_ms": statistics.median(lat) * 1e3,
        "job_latency_p90_ms": p90(lat) * 1e3,
        "jobs_per_s": len(lat) / sum(walls),
    }, {"job_latency_ms": [x * 1e3 for x in lat]}


# --------------------------------------------------------------------------
# Traced runs


def median_span_ms(spans, name):
    d = [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]
    if not d:
        raise BenchError("no %s span recorded" % name)
    return statistics.median(d) / 1e3


def traced(run, seconds, quick):
    w = run.workload
    subj = SUBJECT[w]
    m = {}
    checks = {}  # (workload, variant) -> result

    def check(workload, variant, *flags):
        key = (workload, variant)
        if key not in checks:
            c = one_check(workload, *flags)
            if "--max-execs" not in flags:
                check_result(run, c.result, REFERENCE[workload])
            if c.result.get("spans"):
                run.spans.append(("check %s %s" % (workload, variant), c.result["spans"]))
            checks[key] = c.result
        return checks[key]

    # The subject check: traced and untraced (order alternates with the
    # seed), then with the metrics registry on for the search counters.
    order = [("traced", "--trace"), ("plain",)] if run.seed % 2 else [("plain",), ("traced", "--trace")]
    for v in order:
        check(subj, *v)
    tr, plain = checks[(subj, "traced")], checks[(subj, "plain")]
    met = check(subj, "metrics", "--metrics")
    ctr = met["counters"]
    m["search.replay_steps"] = ctr["search/steps/replay"]
    m["search.fresh_steps"] = ctr["search/steps/fresh"]
    m["search.replay_share"] = ctr["search/steps/replay"] / max(1, ctr["search/steps/replay"] + ctr["search/steps/fresh"])
    m["sched.priority_edges_added"] = ctr["sched/priority_edges_added"]
    m["gc.minor_words_per_transition"] = tr["gc_minor_words"] / tr["transitions"]
    m["gc.major_collections"] = tr["gc_major_collections"]
    if w != "chessd-mix":
        m["trace.overhead"] = tr["verdict_s"] / plain["verdict_s"]

    # Layer probes: front end, static passes, engine and scheduler walks,
    # parallel seams, checkpoint.
    layer_subject = "fig1" if subj == "fig1-livelock" else "peterson"
    lay = fmbench("layers", "--subject", layer_subject, "--seed", run.seed, "--dir", OUT,
                  *(["--quick"] if quick else []), tag="layers").result
    run.spans.append(("layers " + layer_subject, lay["spans"]))
    L = lay["layers"]
    for k in ["dsl.parse_us", "dsl.compile_us", "static.analyze_us", "static.lint_us",
              "engine.start_us", "engine.step_ns", "fair_sched.step_ns", "par.expand_ms",
              "par.items", "par.report_codec_us", "par.frame_rtt_us", "checkpoint.save_ms",
              "checkpoint.load_ms", "checkpoint.bytes"]:
        m[k] = L[k]
    explained = (plain["executions"] * L["engine.start_us"] * 1e-6
                 + plain["transitions"] * (L["engine.step_ns"] + L["fair_sched.step_ns"]) * 1e-9)
    m["search.self_s"] = plain["verdict_s"] - explained
    m["search.explained_share"] = explained / plain["verdict_s"]

    # Forked pool against the sequential search.
    seq = check("peterson-verify", "plain")
    par = check("peterson-workers2", "plain")
    m["par.speedup"] = seq["verdict_s"] / par["verdict_s"]

    # Telemetry overhead on fig1-livelock: alternating arms.
    # (--quick cuts the arms to a 200-execution budget, under their own keys.)
    budget = ("--max-execs", "200") if quick else ()
    tag = "quick-" if quick else ""
    arms = [(tag + "plain",), (tag + "metrics", "--metrics"), (tag + "events", "--events-null")]
    k = run.seed % 3
    for a in arms[k:] + arms[:k]:
        check("fig1-livelock", *(a + budget))
    arm = lambda v: checks[("fig1-livelock", tag + v)]["verdict_s"]
    m["obs.metrics_overhead"] = arm("metrics") / arm("plain")
    m["obs.events_overhead"] = arm("events") / arm("plain")

    # chessd: one traced round; on chessd-mix, half the rounds traced and
    # half untraced, the base of its trace.overhead.
    if w == "chessd-mix":
        half = 1 if quick else max(1, mix_rounds(seconds) // 2)
        res = {}
        for t in ((True, False) if run.seed % 2 else (False, True)):
            res[t] = mix_session(run, half, 0, trace=t).result
        rounds_wall = {t: statistics.mean(r["wall_s"] for r in res[t]["round_stats"]) for t in res}
        m["trace.overhead"] = rounds_wall[True] / rounds_wall[False]
        mix = res[True]
    else:
        mix = mix_session(run, 1, 0, trace=True).result
    run.spans.append(("mix", mix["spans"]))
    m["serve.ack_ms"] = median_span_ms(mix["spans"], "serve.ack")
    m["serve.start_ms"] = median_span_ms(mix["spans"], "serve.start")
    m["serve.finish_ms"] = median_span_ms(mix["spans"], "serve.finish")
    m["serve.dedup_ms"] = median_span_ms(mix["spans"], "serve.resubmit")
    m["obs.event_lines_per_job"] = mix["counters"]["event_lines"] / max(1, mix["counters"]["fresh_jobs"])

    # Budget-overrun probe: reported, not gated (a known defect of the
    # forked pool). Domains last, each in its own process.
    for backend in ("workers", "domains"):
        b = fmbench("budget", "--backend", backend, "--budget", BUDGET, tag="budget").result
        m["par.budget_overrun." + backend] = b["executions"] / BUDGET

    run.params.update({"subject": subj, "layer_subject": layer_subject, "budget": BUDGET,
                       "engine_walk_steps": L["engine.walk_steps"], "quick": quick})
    return m


# --------------------------------------------------------------------------
# Output


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_trace(run):
    """The traced run's spans as one Chrome trace_event document (one track
    per measuring process), loadable in ui.perfetto.dev."""
    events = []
    for pid, (label, spans) in enumerate(run.spans):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        for s in spans:
            events.append({"ph": "X", "name": s["name"], "pid": pid, "tid": 0,
                           "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
                           "args": {"id": s["id"], "parent": s["parent"]}})
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (run.workload, run.seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


def report(run, metrics, units, args, extra_stats):
    stats = {}
    for name in metrics:
        s = summary(run.samples[name]) if name in run.samples else {"n": 1}
        s.update({"value": metrics[name], "unit": units[name]})
        if name in BASES:
            s["base"] = BASES[name]
        stats[name] = s
    for name, vals in extra_stats.items():
        stats[name] = dict(summary(vals), unit="ms")
    meta = {
        "host": {"nproc": os.cpu_count(), "ocaml": ocaml_version(), "python": platform.python_version(),
                 "machine": platform.machine(), "git_commit": git_commit(),
                 "source_digest": source_digest()},
        "workload": run.workload, "seed": run.seed, "seconds": args.seconds,
        "trace": args.trace, "params": run.params, "failed_share": run.failed / max(1, run.attempted),
        "errors": run.errors[:20], "metrics": stats,
    }
    if run.spans:
        meta["trace_file"] = write_trace(run)
    for name in metrics:
        s = stats[name]
        q = " [q1 %.6g, q3 %.6g]" % (s["q1"], s["q3"]) if "q1" in s else ""
        print("%-32s %14.6g %-6s n=%d%s" % (name, metrics[name], units[name], s["n"], q))
    print("failed_share %.4g (%d of %d operations)" % (meta["failed_share"], run.failed, run.attempted))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    sys.stdout.flush()


def run_workload(args):
    run = Run(args.workload, args.seed)
    run.params.update({"workload": args.workload})
    if args.workload != "chessd-mix":
        run.params.update({k: v for k, v in REFERENCE[args.workload].items()})
    if args.trace:
        metrics = traced(run, args.seconds, args.quick)
        units, extra = PER_LAYER, {}
    elif args.workload == "chessd-mix":
        metrics, extra = e2e_mix(run, args.seconds, args.quick)
        units = END_TO_END
    else:
        metrics, extra = e2e_check(run, args.seconds, args.expect_verdict, args.quick)
        units = END_TO_END
    report(run, metrics, units, args, extra)
    return run


# --------------------------------------------------------------------------
# Self-test


def self_test():
    """Every workload at a small size, both modes: every named metric is
    printed with its unit, and a wrong expected verdict counts as a failure."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "workloads differ from BENCHMARK.json"
    me = os.path.abspath(__file__)
    problems = []

    def invoke(*extra):
        r = subprocess.run([sys.executable, me, "--quick"] + [str(a) for a in extra],
                           stdout=subprocess.PIPE, text=True, timeout=900)
        if r.returncode != 0:
            problems.append("%s exited %d" % (extra, r.returncode))
            return None
        return json.loads(r.stdout.strip().splitlines()[-1])

    for w in WORKLOADS:
        for trace in (0, 1):
            log("self-test: %s --trace %d" % (w, trace))
            res = invoke("--workload", w, "--seed", 7, "--seconds", 1, "--trace", trace)
            if res is None:
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s trace %d: not correct: %s" % (w, trace, res))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace %d: metrics/units differ: missing %s, extra %s" % (
                    w, trace, sorted(set(want[trace]) - set(got)), sorted(set(got) - set(want[trace]))))
    log("self-test: wrong expected verdict")
    res = invoke("--workload", "peterson-verify", "--seed", 7, "--seconds", 1, "--trace", 0,
                 "--expect-verdict", "deadlock")
    if res is None or res["correct"] or res["failed"] < 1:
        problems.append("a wrong expected verdict was not counted as a failure: %s" % res)
    for p in problems:
        log("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="small sizes (used by --self-test)")
    ap.add_argument("--expect-verdict", help="override the expected verdict (self-test of the checks)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        run_workload(args)
        return 0
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
