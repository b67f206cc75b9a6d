"""Benchmark for kernelogic: time from discourse text to a checked answer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload paradox-dense --seed 1 --seconds 20 --trace 0

A run sets up three times (generate inputs, write them, import the
package in a fresh interpreter, warm up on inputs disjoint from the
timed ones) and reports the median as ``setup_s``. It then asks
questions in a closed loop with one client for ``--seconds`` seconds,
and at least once round the workload's cycle of question kinds.
desk-cli replays one cycle of input files, since every call is a fresh
process; ``attempted`` and ``failed`` count distinct questions, so they
do not depend on how many asks the run had time for. Each
answer is checked against the benchmark's own reference outside the
timed regions. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` records spans around every call into the package and reports the
per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it are a
table of every metric with its unit and sample count.

    python3 perfbench/run.py --report [--seed N] [--seconds S] [--out FILE]

runs every workload untraced and traced, one child process at a time,
and prints all metrics in one table, one row per workload, with the
tracing overhead. ``--record-digests`` rewrites ``digests.json`` from
one cycle of desk-cli at the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("desk-cli", "paradox-dense", "components-wide", "kernel-sparse")
SETUP_REPS = 3
PROBES = 5
# Questions generated during set-up; the in-process loop generates more if it
# needs them, desk-cli replays its plan of one cycle.
PLANNED = {"desk-cli": 14, "paradox-dense": 15, "components-wide": 24, "kernel-sparse": 48}
SUMMED = {"cli.unexpected_exit"}
# In-process peak RSS is read after the first cycle and at least this many
# questions, so that it does not depend on how many the run had time for.
RSS_AFTER_QUESTIONS = 4

now = time.perf_counter


# The calibration loop's median time on the reference machine (see README),
# and how many times it runs per set-up and before each question.
CALIBRATION_REF_S = 0.0085
CALIBRATIONS = 5
# desk-cli calibrates with a fresh interpreter importing these standard
# modules instead, once per set-up and before each question; about its time
# on the reference machine.
PROBE_CODE = "import argparse, dataclasses, decimal, fractions, json"
PROBE_REF_S = 0.075


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's current speed for interpreted code."""
    t0 = now()
    total = 0
    for i in range(100_000):
        total += i * i
    return now() - t0


def slowness(in_process: bool) -> list[float]:
    """Samples of the machine's current time for fixed work, relative to the reference machine.

    In-process workloads time the pure-Python loop. desk-cli's time is
    mostly process start and import, which the loop tracks poorly, so it
    times an isolated interpreter importing standard modules.
    """
    if in_process:
        return [calibrate() / CALIBRATION_REF_S for _ in range(CALIBRATIONS)]
    return [probe(PROBE_CODE, None, "-I") / PROBE_REF_S]


def is_rate(key: str) -> bool:
    return key.endswith("_per_s")


def is_time(key: str) -> bool:
    return not is_rate(key) and (key.endswith("_s") or "_s." in key)


def normalize(metrics: dict, factor: float) -> dict:
    """Scale times by ``factor`` and rates by its inverse; leave other values."""
    out = {}
    for key, (value, n) in metrics.items():
        if is_time(key):
            value *= factor
        elif is_rate(key):
            value /= factor
        out[key] = (value, n)
    return out


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- statistics ---------------------------------------------------------------


def weighted_median(samples, cycle) -> float:
    """Lower median with each stratum weighted by its share of the cycle.

    ``samples`` is a list of ``(value, stratum)``. Where the loop stopped
    inside a cycle then does not change which stratum the median falls in.
    """
    present = {s for _, s in samples}
    share = {s: cycle.count(s) for s in present}
    total = sum(share.values())
    count = {s: sum(1 for _, t in samples if t == s) for s in present}
    acc = 0.0
    for value, stratum in sorted(samples):
        acc += share[stratum] / total / count[stratum]
        if acc >= 0.5 - 1e-12:
            return value
    return max(v for v, _ in samples)


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --- one workload ------------------------------------------------------------


def make_workload(name: str, workdir: Path):
    # desk-cli keeps the package out of this process: a child's peak RSS, as
    # wait4 reports it, is never below the parent's peak at the fork.
    if name == "desk-cli":
        import desk

        return desk.DeskCli(ROOT, workdir)
    import inproc

    return {"paradox-dense": inproc.ParadoxDense, "components-wide": inproc.ComponentsWide,
            "kernel-sparse": inproc.KernelSparse}[name]()


def probe(code: str, env, *flags: str) -> float:
    t0 = now()
    subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True, capture_output=True)
    return now() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_cycles: int = 1) -> dict:
    from common import UniqueGraphs
    from spans import NullTracer, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        wl = make_workload(name, workdir)
        in_process = name != "desk-cli"
        asked = []

        setup_times = []
        # Calibrations before each set-up and after the last one.
        setup_cal: list[list[float]] = []
        for rep in range(SETUP_REPS):
            setup_cal.append(slowness(in_process))
            t0 = now()
            unique = UniqueGraphs()
            plan = [wl.question(seed, i, unique) for i in range(PLANNED[name])]
            if not in_process:
                for q in plan:
                    wl.write(q)
            probe("import kernelogic", env)
            warm = NullTracer()
            if in_process:
                for q in wl.warmup(seed, rep, unique):
                    asked.append(q.discourse.key())
                    ans, out = wl.ask(q, warm)
                    wl.check(q, ans, out)
            else:
                wl.run_call(plan[0], plan[0].extra["calls"][0])
            setup_times.append(now() - t0)
        setup_cal.append(slowness(in_process))
        setup_scales = [1.0 / statistics.median(setup_cal[k] + setup_cal[k + 1])
                        for k in range(SETUP_REPS)]

        tr = Tracer() if trace else NullTracer()
        records = []
        # Calibrations before each question and after the last one.
        local: list[list[float]] = []
        peak_rss_mb = 0.0
        start = now()
        i = 0
        rss_at = max(len(wl.cycle), RSS_AFTER_QUESTIONS)
        while i < min_cycles * len(wl.cycle) or now() - start < seconds:
            if i == rss_at:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not in_process:
                q = plan[i % len(plan)]
            elif i < len(plan):
                q = plan[i]
            else:
                q = wl.question(seed, i, unique)
            if in_process:
                asked.append(q.discourse.key())
            gc.collect()
            local.append(slowness(in_process))
            tr.question = i
            with tr.span("question"):
                ans, out = wl.ask(q, tr)
            c0 = now()
            wl.check(q, ans, out)
            check_s = now() - c0
            del out
            records.append((q, ans, check_s))
            i += 1
        loop_s = now() - start
        local.append(slowness(in_process))
        # Each answer is scaled by the machine's speed around it: the calibrations
        # just before and just after it. The speed drifts within a run too.
        scales = [1.0 / statistics.median(local[k] + local[k + 1]) for k in range(len(records))]

        if not in_process:
            peak_rss_mb = statistics.median(rss for _, a, _ in records for _, _, rss in a.calls)
        elif i <= rss_at:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = summarize(wl, records, scales, [t * k for t, k in zip(setup_times, setup_scales)],
                           peak_rss_mb, loop_s, tr)
        result["unique_graphs"] = len(set(asked)) == len(asked)
        if trace:
            import desk

            result["layer"].update(cli_probes(env))
            census_tr = Tracer()
            for key, value in layer_metrics(desk.census(ROOT, workdir, census_tr), census_tr).items():
                if is_time(key):
                    result["layer"].setdefault(key, value)
            dump = {"workload": name, "seed": seed, "spans": tr.dump(),
                    "call_order": tr.call_order()}
            (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(dump))
        factor = 1.0 / statistics.median(c for cal in setup_cal + local for c in cal)
        result["factor"] = factor
        result["raw_e2e"] = dict(result["e2e"], **answer_metrics(wl, records, [1.0] * len(records)),
                                 setup_s=(statistics.median(setup_times), SETUP_REPS))
        result["layer"] = normalize(result["layer"], factor)
        if trace:
            result["layer"]["trace.first_answer_p50_s"] = result["e2e"]["first_answer_p50_s"]
        if name == "desk-cli":
            result["digests"] = wl.digests
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_probes(env) -> dict:
    start = statistics.median(probe("pass", env) for _ in range(PROBES))
    imported = statistics.median(probe("import kernelogic", env) for _ in range(PROBES))
    return {"cli.interpreter_start_s": (start, PROBES), "cli.import_s": (imported - start, PROBES)}


def answer_times(records, scales) -> tuple:
    """First-answer and follow-up samples ``(seconds, stratum)``, each scaled."""
    firsts = [(a.first_s * k, q.stratum) for (q, a, _), k in zip(records, scales)]
    follows = [(a.followup_s * k, q.stratum) for (q, a, _), k in zip(records, scales)
               if a.followup_s is not None]
    return firsts, follows


def answer_metrics(wl, records, scales) -> dict:
    cycle = wl.cycle
    firsts, follows = answer_times(records, scales)
    by_position: dict[int, list[float]] = {}
    for (q, a, _), k in zip(records, scales):
        by_position.setdefault(q.index % len(cycle), []).append((a.first_s + (a.followup_s or 0.0)) * k)
    cycle_s = sum(statistics.fmean(v) for v in by_position.values())
    return {
        "first_answer_p50_s": (weighted_median(firsts, cycle), len(firsts)),
        "followup_p50_s": (weighted_median(follows, cycle), len(follows)),
        "questions_per_s": (len(cycle) / cycle_s, len(records)),
    }


def summarize(wl, records, scales, setup_times, peak_rss_mb, loop_s, tr) -> dict:
    firsts, follows = answer_times(records, scales)
    failures = [(q.index, q.stratum, kind, msg) for q, a, _ in records for kind, msg in a.failures]
    # Distinct questions: desk-cli asks its inputs more than once.
    attempted = len({q.index for q, _, _ in records})
    failed = len({q.index for q, a, _ in records if a.failures})
    e2e = {
        **answer_metrics(wl, records, scales),
        "peak_rss_mb": (peak_rss_mb, 1),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }
    extra = {
        "first_answer_tail_s": tail([v for v, _ in firsts]),
        "followup_tail_s": tail([v for v, _ in follows]),
        "failed_ratio": failed / attempted,
        "loop_s": loop_s,
    }
    layer = layer_metrics(records, tr)
    layer["oracle.failed_ratio"] = (failed / attempted, attempted)
    return {"e2e": e2e, "extra": extra, "layer": layer, "attempted": attempted, "asks": len(records),
            "failed": failed, "failures": failures,
            "wrong": any(kind == "wrong" for _, _, kind, _ in failures)}


def layer_metrics(records, tr) -> dict:
    out: dict = {}
    counts: dict[str, list] = {}
    for _, a, _ in records:
        for key, value in a.counts.items():
            counts.setdefault(key, []).append(value)
    for key, values in counts.items():
        out[key] = (sum(values) if key in SUMMED else statistics.median(values), len(values))
    calls = [c for _, a, _ in records for c in a.calls]
    if calls:
        out["cli.call_s"] = (statistics.median(dt for _, dt, _ in calls), len(calls))
        for sub in {s for s, _, _ in calls}:
            times = [dt for s, dt, _ in calls if s == sub]
            out[f"cli.call_s.{sub}"] = (statistics.median(times), len(times))
    out["oracle.check_s"] = (statistics.median(c for _, _, c in records), len(records))
    if not tr.enabled:
        return out
    per_q = tr.per_question()
    names = {n for d in per_q.values() for n in d} - {"question", "cli.call"}
    for n in names:
        values = [d[n] for d in per_q.values() if n in d]
        out[f"{n}_s"] = (statistics.median(values), len(values))
    # Only where a question saturates once: desk-cli replays saturate per call.
    rates = [
        a.counts["resolution.closure_clauses"] / per_q[q.index]["resolution.saturate"]
        for q, a, _ in records
        if not a.calls and "resolution.saturate" in per_q.get(q.index, {})
    ]
    if rates:
        out["resolution.clauses_per_s"] = (statistics.median(rates), len(rates))
    spans = {}
    for s in tr.spans:
        spans[s.question] = spans.get(s.question, 0) + 1
    out["trace.spans"] = (statistics.median(spans.values()), len(spans))
    return out


# --- output ---------------------------------------------------------------------


def table(name: str, result: dict, trace: bool, metrics: list) -> list[str]:
    lines = [f"workload {name}: {result['attempted']} questions in {result['asks']} asks, "
             f"{result['failed']} failed, "
             f"loop {result['extra']['loop_s']:.1f} s, trace {int(trace)}"]
    lines.append(f"  machine speed factor {result['factor']:.4f}; raw = measured before scaling")
    source = result["layer"] if trace else result["e2e"]
    for m in metrics:
        value, n = source.get(m["name"], (0, 0))
        raw = "" if trace else f"  raw {result['raw_e2e'][m['name']][0]:.6g}"
        lines.append(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} n={n}{raw}")
    if not trace:
        for key in ("first_answer_tail_s", "followup_tail_s"):
            t = result["extra"][key]
            text = f"{t[0]:.6g} s at p{t[1]:.0f}" if t else "not enough samples"
            lines.append(f"  {key:<34} {text}")
        lines.append(f"  {'failed_ratio':<34} {result['extra']['failed_ratio']:>14.6g} 1")
    for index, stratum, kind, msg in result["failures"][:20]:
        lines.append(f"  FAILED q{index} [{stratum}] {kind}: {msg}")
    return lines


def final_line(result: dict, trace: bool, metrics: list) -> str:
    source = result["layer"] if trace else result["e2e"]
    return json.dumps({
        "correct": not result["wrong"] and result["unique_graphs"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(source.get(m["name"], (0.0, 0))[0]), "unit": m["unit"]}
                    for m in metrics},
    })


def report(args) -> int:
    rows = {}
    for name in WORKLOADS:
        row = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            row[f"trace{trace}"] = json.loads(lines[-1])
        e2e = row["trace0"]["metrics"]["first_answer_p50_s"]["value"]
        traced = row["trace1"]["metrics"]["trace.first_answer_p50_s"]["value"]
        row["tracing_overhead_s"] = traced - e2e
        print(f"  tracing overhead on the first answer: {traced - e2e:+.6g} s ({(traced / e2e - 1):+.1%})")
        rows[name] = row
    names = [m["name"] for m in spec()["end_to_end"]]
    print("\n" + " ".join(f"{n:>20}" for n in ["workload", *names, "failed/attempted", "trace_overhead_s"]))
    for name, row in rows.items():
        values = [row["trace0"]["metrics"][n]["value"] for n in names]
        failed = f"{row['trace0']['failed']}/{row['trace0']['attempted']}"
        print(" ".join(f"{v:>20}" for v in [name, *(f"{v:.6g}" for v in values), failed,
                                          f"{row['tracing_overhead_s']:+.4g}"]))
    document = {"seed": args.seed, "seconds": args.seconds, "workloads": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out", help="report: write the combined results here")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "kernelogic" / "__init__.py").is_file():
        print(f"error: no kernelogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.report:
        return report(args)
    if args.record_digests:
        from common import DEFAULT_SEED

        result = run_workload("desk-cli", DEFAULT_SEED, 0, False)
        (HERE / "digests.json").write_text(json.dumps(result["digests"], indent=0, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = spec()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(table(args.workload, result, bool(args.trace), metrics)))
    print(final_line(result, bool(args.trace), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
