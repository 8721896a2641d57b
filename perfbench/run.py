#!/usr/bin/env python3
"""gra-engine benchmark: fixed paper runs timed end to end, or traced per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (the package is imported from ``src/``).
Each repetition runs in a fresh worker process (worker.py), one after the
other: a closed loop with one client.  Repetitions go on until --seconds
have passed (at least MIN_ROUNDS), and every metric is the median over them.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from traced repetitions, paired with untraced ones to give the
trace overhead, and writes every span to out/.  Outputs are checked against
pins.json; a mismatch makes the run exit 1.  The last stdout line is one
JSON object; the full record, with the environment, goes to out/.
"""

import argparse
import gzip
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("linear-chaotic", "exponential", "smoke-sweep")
HARD_LIMIT_S = 160  # a run must end within 180 s
MIN_ROUNDS = {0: 3, 1: 1}


class BenchError(Exception):
    pass


def spawn(workload, kind, seed, deadline):
    """Run one repetition in a fresh process; adds its set-up time."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, kind, str(seed)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}/{kind} repetition ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload}/{kind} repetition exited with {proc.returncode}")
    rec = json.loads(out.splitlines()[-1])
    rec["setup_s"] = rec["ready"] - start
    return rec


def check(rec, pins):
    """Mismatches between one repetition's outputs and the pinned ones."""
    if rec["error"] is not None:
        return [f"{rec['kind']}: {rec['error']}"]
    observed = rec["observed"]
    return [
        f"{rec['kind']}: {key} = {observed[key]!r}, pinned {want!r}"
        for key, want in pins.items()
        if key in observed and observed[key] != want
    ] + [f"{rec['kind']}: {key} not reported" for key in pins
         if key not in observed and key != "vertex_steps"]


def _read_text(path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read_text(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment(rec):
    cpu_model = None
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read_text(index / "size")
    return {
        **rec["env"],
        "GRA_PURE_NUMPY": os.environ.get("GRA_PURE_NUMPY"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "git_commit": git_commit(),
    }


def round_kinds(workload, trace):
    if not trace:
        return ["plain"]
    if workload == "smoke-sweep":
        return ["serial", "traced", "plain"]
    return ["plain", "traced"]


def end_to_end(rounds, pins):
    plain = [r["plain"] for r in rounds]
    wall = statistics.median(p["wall_s"] for p in plain)
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    return {
        "wall_s": wall,
        "vertex_steps_per_s": pins["vertex_steps"] / wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "ok_ratio": 1.0 - failed / attempted,
    }


def sweep_layers(serial, plain):
    """Pool metrics of one 2-worker run, against per-rule busy times from a serial run."""
    done = serial["done_s"]
    busy = [b - a for a, b in zip([0.0] + done[:-1], done)]
    pool_wall = plain["done_s"][-1]
    workers = plain["workers"]
    return {
        "sweep.rule_busy_s.p50": statistics.median(busy),
        "sweep.rule_busy_s.max": max(busy),
        "sweep.idle_share": 1.0 - sum(busy) / (workers * pool_wall),
        "sweep.pool_overhead_s": pool_wall - sum(busy) / workers,
        "sweep.report_write_s": plain["report_write_s"],
    }


def per_layer(workload, rounds, names):
    """Medians over rounds; a metric that does not apply to the workload reads 0."""
    per_round = []
    for r in rounds:
        m = dict(r["traced"]["layers"])
        observed = r["traced"]["observed"]
        if workload == "smoke-sweep":
            m.update(sweep_layers(r["serial"], r["plain"]))
            m["sweep.halted_share"] = observed["census"]["Halted"] / observed["rules"]
        else:
            m["sweep.halted_share"] = float(observed["category"] == "Halted")
        per_round.append(m)
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_round) for name in names}
    base = "serial" if workload == "smoke-sweep" else "plain"
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["traced"]["wall_s"] for r in rounds)
        / statistics.median(r[base]["wall_s"] for r in rounds))
    return metrics


def write_spans(path, workload, seed, rounds):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, r in enumerate(rounds):
            run_id = f"{workload}-seed{seed}-round{i}"
            for sid, parent, name, start, end, attrs in r["traced"].pop("spans"):
                span = {"run": run_id, "id": sid, "parent": parent, "name": name,
                        "start_ns": start, "end_ns": end}
                if attrs:
                    span.update(attrs)
                fh.write(json.dumps(span) + "\n")


def run_workload(workload, seed, seconds, trace, pins, units):
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    kinds = round_kinds(workload, trace)
    # untimed warm-up: the first process in a fresh checkout compiles bytecode
    subprocess.run([sys.executable, "-c", "import worker, tracing"], cwd=HERE, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    t_loop = time.monotonic()
    rounds, took = [], []
    while True:
        r0 = time.monotonic()
        order = list(kinds)
        rng.shuffle(order)  # the seed decides which kind of repetition goes first
        rounds.append({kind: spawn(workload, kind, seed, deadline) for kind in order})
        took.append(time.monotonic() - r0)
        now = time.monotonic()
        next_end = now + statistics.median(took)
        if next_end > deadline or (
                len(rounds) >= MIN_ROUNDS[trace] and next_end - t_loop > seconds):
            break

    records = [rec for r in rounds for rec in r.values()]
    mismatches = [m for rec in records for m in check(rec, pins[workload])]
    envs = {json.dumps(rec["env"], sort_keys=True) for rec in records}
    if len(envs) != 1:
        mismatches.append(f"repetitions ran on different backends: {sorted(envs)}")
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    if trace:
        metrics = per_layer(workload, rounds, units)
    else:
        metrics = end_to_end(rounds, pins[workload])
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    doc = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "environment": environment(records[0]), "elapsed_s": time.monotonic() - start,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
           "mismatches": mismatches}
    if trace:
        doc["span_file"] = str((OUT / f"{stem}.spans.jsonl.gz").relative_to(ROOT))
        write_spans(OUT / f"{stem}.spans.jsonl.gz", workload, seed, rounds)
    doc["rounds"] = rounds
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print(f"# {workload} seed={seed} trace={trace} rounds={len(rounds)} "
          f"backend={doc['environment']['backend']}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6g} {units[name]}")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print(f"result: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    result = {"correct": not mismatches and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gra" / "__init__.py").is_file():
        print(f"error: no gra package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        pins = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            ok = run_workload(workload, args.seed, args.seconds, args.trace, pins, units) and ok
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
