"""groupcs benchmark: one workload per process, end-to-end metrics or, with
``--trace 1``, per-layer metrics.  Run from the repository root:

    python3 bench/run.py --workload e1-narrowband-sweep --seed 1 --seconds 45 --trace 0

Workloads, metrics and the layer-to-end-to-end map are described in
bench/README.md.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).with_name("reference.json")
BLAS_THREADS = "1"
MIN_OPS = 3
SETUPS_PER_ROUND = 3
WORKLOAD_NAMES = ("e1-narrowband-sweep", "e2-image-sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="groupcs benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="store this commit's reference-seed outputs in bench/reference.json",
    )
    return p.parse_args(argv)


def import_groupcs():
    """Import groupcs from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "groupcs" / "__init__.py").is_file():
        sys.exit(f"bench: no groupcs sources under {src}")
    sys.path.insert(0, str(src))
    import groupcs

    if Path(groupcs.__file__).resolve().parent != (src / "groupcs").resolve():
        sys.exit(f"bench: groupcs was imported from {groupcs.__file__}, not {src}")
    return groupcs


def environment(args, groupcs) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha = "unknown"
    if shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "groupcs").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep_threads": 1,
        "groupcs": groupcs.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
    }


class Checker:
    """Counts output rows, rows that fail a check, and degraded certificates."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = self.failed = self.degraded = 0
        self.messages: list[str] = []

    def rows(self, rows, inp, refs=None):
        self.attempted += len(rows)
        if refs is not None and len(refs) != len(rows):
            self.failed += len(rows)
            self.messages.append(f"{len(rows)} rows, the reference has {len(refs)}")
            return
        for i, row in enumerate(rows):
            problems = self.workloads.row_problems(row, inp, None if refs is None else refs[i])
            if problems:
                self.failed += 1
                self.messages.extend(problems)
            elif self.workloads.degraded(row):
                self.degraded += 1


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def run_workload(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is imported
    groupcs = import_groupcs()
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, args.seed
    wl = workloads.WORKLOADS[name]
    env = environment(args, groupcs)
    print("env " + json.dumps(env), flush=True)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    tracer = spans.Tracer()
    check = Checker(workloads)
    ref_cfg = workloads.write_config(name, workloads.REFERENCE_SEED, OUT)

    # the run seed's instance, once: checked by the invariants, and the warm-up
    seed_inp = workloads.setup(workloads.write_config(name, seed, OUT), spans.no_span)
    seed_rows = wl.run(seed_inp, spans.no_span)
    check.rows(seed_rows, seed_inp)
    del seed_inp
    print(f"seed {seed}: digest {digest(seed_rows)}", flush=True)

    # set-up: a round of SETUPS_PER_ROUND set-ups before the first timed
    # repetition and after every one, so that setup_s (their median) samples
    # the host over the whole run, as commands_s does.  Each repetition runs on
    # the inputs of the round before it, and only one set of inputs is alive at
    # a time, so that peak_rss_mb is one set of inputs plus the commands.
    setup_s, setup_layers = [], []

    def setup_round():
        for _ in range(SETUPS_PER_ROUND):
            built = None
            tracer.op = f"setup{len(setup_s)}"
            t0 = time.perf_counter()
            built = workloads.setup(ref_cfg, tracer.span if args.trace else spans.no_span)
            setup_s.append(time.perf_counter() - t0)
            if args.trace:
                setup_layers.append(spans.setup_metrics(tracer.spans, tracer.op))
        return built

    inp = setup_round()

    # measurement window: the reference instance, repeated, every repetition
    # checked against the stored reference outputs; a traced run alternates
    # untraced and traced repetitions
    if args.write_reference:
        references[name] = wl.run(inp, spans.no_span)
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    refs = references.get(name)
    if refs is None:
        check.failed += 1
        check.messages.append(f"no reference outputs for {name}")
    times = {False: [], True: []}
    per_op = []
    t_begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        tracer.op = f"{name}:op{len(times[False]) + len(times[True])}"
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            rows = wl.run(inp, tracer.span if traced else spans.no_span)
            times[traced].append(time.perf_counter() - t0)
        if traced:
            per_op.append(spans.op_metrics(tracer.spans, tracer.op))
        check.rows(rows, inp, refs=refs)
        inp = None
        inp = setup_round()
        every = times[False] + times[True]
        if len(every) >= (2 if args.trace else MIN_OPS) and (
            time.perf_counter() - t_begin + statistics.median(every) > args.seconds
        ):
            break
    print(
        f"reference seed {workloads.REFERENCE_SEED}: digest {digest(rows)}, "
        f"{len(every)} timed repetitions",
        flush=True,
    )
    print("timed_s " + " ".join(f"{t:.4f}" for t in every), flush=True)
    for msg in dict.fromkeys(check.messages):
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        grams = workloads.distinct_grams(inp)
        print("input " + json.dumps({"distinct_grams_over_groups": grams}), flush=True)
        metrics = {
            **spans.median_metrics(setup_layers),
            **spans.median_metrics(per_op),
            "gamma.distinct_gram_share": sum(d for d, _ in grams.values())
            / max(1, sum(g for _, g in grams.values())),
            "trace.overhead": statistics.median(times[True]) / statistics.median(times[False]),
        }
        with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        declared = bench["per_layer"]
    else:
        metrics = {
            "commands_s": statistics.median(times[False]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (check.attempted - check.failed - check.degraded) / check.attempted,
        }
        declared = bench["end_to_end"]
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
