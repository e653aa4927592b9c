"""End-to-end and per-layer benchmark for ordcore.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retract-sweep --seed 1 --seconds 28 --trace 0

Workloads (BENCHMARK.json gives the reason for each):

  retract-sweep  decide_core_with_k_vertices(g, n-1) on random graphs with
                 n=7..9, then solve_slice on slice gadgets
  gadget-verify  the three reduction round trips as verify-gadget runs them
  retract-large  parse_graph, then decide_retraction on planted instances
                 with n=1000..3000
  cli            one `python -m ordcore.cli` process per README command

Load is a closed loop with one client: one process, no threads, each
instance starting when the previous one ends.  The instance mix of a
workload is a pass; a run repeats whole passes for about --seconds of busy
time.  Every timed call goes through the correctness gate in workloads.py;
a wrong verdict, an invalid witness, an exception, or a wrong exit code or
stdout counts as failed.

--trace 0 reports the end-to-end metrics, measured untraced:
throughput_per_s (instances per busy second), latency_p50_ms (the
median over the mix of each instance's mean wall time in the run),
latency_tail_ms (the highest percentile with at least 10 samples beyond
it), setup_s (median over fresh processes, one before each pass and at
least SETUP_SAMPLES in all, of the time from spawn until `import ordcore`
and backend selection are done) and
peak_rss_mb (of this process, or of the largest CLI child on `cli`).  The
error rate is failed / attempted in the result line.

--trace 1 runs untraced passes for half the budget, then traced passes
(tracer.py) for the other half, and reports the per-layer metrics per
traced pass: `.calls` and counts are totals per pass, `.ms` are self times
per pass, ratios are useful outcomes over attempts (0 when nothing was
attempted), and trace.overhead_frac is the mean traced pass over the
mean untraced one, minus one.  On `cli`, CLI processes take the first
half; the layer split then comes from the same commands run through
cli.main in this process, a quarter of the budget untraced and a quarter
traced.  cli.process_ms, cli.import_ms and cli.interpreter_ms are median
wall times of a CLI call, of `python -c "import ordcore"` and of
`python -c pass`.

The last line of stdout is the JSON result; a fuller record, with the run
metadata and, when traced, every span, goes to perfbench/out/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("retract-sweep", "gadget-verify", "retract-large", "cli")

SETUP_SAMPLES = 11
SETUP_CODE = "import ordcore\nfrom ordcore import _kernels\n_kernels.backend()\nprint('ready', flush=True)\n"


# --------------------------------------------------------------------------
# measurement helpers
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_ready_s(reps: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ordcore and selected the kernel backend."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
        )
        with p:
            line = p.stdout.readline()
            times.append(time.perf_counter() - t0)
        if line != b"ready\n" or p.returncode != 0:
            raise RuntimeError("set-up process did not report ready")
    return times


def process_wall_ms(code: str, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
        times.append((time.perf_counter() - t0) * 1000)
    return times


class Loop:
    """Closed-loop passes over an instance mix, with the gate on every call."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.next_id = 0

    def passes(
        self, instances, budget_s: float, tracer=None, keep=None, between=None
    ) -> tuple[list[float], list[float]]:
        """Whole passes until the busy time is nearest budget_s (at least one).
        Before each pass the garbage of the last one is collected and
        `between` runs, both untimed.  Returns per-call latencies and
        per-pass busy times, in seconds."""
        lat: list[float] = []
        pass_s: list[float] = []
        while True:
            gc.collect()
            if between is not None:
                between()
            start = len(lat)
            for inst in instances:
                ctx = tracer.instance_span("bench." + inst.kind, self.next_id) if tracer else nullcontext()
                self.next_id += 1
                err = out = None
                t0 = time.perf_counter()
                try:
                    with ctx:
                        out = inst.run()
                except Exception as exc:  # a crash of the program is a failed instance
                    err = f"{inst.kind}: {type(exc).__name__}: {exc}"
                lat.append(time.perf_counter() - t0)
                self.attempted += 1
                if err is None:
                    try:
                        err = inst.check(out)
                    except Exception as exc:
                        err = f"{inst.kind}: malformed result ({type(exc).__name__}: {exc})"
                    if err is None and keep is not None:
                        keep(out)
                if err is not None:
                    self.failures.append(err)
            pass_s.append(sum(lat[start:]))
            busy = sum(pass_s)
            if busy + busy / len(pass_s) / 2 >= budget_s:
                return lat, pass_s


def settle() -> None:
    """Move everything allocated so far, the generated inputs included, out
    of the collector's reach, so that collections inside timed calls scan
    only what the program allocates."""
    gc.collect()
    gc.freeze()


def per_instance_mean(lat_ms: list[float], passes: int) -> list[float]:
    """Each instance's mean wall time over the passes of a run.

    A shared host can run slower by up to about 2x for seconds to minutes
    at a time.  The median of all samples then jumps from one speed to the
    other once about half a run falls in a slow spell; the median over
    per-instance means moves in proportion to that share instead."""
    per_pass = len(lat_ms) // passes
    return [statistics.fmean(lat_ms[i::per_pass]) for i in range(per_pass)]


def tail(lat_ms: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it."""
    s = sorted(lat_ms)
    n = len(s)
    if n < 11:
        return s[-1], f"max of {n} samples (fewer than 11)"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples, 10 beyond"


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

TOP_LEVEL_CORES = ("cores.decide_core_with_k_vertices", "cores.solve_slice", "cores.solve_sub")


def layer_metrics(tracer, table, passes: int) -> dict[str, float]:
    counts = tracer.counts

    def total_calls(*names):
        return sum(table.get(n, {}).get("calls", 0) for n in names)

    def calls(*names):
        return total_calls(*names) / passes

    def ms(*names):
        return sum(table.get(n, {}).get("self_ns", 0) for n in names) / 1e6 / passes

    def ratio(num, den):
        return num / den if den else 0.0

    top_cores = sum(
        1 for s in tracer.spans
        if tracer.names[s[0]] in TOP_LEVEL_CORES
        and (s[1] < 0 or not tracer.names[tracer.spans[s[1]][0]].startswith("cores."))
    )
    return {
        "formats.parse_graph.calls": calls("formats.parse_graph"),
        "formats.parse_graph.ms": ms("formats.parse_graph"),
        "formats.parse_graph.bytes": counts["formats.parse_graph.bytes"] / passes,
        "graphs.interval_chromatic_number.ms": ms("graphs.interval_chromatic_number"),
        "graphs.image_subgraph.calls": calls("graphs.image_subgraph"),
        "graphs.image_subgraph.ms": ms("graphs.image_subgraph"),
        "retraction.encode.calls": calls("retraction.encode"),
        "retraction.encode.ms": ms("retraction.encode"),
        "retraction.early_unsat_ratio": ratio(counts["retraction.early_unsat"], total_calls("retraction.encode")),
        "retraction.clauses_emitted": counts["retraction.clauses_emitted"] / passes,
        "retraction.decode.ms": ms("retraction.decode"),
        "twosat.solve.calls": calls("twosat.solve"),
        "twosat.solve.ms": ms("twosat.solve"),
        "twosat.sat_ratio": ratio(counts["twosat.sat"], total_calls("twosat.solve")),
        "twosat.vars": counts["twosat.vars"] / passes,
        "twosat.clauses": counts["twosat.clauses"] / passes,
        "cores.decide_core_with_k_vertices.ms": ms("cores.decide_core_with_k_vertices"),
        "cores.solve_slice.ms": ms("cores.solve_slice"),
        "cores.decide_core_chi.ms": ms("cores.decide_core_chi"),
        "cores.compute_core.ms": ms("cores.compute_core"),
        "cores.core_rounds": calls("cores.find_nonsurjective_endomorphism"),
        "cores.subsets_per_instance": ratio(counts["cores.retraction_tests"], top_cores),
        "cores.hit_ratio": ratio(counts["cores.hits"], counts["cores.retraction_tests"]),
        "kernels.find_hom.calls": calls("kernels.find_hom"),
        "kernels.find_hom.ms": ms("kernels.find_hom"),
        "kernels.find_hyperhom.calls": calls("kernels.find_hyperhom"),
        "kernels.find_hyperhom.ms": ms("kernels.find_hyperhom"),
        "kernels.found_ratio": ratio(
            counts["kernels.found"], total_calls("kernels.find_hom", "kernels.find_hyperhom")
        ),
        "matchings.is_edge_collapsible.ms": ms("matchings.is_edge_collapsible"),
        "hypergraphs.find_nonsurjective_hyper_endomorphism.ms": ms(
            "hypergraphs.find_nonsurjective_hyper_endomorphism"
        ),
        "gadgets.build.ms": ms("gadgets.hypergraph_gadget", "gadgets.slice_gadget", "gadgets.clique_gadget"),
        "gadgets.oracle.ms": ms("gadgets.brute_force_x13", "gadgets.brute_force_multicolored_clique"),
    }


def layer_split(workload: str, table, values: dict[str, float]) -> tuple[list[str], str]:
    """Self time per span name and per module, and the expectation for this
    workload checked against it.  A mismatch is reported, not enforced."""
    total = sum(r["self_ns"] for r in table.values()) or 1
    lines = [f"  {'span':<52} {'calls':>9} {'incl ms':>10} {'self ms':>10} {'self %':>7}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"  {name:<52} {r['calls']:>9} {r['incl_ns'] / 1e6:>10.1f} "
            f"{r['self_ns'] / 1e6:>10.1f} {100 * r['self_ns'] / total:>6.1f}%"
        )
    modules: dict[str, float] = {}
    for name, r in table.items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0) + r["self_ns"]
    lines.append("  self time by module: " + ", ".join(
        f"{m} {100 * v / total:.1f}%" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])
    ))
    top = max(table.items(), key=lambda kv: kv[1]["self_ns"])[0] if table else "none"
    if workload == "retract-sweep":
        ok = top == "retraction.encode"
        claim = f"retraction.encode has the largest self time (largest: {top})"
    elif workload == "gadget-verify":
        lead = max(modules, key=modules.get) if modules else "none"
        ok = lead == "kernels"
        claim = f"kernels lead the module self times (leader: {lead})"
    elif workload == "retract-large":
        share = sum(table.get(n, {}).get("self_ns", 0) for n in ("retraction.encode", "twosat.solve")) / total
        ok = share > 0.5
        claim = f"encode + solve hold {100 * share:.1f}% of self time (expected > 50%)"
    else:
        share = values["cli.import_ms"] / values["cli.process_ms"]
        ok = share > 0.5
        claim = f"interpreter start + import ordcore are {100 * share:.1f}% of a CLI call (expected > 50%)"
    return lines, f"layer split expectation {'MET' if ok else 'NOT MET'}: {claim}"


# --------------------------------------------------------------------------
# run metadata
# --------------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from ordcore import _kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": _kernels.backend(),
        "ordcore_pure_set": bool(os.environ.get("ORDCORE_PURE")),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record, whose `result` is the
    contract line.  tiny shrinks every instance and repetition, for the
    self-tests."""
    # both import ordcore, so they load only once SRC is on sys.path
    import workloads as wl
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(workload, seed, seconds, trace)
    reps = 1 if tiny else 5
    setup: list[float] = []
    values: dict[str, float] = {}
    raw_ms: list[float] = []
    notes: list[str] = []
    split: list[str] = []
    tracer = Tracer() if trace else None
    if trace:
        values["cli.import_ms"] = statistics.median(process_wall_ms("import ordcore", reps))
        values["cli.interpreter_ms"] = statistics.median(process_wall_ms("pass", reps))
        values["cli.process_ms"] = 0.0

    def between() -> None:  # one set-up sample per pass, spread over the run
        if not trace:
            setup.extend(spawn_ready_s(1))

    rng = random.Random(f"{workload}:{seed}")
    loop = Loop()
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        if workload == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            calls = wl.cli_calls(rng, workdir)
            procs = wl.cli_process_instances(calls, workdir, child_env())
            rss_kib: list[int] = []
            budget = seconds / 2 if trace else seconds
            settle()
            lat, pass_s = loop.passes(procs, budget, keep=lambda out: rss_kib.append(out[2]), between=between)
            if trace:
                values["cli.process_ms"] = statistics.median(lat) * 1000
                timed = wl.cli_inprocess_instances(calls, workdir)
                budget = seconds / 4
                _, pass_s = loop.passes(timed, budget)
        else:
            timed = wl.GENERATORS[workload](rng, tiny)
            budget = seconds / 2 if trace else seconds
            settle()
            lat, pass_s = loop.passes(timed, budget, between=between)
            rss_kib = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
        if trace:
            tracer.install()
            try:
                _, traced_s = loop.passes(timed, budget, tracer=tracer)
            finally:
                tracer.uninstall()
            table = tracer.layer_table()
            values.update(layer_metrics(tracer, table, len(traced_s)))
            values["trace.overhead_frac"] = statistics.mean(traced_s) / statistics.mean(pass_s) - 1
            split, verdict = layer_split(workload, table, values)
            notes.append(verdict)
        else:
            setup += spawn_ready_s(max(0, (1 if tiny else SETUP_SAMPLES) - len(setup)))
            values["setup_s"] = statistics.median(setup)
            lat_ms = [x * 1000 for x in lat]
            values["throughput_per_s"] = len(lat) / sum(lat)
            values["latency_p50_ms"] = statistics.median(per_instance_mean(lat_ms, len(pass_s)))
            values["latency_tail_ms"], tail_note = tail(lat_ms)
            values["peak_rss_mb"] = max(rss_kib) / 1024
            notes.append(f"latency_tail_ms: {tail_note}")
            notes.append(f"passes: {len(pass_s)} of {len(lat) // len(pass_s)} instances")
            notes.append(f"median of all samples: {statistics.median(lat_ms):.6g} ms")
            raw_ms = lat_ms
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    failed = len(loop.failures)
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "metadata": meta,
        "result": result,
        "error_rate": failed / loop.attempted,
        "failures": loop.failures[:20],
        "notes": notes,
        "layer_split": split,
        "latency_ms": raw_ms,
    }
    if trace:
        record["spans"] = tracer.dump()
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ordcore end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "ordcore" / "__init__.py").is_file():
        print(f"error: no ordcore sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"BENCH_{args.workload}_{'trace' if args.trace else 'e2e'}.json"
    out_path.write_text(json.dumps(record) + "\n")

    result = record["result"]
    print(" ".join(f"{k}={v}" for k, v in record["metadata"].items()))
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"error_rate: {record['error_rate']:.6g} ({result['failed']} of {result['attempted']})")
    for line in record["notes"] + record["layer_split"] + record["failures"]:
        print(line)
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
