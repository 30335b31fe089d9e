"""Trace-to-match benchmark of the repro serve stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 0 --seconds 10
    python3 perfbench/run.py --workload fabric_bsp --trace 1
    python3 perfbench/run.py                  # every workload in turn

One invocation measures one workload (or all of them) for ``--seconds``
of repeated passes and checks every pass's outputs.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
records spans around every public call in separate traced passes and
reports the per-layer metrics, a self-time table, and a Chrome-format
span file under ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The parent process builds each workload's inputs from the seed; the
measured passes run in a fresh child interpreter that receives only
those inputs, so ``peak_rss_mb`` is the working set of the serve stack
(plus its worker processes), not of the input generator -- except on
``trace_pipeline``, where generating the traces is the measured work.

Exit status: 0 when every output check passed, 1 when a check failed or
a pass crashed, 2 when run outside a complete checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("trace_pipeline", "serve_mixed", "serve_cluster",
                  "fabric_bsp")
#: Each workload's run must end within 180 s: input generation plus
#: measurement are cut off here.
TIME_LIMIT_S = 170.0
#: Untraced op-latency percentiles need this many samples per run.
MIN_OPS = 1000
MIN_PASSES = 4
#: Set-ups timed alone after the passes, for more ``setup_s`` samples.
EXTRA_SETUPS = 10


def _use_checkout() -> dict:
    """Put the checkout's ``src`` and ``benchmarks`` first on the import
    path; returns the benchmark spec.  Exits 2 outside a checkout."""
    spec_path = ROOT / "BENCHMARK.json"
    needed = (ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "bench_fabric.py", spec_path)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a complete checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    return json.loads(spec_path.read_text())


# -- child: the measured passes -----------------------------------------------

def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _check(passes, ref) -> tuple[int, int, list[str]]:
    """Every pass against the ``verify=True`` reference; returns
    (attempted, failed, problems) over all passes, reference included."""
    attempted = ref.attempted
    failed = ref.failed
    problems = [f"reference: {p}" for p in ref.problems]
    for i, p in enumerate(passes):
        attempted += p.attempted
        bad = [k for k in ref.summary if p.summary[k] != ref.summary[k]]
        p.fail(len(bad), f"report differs from reference on {bad}")
        keys = ref.digests.keys() | p.digests.keys()
        diff = sum(ref.digests.get(k) != p.digests.get(k) for k in keys)
        p.fail(diff, f"{diff} flush digests differ from reference")
        failed += p.failed
        problems += [f"pass {i}: {msg}" for msg in p.problems]
    return attempted, failed, problems


def _self_time_table(rec) -> str:
    rows = rec.self_times()
    wall = sum(secs for _, secs in rows.values())
    lines = [f"{'layer (span self time)':34s} {'calls':>7s} "
             f"{'self_s':>10s} {'share':>7s}"]
    for name, (calls, secs) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        label = ("residual: benchmark code" if name == "benchmark"
                 else name)
        lines.append(f"{label:34s} {calls or '':>7} {secs:10.6f} "
                     f"{secs / wall:7.1%}")
    lines.append(f"{'total = traced wall':34s} {'':7s} {wall:10.6f}")
    return "\n".join(lines)


def measure(workload: str, inputs, seed: int, seconds: float,
            trace: bool) -> dict:
    import numpy as np
    import workloads as W
    from spans import SpanRecorder

    wl = W.WORKLOADS[workload]
    probes = [W.host_probe()]
    ref = wl.reference(inputs, seed)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while True:
        before = W.host_probe()
        p = wl.run(inputs, seed)
        probes += [before, W.host_probe()]
        p.host_factor = W.host_factor(before, probes[-1])
        plain.append(p)
        if trace:
            rec = SpanRecorder()
            with rec.span("benchmark"):
                traced.append((wl.run(inputs, seed, rec), rec))
        if time.perf_counter() >= t_end and (trace or (
                len(plain) >= MIN_PASSES
                and sum(len(p.op_s) for p in plain) >= MIN_OPS)):
            break
    setups = [p.setup_s / p.host_factor for p in plain]
    for _ in range(EXTRA_SETUPS):
        before = W.host_probe()
        secs = wl.setup(inputs, seed)
        setups.append(secs / W.host_factor(before, W.host_probe()))
    host_ref = W.PROBE_N / statistics.median(probes)
    attempted, failed, problems = _check(
        plain + [p for p, _ in traced], ref)
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "info": {"passes": len(plain), "host.ref_matches_per_s": host_ref,
                    "host_factor": statistics.median(p.host_factor
                                                     for p in plain),
                    "failed_frac": failed / attempted}}
    if not trace:
        ops = np.concatenate([np.asarray(p.op_s) / p.host_factor
                              for p in plain]) * 1e6
        first = plain[0].summary
        out["info"]["op_samples"] = int(ops.size)
        out["info"]["op_p99_us"] = float(np.percentile(ops, 99))
        out["info"]["teardown_s"] = statistics.median(p.teardown_s
                                                      for p in plain)
        out["metrics"] = {
            "matches_per_s": statistics.median(
                p.matched * p.host_factor / p.wall for p in plain),
            "op_p50_us": float(np.percentile(ops, 50)),
            "vt_latency_p50_us": first["latency_p50_vt"] * 1e6,
            "vt_latency_p99_us": first["latency_p99_vt"] * 1e6,
            "model_matches_per_s": first["matched"] / first["model_seconds"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return out
    layers = {k: statistics.median(p.layers[k] for p, _ in traced)
              for k in traced[0][0].layers}
    traced_wall = statistics.median(p.wall for p, _ in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    layers["obs.tracing_overhead_frac"] = traced_wall / plain_wall - 1.0
    layers["host.ref_matches_per_s"] = host_ref
    layers.update(W.flush_curve(seed))
    # the table and span file come from the traced pass of median wall
    p, rec = sorted(traced, key=lambda pr: pr[0].wall)[len(traced) // 2]
    span_file = HERE / "out" / f"{workload}-seed{seed}.trace.json"
    rec.write_chrome_trace(span_file, pid=os.getpid())
    out["metrics"] = layers
    out["info"]["traced_passes"] = len(traced)
    out["info"]["span_file"] = str(span_file.relative_to(ROOT))
    out["table"] = _self_time_table(rec)
    return out


def _child_main() -> None:
    """``--child``: read a pickled job on stdin, write the pickled result
    on the original stdout; everything printed goes to stderr."""
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    job = pickle.load(sys.stdin.buffer)
    result = measure(**job)
    pickle.dump(result, result_out)
    result_out.close()


# -- parent -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build the inputs here, measure in a fresh child interpreter."""
    import workloads as W
    t0 = time.monotonic()
    job = {"workload": name, "inputs": W.WORKLOADS[name].make_inputs(seed),
           "seed": seed, "seconds": seconds, "trace": trace}
    # own session: a timeout kills the child and its cluster workers
    proc = subprocess.Popen([sys.executable, str(Path(__file__)), "--child"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            pickle.dumps(job), timeout=TIME_LIMIT_S - (time.monotonic() - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{name}: measurement exceeded "
                           f"{TIME_LIMIT_S:.0f}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: measurement process exited "
                           f"{proc.returncode}")
    return pickle.loads(out)


def _report(name: str, res: dict, units: dict[str, str]) -> None:
    info = res["info"]
    print(f"== {name}: {info['passes']} untraced passes"
          + (f", {info['traced_passes']} traced" if "traced_passes" in info
             else f", {info['op_samples']} op samples"))
    if "table" in res:
        print(res["table"])
        print(f"spans: {info['span_file']}")
    for metric, value in res["metrics"].items():
        print(f"  {metric:34s} {value:16.6g} {units[metric]}")
    print(f"  {'failed_frac':34s} {info['failed_frac']:16.6g} fraction "
          f"({res['failed']}/{res['attempted']})")
    if "traced_passes" not in info:
        print(f"  {'op_p99_us':34s} {info['op_p99_us']:16.6g} us "
              f"(normalized like op_p50_us, not gated)")
        print(f"  {'teardown_s':34s} {info['teardown_s']:16.6g} s "
              f"(raw wall, not gated)")
        print(f"  {'host.ref_matches_per_s':34s} "
              f"{info['host.ref_matches_per_s']:16.6g} pairs/s "
              f"(host-speed probe; timings above are scaled by the "
              f"median host factor {info['host_factor']:.3f})")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = _use_checkout()
    if args.child:
        _child_main()
        return 0
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            res = run_workload(name, args.seed, seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if res["metrics"].keys() != units.keys():
            raise RuntimeError(
                f"{name}: metrics {sorted(res['metrics'])} do not match "
                f"BENCHMARK.json {group} {sorted(units)}")
        _report(name, res, units)
        correct = correct and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({f"{prefix}{m}": {"value": v, "unit": units[m]}
                        for m, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
