"""nohidelab benchmark: four CLI workloads run in process as a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep_shots, perfect_shots, simulate_q10, zx_derive, or
`all` to run each in its own process. One client calls
`nohidelab.cli.main(argv)` back to back; each call writes its output with
`--out`, and the output is checked after the call, outside the timing.

--trace 0 times the loop for S seconds and reports the end-to-end metrics.
--trace 1 runs pairs of one untraced and one traced call (every function in
tracer.TARGETS wrapped) for S seconds in all, and reports per-layer metrics
per invocation. Counts come from two traced passes over the first
COUNT_PASS argvs, which must agree exactly; every traced output must equal
the untraced output byte for byte.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with the environment
block, goes to .perfbench-work/<workload>/result-trace<0|1>.json and the
spans of a traced run to .perfbench-work/<workload>/spans.jsonl.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

import envinfo  # noqa: E402  (sibling module; run as a script)
import workloads  # noqa: E402
from tracer import MODULES, ROOT_SPAN, Tracer  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Fresh-process set-up probes per untraced run, spread over the timed phase.
SETUP_RUNS = 11
# The calls right after a probe run slow; those in the next RECOVER_S
# seconds are checked but not timed.
RECOVER_S = 0.1
COUNT_PASS = 6
TAIL_BEYOND = 10

# Printed and stored with every untraced run, but too unsteady on a shared
# host to gate on (see README.md).
UNGATED = {"run_s.p50": "s", "run_s.tail": "s", "runs_per_s": "1/s"}

# How each per-layer metric is computed, per invocation: `.calls` and the
# three counts below come from the count passes; `.self_s` and `.total_s`
# are medians over the traced loop; `<module>.self_s` sums the self time of
# every span of that module; `trace.overhead` is traced over untraced time.
# These count metrics sum the count recorded on a span.
SPAN_COUNTS = {
    "circuits.embed_bytes": "circuits.gate_matrix",
    "jsonio.bytes_out": "jsonio.write_text_atomic",
    "zx.rewrite_steps": "zx.steps_to_json_list",
}


class Runner:
    """Invokes the CLI on pool entries and checks every output, untimed."""

    def __init__(self, cli, wl: workloads.Workload) -> None:
        self.cli = cli
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, index: int, tracer: Tracer | None = None) -> tuple[int, float, bytes | None]:
        """Run pool entry `index`, traced when `tracer` is given; return
        (invocation id, seconds, output bytes or None when it failed)."""
        out = self.wl.out_path
        out.unlink(missing_ok=True)
        inv = self.attempted
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            tracer.begin(inv)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(list(self.wl.argvs[index]))
        except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish()
            tracer.restore()
        data = out.read_bytes() if code == 0 and out.exists() else None
        if code != 0:
            error = f"exit code {code}"
        elif data is None:
            error = "no output file"
        else:
            try:
                error = self.wl.check(index, data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"malformed output: {exc!r}"
        if error:
            self.failures.append(f"{' '.join(self.wl.argvs[index])}: {error}")
            data = None
        return inv, elapsed, data


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples beyond it; the maximum when that would not lie above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n


def setup_time(wl: workloads.Workload) -> float:
    """Import plus first invocation, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), *wl.argvs[0]],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def probe_and_recover(runner: Runner, wl: workloads.Workload) -> float:
    """One set-up probe, then untimed calls for RECOVER_S seconds."""
    elapsed = setup_time(wl)
    t0, index = time.perf_counter(), 0
    while time.perf_counter() - t0 < RECOVER_S:
        runner.invoke(index % len(wl.argvs))
        index += 1
    return elapsed


def untraced(runner: Runner, wl: workloads.Workload, seconds: float, detail: dict) -> dict:
    samples, setup, total = [], [], 0.0
    while total < seconds:
        # One probe every seconds/SETUP_RUNS of call time, so that the probes
        # meet the same phases of a shared host as the calls do.
        if total >= len(setup) * seconds / SETUP_RUNS:
            setup.append(probe_and_recover(runner, wl))
        _, elapsed, _ = runner.invoke(len(samples) % len(wl.argvs))
        samples.append(elapsed)
        total += elapsed
    while len(setup) < SETUP_RUNS:
        setup.append(probe_and_recover(runner, wl))
    tail_value, tail_pct = tail(samples)
    detail.update({"samples_s": samples, "samples": len(samples), "timed_s": sum(samples),
                   "tail_percentile": tail_pct, "setup_samples_s": setup,
                   "run_s.p50": statistics.median(samples), "run_s.tail": tail_value,
                   "runs_per_s": len(samples) / sum(samples)})
    return {
        "run_s.p90": sorted(samples)[math.ceil(0.9 * len(samples)) - 1],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner: Runner, seconds: float, spans_path: Path, detail: dict,
           problems: list[str]) -> dict:
    """Pairs of one untraced and one traced call on the same pool entry, for
    `seconds` in all; then two traced passes over the first COUNT_PASS entries."""
    tracer = Tracer()
    n_pool = len(runner.wl.argvs)
    plain: list[float] = []
    loop: list[tuple[int, float]] = []
    reference: list[bytes | None] = []
    total = 0.0
    while total < seconds or len(loop) < COUNT_PASS:
        index = len(loop) % n_pool
        # Alternate which call of the pair goes first, so warm-cache effects cancel.
        if len(loop) % 2:
            inv, traced_s, traced_out = runner.invoke(index, tracer)
            _, plain_s, plain_out = runner.invoke(index)
        else:
            _, plain_s, plain_out = runner.invoke(index)
            inv, traced_s, traced_out = runner.invoke(index, tracer)
        if traced_out != plain_out:
            problems.append(f"traced output differs from untraced output for entry {index}")
        if len(reference) < COUNT_PASS:
            reference.append(plain_out)
        plain.append(plain_s)
        loop.append((inv, traced_s))
        total += plain_s + traced_s
    passes = []
    for _ in range(2):
        invs = []
        for index in range(COUNT_PASS):
            inv, _, out = runner.invoke(index, tracer)
            if out != reference[index]:
                problems.append(f"traced output differs from untraced output for entry {index}")
            invs.append(inv)
        passes.append(invs)
    if tracer.not_restored:
        problems.append(f"bindings not restored: {sorted(tracer.not_restored)}")
    if tracer.missing:
        problems.append(f"traced functions not found: {tracer.missing}")
    tracer.write(spans_path)

    per_inv = tracer.per_invocation()
    counts = []
    for invs in passes:
        totals: dict[str, list[int]] = {}
        for inv in invs:
            for name, row in per_inv[inv].items():
                acc = totals.setdefault(name, [0, 0])
                acc[0] += row[0]
                acc[1] += row[3]
        counts.append(totals)
    if counts[0] != counts[1]:
        problems.append("span counts differ between two traced passes over the same argvs")
    if counts[0].get(ROOT_SPAN, [0])[0] != COUNT_PASS:
        problems.append("a traced call left no root span")
    totals = counts[0]

    def median_of(pick) -> float:
        return statistics.median(pick(per_inv.get(inv, {})) for inv, _ in loop)

    def per_call(label: str, field: int) -> float:
        return median_of(lambda rows: rows.get(label, [0, 0, 0, 0])[field] * 1e-9)

    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            value = statistics.median(s for _, s in loop) / statistics.median(plain)
        elif name in SPAN_COUNTS:
            value = totals.get(SPAN_COUNTS[name], [0, 0])[1] / COUNT_PASS
        elif name.endswith(".calls"):
            value = totals.get(name[: -len(".calls")], [0, 0])[0] / COUNT_PASS
        elif name.endswith(".total_s"):
            value = per_call(name[: -len(".total_s")], 2)
        elif name[: -len(".self_s")] in MODULES:
            prefix = name[: -len("self_s")]
            value = median_of(lambda rows: 1e-9 * sum(
                row[1] for label, row in rows.items() if label.startswith(prefix)))
        else:
            value = per_call(name[: -len(".self_s")], 1)
        metrics[name] = value
    detail.update(pairs=len(loop), count_pass=COUNT_PASS, spans=len(tracer))
    return metrics


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nohidelab" / "__init__.py").is_file():
        print(f"error: no nohidelab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env = envinfo.environment(ROOT)
    sys.path.insert(0, str(SRC))
    from nohidelab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported nohidelab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, work)
    runner = Runner(cli, wl)
    _, _, first = runner.invoke(0)  # warm-up, untimed; its bytes anchor the rerun check

    detail: dict = {}
    problems: list[str] = []
    if args.trace:
        metrics = traced(runner, args.seconds, work / "spans.jsonl", detail, problems)
        units = PER_LAYER
    else:
        metrics = untraced(runner, wl, args.seconds, detail)
        units = END_TO_END
    _, _, again = runner.invoke(0)
    if first is None or again != first:
        problems.append("rerun of the first argv did not give byte-identical output")

    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "detail": detail,
              "fail_ratio": failed / runner.attempted, "failures": runner.failures[:20],
              "problems": problems, "samples_s": detail.pop("samples_s", None), **result}
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"environment {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} detail={json.dumps(detail)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, unit in UNGATED.items():
        if name in detail:
            print(f"  {name:36s} {detail[name]:.6g} {unit} (not gated, see README.md)")
    print(f"  {'fail_ratio':36s} {failed / runner.attempted:.6g} ratio "
          f"({failed}/{runner.attempted})")
    for line in runner.failures[:5] + problems:
        print(f"  FAIL {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
