"""The repository benchmark: three workloads through the program's public surface.

    python3 perfbench/run.py --workload figure-sweep|served-mix|lifetime \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it reports the
per-layer metrics of a traced run beside an untraced run of the same inputs.
Timings are scaled to a nominal host speed (``calibration.py``).  The last
line of standard output is the JSON result; the line before it is a report
with provenance, the unscaled wall-clock metrics, sample counts, record
digests and any problems found.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402
from percentiles import LATENCY_METRICS, MIN_BEYOND, beyond, percentile  # noqa: E402

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("specs_per_s", "specs/s"),
    ("rounds_per_s", "rounds/s"),
    ("repeat_p50_s", "s"),
    ("novel_p50_s", "s"),
)
#: Set-up-only interpreters per closed-loop run; ``setup_s`` is the median
#: over them and the measuring interpreter.
SETUP_PROBES = 5
#: Seconds a child may take beyond its budget (start-up, last iteration, checks).
CHILD_GRACE_S = 90.0


def _provenance(root: Path, args: argparse.Namespace, started_load: float) -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = result.stdout.strip() or commit
    parameters: Dict[str, object] = {"seconds": args.seconds}
    if args.workload == "served-mix":
        parameters.update(
            rate_per_s=workloads.SERVE_RATE,
            mix_counts_per_block=workloads.MIX_COUNTS,
            warmup_novel=workloads.WARMUP_NOVEL,
            repeat_min_age=workloads.REPEAT_MIN_AGE,
            scenario_seeds=workloads.SERVE_SCENARIO_SEEDS,
            lossy_every=workloads.SERVE_LOSSY_EVERY,
            max_rounds=workloads.SERVE_MAX_ROUNDS,
        )
    elif args.workload == "figure-sweep":
        parameters.update(trials=workloads.SWEEP_TRIALS, setup_probes=SETUP_PROBES)
    else:
        parameters.update(trials=workloads.LIFETIME_TRIALS, setup_probes=SETUP_PROBES)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "parameters": parameters,
        "loadavg_at_start": started_load,
    }


# ------------------------------------------------------------ closed loops
def _run_child(
    root: Path, env, args, workdir: Path, budget: float = 0.0, trace: bool = False
) -> Dict[str, object]:
    """One fresh interpreter running the workload; returns its result plus its set-up time.

    With ``budget`` 0 the interpreter only sets up.  The set-up time is
    scaled by reference loops timed just before the start and after the end.
    """
    workdir.mkdir(parents=True)
    argv = [
        sys.executable,
        str(HERE / "closed_loop.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", str(budget),
        "--workdir", str(workdir),
    ]
    if not budget:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace-out", str(workdir / "trace.json")]
    before = calibration.reference()
    with open(workdir / "child.log", "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=env, cwd=root)
        try:
            ready = process.stdout.readline()
            setup_s = time.perf_counter() - started
            output, _ = process.communicate(timeout=budget + CHILD_GRACE_S)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
    if ready.strip() != b"READY" or process.returncode != 0:
        detail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{args.workload} child failed (exit {process.returncode}): {detail}")
    result = json.loads(output.decode("utf-8").strip().splitlines()[-1]) if budget else {}
    result["setup_s"] = setup_s
    result["setup_scale"] = calibration.scale((before + calibration.reference()) / 2)
    return result


def closed_loop_metrics(iterations, scaled: bool = True) -> Dict[str, float]:
    """Throughputs and per-spec latency percentiles over a run's finished iterations.

    Each iteration's times are multiplied by its calibration scale, or
    taken as measured when ``scaled`` is false.
    """
    done = [iteration for iteration in iterations if iteration]

    def factor(iteration) -> float:
        return iteration["scale"] if scaled else 1.0

    wall = sum(iteration["wall_s"] * factor(iteration) for iteration in done)
    samples = {
        kind: [value * factor(iteration) for iteration in done for value in iteration[kind]]
        for kind in ("novel_s", "repeat_s")
    }
    metrics = {
        "specs_per_s": sum(iteration["specs"] for iteration in done) / wall,
        "rounds_per_s": sum(iteration["rounds"] for iteration in done) / wall,
    }
    for name, (sample, q) in LATENCY_METRICS.items():
        metrics[name] = percentile(samples[f"{sample}_s"], q)
    return metrics


def _closed_loop(root: Path, env, args, workdir: Path) -> Dict[str, object]:
    if args.trace:
        half = args.seconds / 2
        untraced = _run_child(root, env, args, workdir / "untraced", half)
        traced = _run_child(root, env, args, workdir / "traced", half, trace=True)
        children = [untraced, traced]
        # Both children draw the same iteration inputs, so the iterations both
        # finished compare the same work with tracing off and on.
        pairs = [
            (plain, timed)
            for plain, timed in zip(untraced["iterations"], traced["iterations"])
            if plain and timed
        ]
        layers = traced["layers"]
        layers["trace.overhead_frac"]["value"] = (
            sum(timed["wall_s"] * timed["scale"] for _, timed in pairs)
            / sum(plain["wall_s"] * plain["scale"] for plain, _ in pairs)
            - 1.0
        )
        report = {"layers": layers}
        if any(plain["sha256"] != timed["sha256"] for plain, timed in pairs):
            untraced["failed"] += 1
            untraced["problems"].append("traced records differ from untraced records")
    else:
        probes = [
            _run_child(root, env, args, workdir / f"probe-{probe}") for probe in range(SETUP_PROBES)
        ]
        measured = _run_child(root, env, args, workdir / "measured", args.seconds)
        children = [measured]
        setups = [child["setup_s"] * child["setup_scale"] for child in probes + [measured]]
        report = {
            "metrics": {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": measured["peak_rss_mb"],
                **closed_loop_metrics(measured["iterations"]),
            },
            "wall_clock_metrics": {
                "setup_s": statistics.median(child["setup_s"] for child in probes + [measured]),
                **closed_loop_metrics(measured["iterations"], scaled=False),
            },
            "samples": {
                "repeat": sum(len(i["repeat_s"]) for i in measured["iterations"] if i),
                "novel": sum(len(i["novel_s"]) for i in measured["iterations"] if i),
            },
            "host_scale": statistics.median(i["scale"] for i in measured["iterations"] if i),
        }
    report.update(
        attempted=sum(child["attempted"] for child in children),
        failed=sum(child["failed"] for child in children),
        problems=[problem for child in children for problem in child["problems"]][:5],
        records_sha256=children[0]["records_sha256"],
        iterations=[len(child["iterations"]) for child in children],
        late=False,
    )
    return report


# ------------------------------------------------------------------- main
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("figure-sweep", "served-mix", "lifetime"), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {root / 'src' / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    started_load = os.getloadavg()[0]
    source = str(root / "src")
    sys.path.insert(0, source)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source, str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    workdir = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = root / ".perfbench" / "results"
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "served-mix":
            import served_mix

            report = served_mix.run(root, args.seed, args.seconds, bool(args.trace), workdir, env)
        else:
            report = _closed_loop(root, env, args, workdir)
    finally:
        for spans in workdir.rglob("*trace*.json"):
            shutil.copyfile(spans, results / f"{stamp}-{spans.parent.name}-{spans.name}")
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = int(report["attempted"]), int(report["failed"])
    correct = failed == 0 and not report["late"]
    if args.trace:
        metrics = report.pop("layers")
    else:
        values = report.pop("metrics")
        values["ok_frac"] = 1.0 - failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["percentiles_short_of_samples"] = [
            name
            for name, (sample, q) in LATENCY_METRICS.items()
            if beyond(report["samples"][sample], q) < MIN_BEYOND
        ]
    report["provenance"] = _provenance(root, args, started_load)
    report["correct"] = correct
    (results / f"{stamp}.json").write_text(json.dumps({"report": report, "metrics": metrics}))
    if report["late"]:
        print("perfbench: the request generator fell behind its schedule; run invalid",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
