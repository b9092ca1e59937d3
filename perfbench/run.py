#!/usr/bin/env python3
"""Pipeline benchmark: the `experiments` binary end to end, split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-cold|quick-all> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the release `experiments` binary and the traced replay
(`perfbench/replay`) into `$CARGO_TARGET_DIR` (default `.bench_build/`), then
spawns the workload's commands one at a time with `LSQCA_THREADS=2`, each with
`--metrics-out` and span tracing off. Every command's stdout is compared with
the SHA-256 in `reference.json` and its counters with the workload's
expectations; a mismatch counts as a failed command, never as a timing.

With `--trace 0` it prints the end-to-end metrics over the samples that fit in
`--seconds` (times: each command's fastest sample, summed; the rest:
medians). With `--trace 1` it runs one untraced sample, then
replays the workload in-process with the replay binary, which times every call
into the layer crates, and prints the per-layer metrics (medians over the
replays). The replay must reproduce every report byte for byte and simulate as
many points as the untraced run's `sim.runs`; otherwise no per-layer number is
published. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. See `README.md` for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

WORKLOADS = ("paper-cold", "quick-all")
PAPER_COMMANDS = ("fig8", "fig13", "headline", "ablation", "hybrid-migrate")
THREADS = "2"
# Set-ups per untraced run; `setup_s` is their median.
SETUPS = 9
# A paper-cold sample takes 15-20 s; the fastest of three per command is
# steady where a single sample spreads run to run by more than 20%.
MIN_SAMPLES = 3
# Every run must end within 180 s of its start once the build is done.
DEADLINE_S = 170.0
MB = float(1 << 20)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
    "setup_s": "s",
    "paper_err_pct": "%",
}

PER_LAYER = {
    "workloads.acquire_s": "s",
    "workloads.compiled": "count",
    "workloads.hits": "count",
    "workloads.hit_time_frac": "frac",
    "core.result_key_s": "s",
    "core.result_key_calls": "count",
    "core.hot_qubits_s": "s",
    "core.hot_qubits_calls": "count",
    "core.result_from_stats_s": "s",
    "sim.build_s": "s",
    "sim.builds": "count",
    "sim.execute_s": "s",
    "sim.instructions": "count",
    "sim.ns_per_instruction": "ns",
    "sim.beats": "beats",
    "sim.seek_beats": "beats",
    "sim.magic_wait_beats": "beats",
    "json.stats_s": "s",
    "json.encodes": "count",
    "json.decodes": "count",
    "store.self_s": "s",
    "store.computed": "count",
    "store.hits": "count",
    "store.hit_time_frac": "frac",
    "store.mb_written": "MB",
    "analysis.locality_s": "s",
    "bench.render_s": "s",
    "replay.wall_s": "s",
    "replay.cpu_s": "s",
    "replay.attributed_frac": "frac",
    "replay.overhead_frac": "frac",
}

# Counters each kind of command must show in its `--metrics-out` file; an
# absent counter reads as 0.
CLEAN = {"result_store.quarantined": 0, "workload_cache.invalidated": 0}
EXPECT = {
    "cold": CLEAN,
    "quick": {**CLEAN, "result_store.hits": 0, "workload_cache.hits": 0},
}


class BenchError(Exception):
    """The benchmark cannot run at all: sources missing or the build failed."""


@dataclass
class Spawned:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class CommandRun:
    spawned: Spawned
    stdout: Path
    metrics: Path
    counters: dict | None


@dataclass
class Sample:
    walls: list[float]
    cpus: list[float]
    peak_rss_mb: float
    disk_mb: float
    sim_runs: int
    paper_err_pct: float

    @property
    def wall(self) -> float:
        return sum(self.walls)


def best_total(series: list[list[float]]) -> float:
    """Sum over commands of each command's smallest value across samples.

    Other tenants of a shared machine only ever add time to a command, and
    their load comes and goes within seconds, so each command's fastest
    sample is the steadiest estimate of its undisturbed cost."""
    return sum(min(column) for column in zip(*series))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(*paths: Path | None) -> int:
    """Total size of the regular files at or below each existing path."""
    total = 0
    for path in paths:
        if path is None or not path.exists():
            continue
        if path.is_file():
            total += path.stat().st_size
            continue
        for base, _, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, deadline: float) -> Spawned:
    """Runs one child to completion, killing it at `deadline` (monotonic)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def command_env(cache_dir: Path | None) -> dict:
    """The environment of a spawned command: no inherited `LSQCA_*` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LSQCA_")}
    env["LSQCA_THREADS"] = THREADS
    if cache_dir is None:
        env["LSQCA_NO_CACHE"] = "1"
    else:
        env["LSQCA_CACHE_DIR"] = str(cache_dir)
    return env


def read_counters(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())["counters"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_command(code: int, digest: str, reference: str, counters: dict | None,
                  expect: dict) -> list[str]:
    """Everything wrong with one command's outcome; empty when it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if digest != reference:
        problems.append(f"stdout sha256 {digest[:12]} differs from the reference {reference[:12]}")
    if counters is None:
        problems.append("no readable --metrics-out counters")
    else:
        for name, want in expect.items():
            got = counters.get(name, 0)
            if got != want:
                problems.append(f"counter {name} = {got}, expected {want}")
    return problems


def headline_claims(text: str) -> list[dict]:
    """The `headline` rows from a `headline --json` or `all --json` report."""
    marker = "==== headline ====\n"
    if marker in text:
        text = text.split(marker, 1)[1].split("\n==== ", 1)[0]
    return json.loads(text)


def paper_err_pct(claims: list[dict]) -> float:
    """Largest relative error of the measured density and overhead against
    the paper's values, in percent."""
    errors = [
        abs(claim[f"measured_{field}"] - claim[f"paper_{field}"]) / claim[f"paper_{field}"]
        for claim in claims
        for field in ("density", "overhead")
    ]
    return 100.0 * max(errors)


def attributed_frac(layer_seconds: float, cpu_seconds: float) -> float:
    """Share of the replay's CPU time spent inside the timed layer calls.

    Layer times are wall time inside each call summed over threads, so a
    call whose thread waits for a core counts more than its CPU time and the
    share can exceed 1 slightly."""
    return layer_seconds / cpu_seconds if cpu_seconds > 0 else 0.0


def replay_metrics(report: dict, wall: float, cpu: float, untraced_wall: float,
                   mb_written: float) -> dict:
    """The published per-layer metrics of one replay."""
    metrics = {name: report[name] for name in PER_LAYER if name in report}
    metrics["store.mb_written"] = mb_written
    metrics["replay.wall_s"] = wall
    metrics["replay.cpu_s"] = cpu
    metrics["replay.attributed_frac"] = attributed_frac(report["replay.attributed_s"], cpu)
    metrics["replay.overhead_frac"] = wall / untraced_wall - 1.0
    return metrics


def result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units
                    if name in values},
    }


def build() -> tuple[Path, Path]:
    """Builds the release `experiments` binary and the replay; returns both."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise BenchError(f"no repository sources around {HERE.name}/ (Cargo.toml, crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "lsqca-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "replay" / "Cargo.toml")],
    ):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchError(f"`{' '.join(argv)}` failed")
    return target / "release" / "experiments", target / "release" / "lsqca-perfbench-replay"


class Bench:
    def __init__(self, workload: str, seconds: float, experiments: Path, replay: Path,
                 work: Path):
        self.workload = workload
        self.seconds = seconds
        self.experiments_bin = experiments
        self.replay_bin = replay
        self.deadline = time.monotonic() + DEADLINE_S
        self.paper = workload != "quick-all"
        self.scale = "full" if self.paper else "quick"
        self.commands = PAPER_COMMANDS if self.paper else ("all",)
        self.role = "cold" if self.paper else "quick"
        self.cache = work / "cache" if self.paper else None
        self.store = work / "store" if self.paper else None
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def stem(self, name: str) -> Path:
        """Counts one attempted command and names its output files."""
        self.attempted += 1
        return self.out / f"{self.attempted:04d}-{name}"

    def experiments(self, scale: str, command: str, role: str) -> CommandRun:
        """Spawns and checks one `experiments <command> --json`."""
        paper = scale == "full"
        stem = self.stem(command)
        stdout, metrics = stem.with_suffix(".txt"), stem.with_suffix(".metrics.json")
        argv = [str(self.experiments_bin), command, "--json", "--metrics-out", str(metrics)]
        if paper:
            argv += ["--full", "--store-dir", str(self.store)]
        else:
            argv.append("--no-store")
        spawned = spawn(argv, command_env(self.cache if paper else None), stdout,
                        stem.with_suffix(".err"), self.deadline)
        counters = read_counters(metrics)
        self.fail(f"{command} ({role})", check_command(
            spawned.code, sha256(stdout), REFERENCE[scale][command], counters, EXPECT[role]))
        return CommandRun(spawned, stdout, metrics, counters)

    def sample(self, role: str) -> Sample:
        """One pass over the workload's commands."""
        runs = [self.experiments(self.scale, command, role) for command in self.commands]
        headline = runs[PAPER_COMMANDS.index("headline")] if self.paper else runs[0]
        try:
            err = paper_err_pct(headline_claims(headline.stdout.read_text()))
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            err = 0.0  # the digest check has already failed this command
        files = [path for run in runs for path in (run.stdout, run.metrics)]
        return Sample(
            walls=[run.spawned.wall for run in runs],
            cpus=[run.spawned.cpu for run in runs],
            peak_rss_mb=max(run.spawned.rss_mb for run in runs),
            disk_mb=tree_bytes(self.cache, self.store, *files) / MB,
            sim_runs=sum((run.counters or {}).get("sim.runs", 0) for run in runs),
            paper_err_pct=err,
        )

    def fresh_state(self) -> None:
        """An empty workload cache and result store."""
        for path in (self.cache, self.store):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)

    def setup(self) -> float:
        """Builds the workload's starting state; returns its wall time.

        A quick `headline` smoke run proves the binary reproduces its
        reference report; paper-cold then gets an empty cache and store."""
        start = time.perf_counter()
        self.experiments("quick", "headline", "quick")
        if self.paper:
            self.fresh_state()
        return time.perf_counter() - start

    def repeat(self, step) -> list:
        """Calls `step` until `--seconds` have passed and it ran at least
        MIN_SAMPLES times, never starting a call that would likely overrun
        the deadline."""
        values = []
        start = time.monotonic()
        while True:
            if self.workload == "paper-cold" and values:
                self.fresh_state()
            values.append(step())
            elapsed = time.monotonic() - start
            if elapsed >= self.seconds and len(values) >= MIN_SAMPLES:
                return values
            if time.monotonic() + 1.5 * elapsed / len(values) > self.deadline:
                return values

    def untraced(self) -> dict:
        setups = [self.setup() for _ in range(SETUPS)]
        samples = self.repeat(lambda: self.sample(self.role))
        series = {
            "wall_s": [s.wall for s in samples],
            "cpu_s": [sum(s.cpus) for s in samples],
            "peak_rss_mb": [s.peak_rss_mb for s in samples],
            "disk_mb": [s.disk_mb for s in samples],
            "setup_s": setups,
            "paper_err_pct": [s.paper_err_pct for s in samples],
        }
        values = {name: statistics.median(values) for name, values in series.items()}
        values["wall_s"] = best_total([s.walls for s in samples])
        values["cpu_s"] = best_total([s.cpus for s in samples])
        for name, unit in END_TO_END.items():
            how = "best of" if name in ("wall_s", "cpu_s") else "median of"
            print(f"  {name:<14} {values[name]:>12.4f} {unit:<5} {how} n={len(series[name])}"
                  f"  (per sample: median {statistics.median(series[name]):.4f},"
                  f" min {min(series[name]):.4f}, max {max(series[name]):.4f})")
        return values

    def replay(self, untraced: Sample) -> dict:
        """One traced in-process replay of the workload, checked."""
        stem = self.stem("replay")
        out = stem.with_suffix(".d")
        out.mkdir()
        argv = [str(self.replay_bin), "run", "--scale", self.scale, "--out-dir", str(out)]
        if self.paper:
            argv += ["--cache-dir", str(self.cache), "--store-dir", str(self.store)]
        argv += self.commands
        before = tree_bytes(self.store)
        stdout = stem.with_suffix(".txt")
        spawned = spawn(argv, command_env(None), stdout, stem.with_suffix(".err"),
                        self.deadline)
        problems = [] if spawned.code == 0 else [f"exit code {spawned.code}"]
        report = {}
        try:
            report = json.loads(stdout.read_text().strip().splitlines()[-1])
        except (ValueError, IndexError):
            problems.append("no per-layer report")
        for command in self.commands:
            path = out / f"{command}.txt"
            if not path.is_file() or sha256(path) != REFERENCE[self.scale][command]:
                problems.append(f"{command} report differs from the reference")
        if report.get("replay.points") != untraced.sim_runs:
            problems.append(f"{report.get('replay.points')} simulated points, "
                            f"the untraced run's sim.runs is {untraced.sim_runs}")
        self.fail("replay", problems)
        if problems:
            return {}
        mb_written = (tree_bytes(self.store) - before) / MB
        return replay_metrics(report, spawned.wall, spawned.cpu, untraced.wall, mb_written)

    def traced(self) -> dict:
        self.setup()
        untraced = self.sample(self.role)
        if self.workload == "paper-cold":
            self.fresh_state()
        replays = self.repeat(lambda: self.replay(untraced))
        if self.failures or not all(replays):
            return {}
        values = {name: statistics.median(r[name] for r in replays) for name in PER_LAYER}
        print(f"  {len(replays)} replays; untraced wall {untraced.wall:.3f} s, "
              f"sim.runs {untraced.sim_runs}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<26} {values[name]:>16.6f} {unit}")
        return values


def calibrate(replay: Path) -> float | None:
    proc = subprocess.run([str(replay), "calibrate"], capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])["calibration_ns_per_op"]
    except (ValueError, IndexError, KeyError):
        return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="names the run's scratch directory; the figure commands "
                             "have no random inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        experiments, replay = build()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seconds, experiments, replay, work)
    try:
        calibration = calibrate(replay)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"nproc {os.cpu_count()}, LSQCA_THREADS={THREADS}, calibration "
              f"{calibration} ns per frozen-BFS call")
        values = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"  failed_frac {failed / bench.attempted:.4f} "
          f"({failed} of {bench.attempted} commands)")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result(failed == 0, bench.attempted, failed, values, units)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
