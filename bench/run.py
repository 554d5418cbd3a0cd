"""Fixed-seed benchmark of the metrictrees command line, run in process.

Run from the repository root:

    python3 bench/run.py --workload shallow|deep|recognize --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each request is a call
to ``metrictrees.cli.main(argv)`` with ``--out`` pointing at a file, so it
covers parsing, the command, the report builders and the JSON write.  Every
request reads its own input file; nothing is read twice in a run.  The loop
runs whole rounds (every kind and size in equal numbers) until ``--seconds``
have passed and at least ``MIN_REQUESTS`` requests are done, or the input
pool runs out.  Outputs are checked after the loop against ``oracle.py``.

Set-up runs ``SETUPS`` times, each in a fresh interpreter: import the
library (numpy included), generate and write one share of the input pool,
and send one untimed request of each kind.  ``setup_s`` is the median of
those times.  All times are reported at a reference host speed (see
``CALIBRATION_S``); the raw wall-clock figures go to the detail line.

With ``--trace 1`` the run measures layers instead: rounds alternate between
untraced and traced with every layer wrapped (``layers.py``), followed by a
small traced probe of all three workloads that checks that the
workloads separate the layers.  Spans go to ``.bench_work/trace-*.json``.

The last line of standard output is the result object; the line before it
gives the sample count, failures per request kind and other details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from math import ceil
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_REQUESTS = 150  # at least 15 samples beyond req_p90_ms, even on deep trees
SETUPS = 3
# wall seconds of one round on the seed code (2-core Xeon VM);
# sizes the input pool, which is generated before the clock starts
ROUND_S = {"shallow": 1.4, "deep": 3.05, "recognize": 1.1}
POOL_MARGIN = 1.25
WARMUP_ROUND, PROBE_ROUND = 10_000, 30_000
# The host's speed drifts by 20-40 % over seconds to minutes (other tenants
# share its cores), which swamps the run-to-run differences a change makes.
# So a fixed pure-Python slice is timed between requests, and each latency
# is reported at the reference speed: scaled by CALIBRATION_S over the mean
# of the two slices around it.  Raw figures go to the detail line.
CALIBRATION_S = 0.002  # one slice on an idle core of a 2-core Xeon VM


def calibration_slice() -> float:
    start = perf_counter()
    table: dict[int, float] = {}
    x = 0.0
    for i in range(10_000):
        key = i & 127
        table[key] = table.get(key, 0.0) + x
        x = x * 0.5 + i
    return perf_counter() - start


def import_cli():
    """Import ``metrictrees.cli`` from ``src/`` of the current directory, only."""
    if not (SRC / "metrictrees" / "__init__.py").is_file():
        sys.exit("bench: no src/metrictrees here; run from the repository root")
    sys.path.insert(0, str(SRC))
    import metrictrees.cli

    if Path(metrictrees.__file__).resolve().parent != (SRC / "metrictrees").resolve():
        sys.exit(f"bench: imported metrictrees from {metrictrees.__file__}, not from src/")
    return metrictrees.cli


def write_input(slot: inputs.Slot, seed: int, folder: Path) -> list[str]:
    """Write the slot's input file; returns the request argv without --out."""
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / (slot.name + slot.suffix)
    rel = str(path.relative_to(ROOT))
    if slot.workload == "recognize":
        case = inputs.make_matrix(slot, seed)
        path.write_text(case.text(slot.suffix), encoding="utf-8")
        if slot.kind == "build":
            return ["build", rel, "--tree-out", rel + ".built"]
        return ["check", rel]
    case, rng = inputs.make_tree(slot, seed)
    path.write_text(case.text(rng), encoding="utf-8")
    # kappa's trial draws (node or edge, r/d, eps) depend on its --seed and the
    # tree size only; seeding it by round gives every run the same draws
    return inputs.tree_argv(slot, case, rel, kappa_seed=slot.round)


@dataclass
class Request:
    slot: inputs.Slot
    argv: list[str]
    out: Path
    code: int | None
    seconds: float  # wall time
    error: str | None
    scale: float  # reference speed / host speed around the request

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.scale


def serve(cli, rounds, argvs, folder: Path, seconds: float | None, tracer=None):
    """Closed loop over whole rounds; returns (requests, loop wall seconds)."""
    folder.mkdir(parents=True, exist_ok=True)
    done: list[Request] = []
    start = perf_counter()
    before = calibration_slice()
    for slots in rounds:
        for slot in slots:
            out = folder / (slot.name + ".json")
            argv = argvs[slot.name] + ["--out", str(out.relative_to(ROOT))]
            if tracer is not None:
                tracer.request += 1
            t0 = perf_counter()
            try:
                code, error = cli.main(argv), None
            except Exception as exc:  # a failed request, not a failed run
                code, error = None, f"raised {exc!r}"
            wall = perf_counter() - t0
            after = calibration_slice()
            scale = 2.0 * CALIBRATION_S / (before + after)
            done.append(Request(slot, argv, out, code, wall, error, scale))
            before = after
        if seconds is not None and perf_counter() - start >= seconds and len(done) >= MIN_REQUESTS:
            break
    return done, perf_counter() - start


def check(req: Request, seed: int) -> str | None:
    if req.error is not None:
        return req.error
    try:
        report = json.loads(req.out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"exit code {req.code}, no readable report: {exc}"
    try:
        if req.slot.workload == "recognize":
            case = inputs.make_matrix(req.slot, seed)
            tree_out = req.argv[req.argv.index("--tree-out") + 1] if req.slot.kind == "build" else ""
            return oracle.check_matrix_request(req.slot.kind, case, tree_out, req.code, report)
        case, _ = inputs.make_tree(req.slot, seed)
        return oracle.check_tree_request(req.slot.kind, case, req.argv, req.code, report)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return f"malformed output: {exc!r}"


def check_all(requests: list[Request], seed: int) -> dict[str, list[int]]:
    """Check every request; returns {kind: [failed, attempted]}."""
    by_kind: dict[str, list[int]] = {}
    for req in requests:
        error = check(req, seed)
        tally = by_kind.setdefault(req.slot.kind, [0, 0])
        tally[1] += 1
        if error is not None:
            tally[0] += 1
            print(f"bench: {req.slot.name} failed: {error}", file=sys.stderr)
    return by_kind


# --------------------------------------------------------------------- #
# Set-up                                                                  #
# --------------------------------------------------------------------- #


def pool_rounds(workload: str, seconds: int, trace: bool) -> int:
    per_round = len(inputs.round_slots(workload, 0, 0))
    if trace:  # an untraced and a traced half of equal size
        return 2 * max(2, ceil(seconds / 2 / ROUND_S[workload]))
    return max(ceil(MIN_REQUESTS / per_round), ceil(POOL_MARGIN * seconds / ROUND_S[workload]))


def setup_child(args) -> int:
    """One set-up: import, write this child's share of the pool, warm up.

    Calibration slices between the steps give the host's speed during the
    set-up; the parent takes their time back out of the wall time.
    """
    cli = import_cli()
    work = Path(args.workdir)
    argvs, slices = {}, [calibration_slice()]
    for rnd in range(args.setup_child, args.rounds, SETUPS):
        for slot in inputs.round_slots(args.workload, rnd, args.seed):
            argvs[slot.name] = write_input(slot, args.seed, work / "in")
        slices.append(calibration_slice())
    warm_up(cli, args.workload, args.seed, work / f"warm{args.setup_child}",
            WARMUP_ROUND + args.setup_child)
    slices.append(calibration_slice())
    (work / f"manifest{args.setup_child}.json").write_text(
        json.dumps({"argvs": argvs, "slices": slices}), encoding="utf-8")
    return 0


def run_setups(args, work: Path, rounds: int) -> tuple[list[tuple[float, float]], dict[str, list[str]]]:
    """Run the set-up children; returns ([(wall s, reference s)], argvs)."""
    times, argvs = [], {}
    for child in range(SETUPS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-child", str(child),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(work), "--rounds", str(rounds)]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=150, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        manifest = json.loads((work / f"manifest{child}.json").read_text(encoding="utf-8"))
        argvs.update(manifest["argvs"])
        slices = manifest["slices"]
        busy = wall - sum(slices)
        times.append((busy, busy * len(slices) * CALIBRATION_S / sum(slices)))
    return times, argvs


def warm_up(cli, workload: str, seed: int, folder: Path, rnd: int) -> None:
    """One untimed request of each kind, on inputs of its own.

    Its outcome is not checked: a defect shows in the checked requests.
    """
    for slot in inputs.warmup_slots(workload, rnd):
        argv = write_input(slot, seed, folder) + ["--out", str((folder / "out.json").relative_to(ROOT))]
        try:
            cli.main(argv)
        except Exception as exc:  # reported here, counted by the checked requests
            print(f"bench: warm-up request {argv} raised {exc!r}", file=sys.stderr)


# --------------------------------------------------------------------- #
# Runs                                                                    #
# --------------------------------------------------------------------- #


def timed_run(cli, args, work: Path) -> tuple[dict, dict, list[Request]]:
    rounds = pool_rounds(args.workload, args.seconds, trace=False)
    setup_times, argvs = run_setups(args, work, rounds)
    warm_up(cli, args.workload, args.seed, work / "warm-main", WARMUP_ROUND + SETUPS)
    plan = [inputs.round_slots(args.workload, r, args.seed) for r in range(rounds)]
    done, loop_s = serve(cli, plan, argvs, work / "out", args.seconds)
    lat_ms = np.array([r.norm_seconds for r in done]) * 1000.0
    raw_ms = np.array([r.seconds for r in done]) * 1000.0
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "requests_per_s": 1000.0 * len(done) / lat_ms.sum(),
        "req_p50_ms": float(np.percentile(lat_ms, 50)),
        "req_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    groups: dict[str, list[float]] = {}
    for r, ms in zip(done, lat_ms):
        groups.setdefault(f"{r.slot.kind}-{r.slot.size}", []).append(ms)
    detail = {"requests": len(done), "rounds": len(done) // len(plan[0]), "loop_s": loop_s,
              "pool_exhausted": len(done) == rounds * len(plan[0]),
              "host_slowdown": float(np.median([1.0 / r.scale for r in done])),
              "raw": {"setup_s": statistics.median(wall for wall, _ in setup_times),
                      "requests_per_s": len(done) / loop_s,
                      "req_p50_ms": float(np.percentile(raw_ms, 50)),
                      "req_p90_ms": float(np.percentile(raw_ms, 90))},
              "p50_ms_by_kind_size": {k: float(np.median(v)) for k, v in sorted(groups.items())},
              "setup_runs_s": setup_times}
    return metrics, detail, done


def trace_run(cli, args, work: Path, names: list[str]) -> tuple[dict, dict, list[Request]]:
    from layers import Tracer, layer_metrics

    rounds = pool_rounds(args.workload, args.seconds, trace=True)
    _, argvs = run_setups(args, work, rounds)
    warm_up(cli, args.workload, args.seed, work / "warm-main", WARMUP_ROUND + SETUPS)
    plan = [inputs.round_slots(args.workload, r, args.seed) for r in range(rounds)]
    # untraced and traced rounds alternate, so that drift in the host's
    # speed reaches both halves alike
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    tracer = Tracer()
    for untraced_round, traced_round in zip(plan[0::2], plan[1::2]):
        reqs, wall = serve(cli, [untraced_round], argvs, work / "out", None)
        plain, plain_s = plain + reqs, plain_s + wall
        tracer.install()
        try:
            reqs, wall = serve(cli, [traced_round], argvs, work / "out", None, tracer)
        finally:
            tracer.uninstall()
        traced, traced_s = traced + reqs, traced_s + wall
    names = [n for n in names if n != "trace.overhead_ratio"]
    sizes = list(inputs.SIZES[args.workload])
    req_sizes = np.array([r.slot.size for r in traced])
    metrics = layer_metrics(tracer, names, list(range(len(traced))), req_sizes, sizes)
    metrics["trace.overhead_ratio"] = (sum(r.norm_seconds for r in traced)
                                       / sum(r.norm_seconds for r in plain) - 1.0)
    probe, separation = separation_probe(cli, args.seed, work, names)

    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    t0 = min((s[4] for s in tracer.spans), default=0.0)
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "metrics": metrics,
        "separation": separation,
        "requests": [{"id": i, "name": r.slot.name, "kind": r.slot.kind, "size": r.slot.size,
                      "seconds": r.seconds} for i, r in enumerate(traced)],
        "spans": [[sid, parent, req, name, start - t0, end - t0]
                  for sid, parent, req, name, start, end in tracer.spans],
        "aggregates": [{"request": req, "name": name, "calls": c, "self_s": s, "total_s": t}
                       for (req, name), (c, s, t) in tracer.stats.items()],
    }, indent=1), encoding="utf-8")
    detail = {"requests": len(traced), "untraced_requests": len(plain), "untraced_s": plain_s,
              "traced_s": traced_s, "trace_file": str(trace_file.relative_to(ROOT)),
              "separation_ok": all(c["ok"] for c in separation.values())}
    return metrics, detail, plain + traced + probe


def separation_probe(cli, seed: int, work: Path, names: list[str]):
    """Trace one request of each kind at the middle size on every workload.

    Records that tree workloads never reach the four-point check or the
    reconstruction, that ``recognize`` never reaches covering or structure,
    and that deep trees walk at least 10x the chain nodes of shallow ones.
    """
    from layers import Tracer, layer_metrics

    names = [n for n in names if not n.endswith(".slope")]
    per_workload, done = {}, []
    for workload in inputs.WORKLOADS:
        size = inputs.SIZES[workload][1]
        if workload == "recognize":
            combos = product(inputs.MATRIX_KINDS, (True, False))
        else:
            combos = product(inputs.TREE_KINDS, (True,))
        slots = [inputs.Slot(workload, kind, size, PROBE_ROUND, i, additive)
                 for i, (kind, additive) in enumerate(combos)]
        argvs = {s.name: write_input(s, seed, work / "probe" / workload) for s in slots}
        tracer = Tracer()
        tracer.install()
        try:
            reqs, _ = serve(cli, [slots], argvs, work / "probe" / workload, None, tracer)
        finally:
            tracer.uninstall()
        done += reqs
        per_workload[workload] = layer_metrics(tracer, names, list(range(len(reqs))),
                                               np.array([size] * len(reqs)), [size])

    def zero(workload, prefixes):
        vals = {n: v for n, v in per_workload[workload].items() if n.startswith(prefixes)}
        return {"ok": all(v == 0 for v in vals.values()), "values": vals}

    reconstruct = ("ingest.check_four_point", "ingest.tree_from_distances")
    shallow_chain = per_workload["shallow"]["core.segment.chain_nodes"]
    deep_chain = per_workload["deep"]["core.segment.chain_nodes"]
    separation = {
        "shallow_skips_reconstruction": zero("shallow", reconstruct),
        "deep_skips_reconstruction": zero("deep", reconstruct),
        "recognize_skips_covering_and_structure": zero("recognize", ("covering.", "structure.")),
        "deep_chain_nodes_at_least_10x_shallow": {
            "ok": deep_chain >= 10 * shallow_chain,
            "values": {"shallow": shallow_chain, "deep": deep_chain}},
    }
    return done, separation


# --------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child is not None:
        return setup_child(args)

    cli = import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, detail, requests = trace_run(cli, args, work, list(units))
        else:
            metrics, detail, requests = timed_run(cli, args, work)
        by_kind = check_all(requests, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"bench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")

    failed = sum(f for f, _ in by_kind.values())
    detail.update(workload=args.workload, seed=args.seed, failed_ratio=failed / len(requests),
                  failed_by_kind={k: {"failed": f, "attempted": a} for k, (f, a) in by_kind.items()})
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
