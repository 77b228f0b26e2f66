#!/usr/bin/env python3
"""One perf ledger: an interleaved A/B of the layered benchmark, judged
by fixed rules and appended to ``results/BENCH_HISTORY.json``.

    python3 benchmarks/ledger.py ab BASE [--pairs N] [--workload W]...
        [--claim WORKLOAD.METRIC] [--history FILE]
    python3 benchmarks/ledger.py lines

``ab`` builds two trees in a temporary directory -- ``git archive BASE
-- src`` and the working tree's ``src/`` -- each under a copy of the
working tree's ``benchmarks/layered/`` and ``BENCHMARK.json``, so both
sides execute identical benchmark code. It runs ``BENCHMARK.json``'s
``command`` on them alternately (pair *i* passes ``--seed i``; which side
goes first flips every pair; ~30 min for six workloads at ten pairs),
reads only the last stdout line of each run and gives every end-to-end
metric x workload one verdict (:func:`classify`), with direction and
bound from ``BENCHMARK.json`` and nothing else tunable. Exit 1 on a
``regressed`` cell, a larger failed share, an incorrect run or an unmet
``--claim``; exit 2 on a bad ``BASE``, a ``--workload`` or ``--claim``
that ``BENCHMARK.json`` does not name, a malformed history or a
benchmark child that fails (a repeated ``--workload`` runs once).
``ab HEAD`` is the A/A run: it must never read ``gain`` or
``regressed``. ``lines`` prints the per-package table every record
stores as ``src_lines``, each count beside its change since the newest
record. Stdlib only: imports nothing from ``repro``, writes nothing
under ``benchmarks/layered/``.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Schema tag of the history file (``results/BENCH_HISTORY.json``).
HISTORY_SCHEMA = "smx-bench-history/1"

#: A gain needs the change to read better in this share of all pairs...
GAIN_WIN_SHARE = Fraction(9, 10)

#: ... and the medians this many parent (q3 - q1) distances apart.
GAIN_IQR_GAPS = 1

SIDES = ("base", "change")


class LedgerError(ValueError):
    """A one-line, exit-2 condition: bad input, not a bad measurement."""


def load_history(path: str) -> dict:
    """Load (or initialise) a benchmark-history file; raises
    :class:`LedgerError` when the file is there but is not one."""
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "records": []}
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path}: not valid JSON ({exc.msg})") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != HISTORY_SCHEMA:
        raise LedgerError(f"{path}: not a benchmark history "
                          f"(schema={schema!r})")
    data.setdefault("records", [])
    return data


def serialise(document: dict) -> str:
    """The byte form records are stored (and golden-tested) in."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def append_record(path: str, record: dict) -> dict:
    """Append one record to the history at ``path`` (created if new),
    by write-then-rename so a crash leaves the previous file intact."""
    history = load_history(path)
    history["records"].append(record)
    with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
        handle.write(serialise(history))
    os.replace(f"{path}.tmp", path)
    return history


def src_lines() -> dict[str, int]:
    """Newlines (``wc -l``) of every ``.py`` under ``src/``: one entry
    per ``src/repro`` package, ``(top level)`` and ``total``."""
    src = pathlib.Path(ROOT, "src")
    counts: dict[str, int] = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).parts  # ("repro", "obs", "x.py")
        package = parts[1] if len(parts) > 2 else "(top level)"
        counts[package] = (counts.get(package, 0)
                           + path.read_bytes().count(b"\n"))
    return {**dict(sorted(counts.items())), "total": sum(counts.values())}


def lines_table(history_path: str) -> str:
    """The per-package ``src/`` line table, each count beside its
    change since the newest record of the history at ``history_path``
    (against the ``src_lines`` that record stored; ``n/a`` where it
    stored none)."""
    records = load_history(history_path)["records"]
    stored = (records[-1].get("src_lines") or {}) if records else {}
    rows = [f"| package | lines | vs record {len(records)} |",
            "|---|---:|---:|"]
    for package, count in src_lines().items():
        delta = (f"{count - stored[package]:+d}" if package in stored
                 else "n/a")
        rows.append(f"| {package} | {count} | {delta} |")
    return "\n".join(rows)


def classify(base: list[float], change: list[float], better: str,
             bound: float) -> dict:
    """One metric x workload cell from the paired runs of both sides
    (``base[i]`` and ``change[i]`` are pair *i*):

    - ``regressed``: the change's median is worse than the parent's by
      more than ``bound``;
    - ``gain``: the change reads better in :data:`GAIN_WIN_SHARE` of
      the pairs or more (ties for neither) and the medians are over
      :data:`GAIN_IQR_GAPS` parent interquartile distances apart;
    - ``unresolved``: the parent's own spread (IQR / median) is wider
      than ``bound`` and not every change run beats every parent run;
    - ``flat`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    improvement = sign * (change_median - base_median)
    clean_sweep = min(sign * c for c in change) > \
        max(sign * b for b in base)
    if -improvement / base_median > bound:
        verdict = "regressed"
    elif wins >= GAIN_WIN_SHARE * len(base) \
            and improvement > GAIN_IQR_GAPS * (q3 - q1):
        verdict = "gain"
    elif (q3 - q1) / base_median > bound and not clean_sweep:
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"base_median": base_median, "q1": q1, "q3": q3,
            "change_median": change_median, "wins": wins,
            "pairs": len(base), "verdict": verdict}


def judge(metrics: list[dict], runs: dict,
          claim: str | None = None) -> tuple[dict, list[str]]:
    """Every cell of ``runs[side][workload] = [result line, ...]`` as
    table rows keyed ``workload.metric``, and the reasons to exit 1."""
    rows, problems = {}, []
    for workload in runs["base"]:
        failed = {}
        for side in SIDES:
            documents = runs[side][workload]
            if not all(d["correct"] for d in documents):
                problems.append(f"incorrect: {workload}: a {side} run")
            failed[side] = Fraction(sum(d["failed"] for d in documents),
                                    sum(d["attempted"] for d in documents))
        if failed["change"] > failed["base"]:
            problems.append(
                f"failed share: {workload}: {float(failed['change']):.3g}"
                f" of operations vs parent {float(failed['base']):.3g}")
        for metric in metrics:
            base, change = (
                [d["metrics"][metric["name"]]["value"]
                 for d in runs[side][workload]] for side in SIDES)
            row = {"workload": workload, "metric": metric["name"],
                   **classify(base, change, metric["better"],
                              metric["bound"])}
            rows[f"{workload}.{metric['name']}"] = row
            if row["verdict"] == "regressed":
                problems.append(
                    f"regressed: {workload} {metric['name']}: median "
                    f"{row['change_median']:.4g} vs parent "
                    f"{row['base_median']:.4g}, bound {metric['bound']}")
    if claim and rows[claim]["verdict"] != "gain":
        problems.append(f"claim not met: {claim} reads "
                        f"{rows[claim]['verdict']}")
    return rows, problems


def render(rows: dict) -> str:
    """The A/B table in the format of EXPERIMENTS E23."""
    lines = ["| workload | metric | parent median [q1, q3] | change "
             "median | ratio | change better in | verdict |",
             "|---|---|---|---|---|---|---|"]
    for row in rows.values():
        lines.append(
            f"| `{row['workload']}` | `{row['metric']}` "
            f"| {row['base_median']:.4g} [{row['q1']:.4g}, "
            f"{row['q3']:.4g}] | {row['change_median']:.4g} "
            f"| {row['change_median'] / row['base_median']:.3f} "
            f"| {row['wins']}/{row['pairs']} | {row['verdict']} |")
    return "\n".join(lines)


def make_record(rows: dict, runs: dict, **header) -> dict:
    """One ``smx-bench-history/1`` record of an A/B run: ``header``
    (when, which commits, which machine, ``src_lines``), both medians
    and the verdict of every cell, and every raw run behind them."""
    def column(field: str) -> dict:
        return {cell: row[field] for cell, row in rows.items()}
    return {**header, "metrics": column("change_median"),
            "base_metrics": column("base_median"),
            "verdicts": column("verdict"), "runs": runs}


def git(*arguments: str) -> str:
    done = subprocess.run(["git", "-C", ROOT, *arguments],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise LedgerError(f"git {' '.join(arguments)}: "
                          f"{done.stderr.strip() or 'failed'}")
    return done.stdout.strip()


def build_trees(base_sha: str, tmp: str) -> dict[str, str]:
    """Each side's ``src/`` under a copy of the working tree's benchmark."""
    junk = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    trees = {side: os.path.join(tmp, side) for side in SIDES}
    for tree in trees.values():
        shutil.copytree(os.path.join(ROOT, "benchmarks", "layered"),
                        os.path.join(tree, "benchmarks", "layered"),
                        ignore=junk)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    archive = os.path.join(tmp, "base.tar")
    git("archive", "-o", archive, base_sha, "--", "src")
    subprocess.run(["tar", "-xf", archive, "-C", trees["base"]],
                   check=True)
    shutil.copytree(os.path.join(ROOT, "src"),
                    os.path.join(trees["change"], "src"), ignore=junk)
    return trees


def run_benchmark(command: list[str], tree: str, workload: str,
                  seed: int) -> dict:
    """One benchmark run in ``tree``; its documented last stdout line."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        done.check_returncode()
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, IndexError, ValueError) as exc:
        raise LedgerError(
            f"benchmark child failed on {workload} --seed {seed}, "
            f"{os.path.basename(tree)} side: {exc}") from None


def ab(args: argparse.Namespace, runner=run_benchmark) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    metrics = contract["end_to_end"]
    known = [w["name"] for w in contract["workloads"]]
    workloads = list(dict.fromkeys(args.workload or known))
    for workload in workloads:
        if workload not in known:
            raise LedgerError(f"--workload {workload}: not a workload of "
                              f"BENCHMARK.json")
    if args.claim and args.claim not in {
            f"{w}.{m['name']}" for w in workloads for m in metrics}:
        raise LedgerError(f"--claim {args.claim}: not a WORKLOAD.METRIC "
                          f"cell of this run")
    load_history(args.history)  # fail now, not after half an hour
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    runs: dict = {side: {w: [] for w in workloads} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="smx-ledger-") as tmp:
        trees = build_trees(base_sha, tmp)
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in workloads:
                print(f"[{pair}/{args.pairs}] {workload}", file=sys.stderr)
                for side in order:
                    runs[side][workload].append(runner(
                        contract["command"], trees[side], workload, pair))
    rows, problems = judge(metrics, runs, args.claim)
    print(render(rows))
    for problem in problems:
        print(problem, file=sys.stderr)
    history = append_record(args.history, make_record(
        rows, runs,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_sha=git("rev-parse", "HEAD"),
        dirty=bool(git("status", "--porcelain", "--", "src")),
        base_sha=base_sha, pairs=args.pairs,
        machine={"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "platform": platform.platform(),
                 "load_1min": os.getloadavg()[0]},
        src_lines=src_lines()))
    print(f"[record #{len(history['records'])} appended to "
          f"{args.history}]", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None, runner=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    history = os.path.join(ROOT, "results", "BENCH_HISTORY.json")
    verbs = parser.add_subparsers(dest="verb", required=True)
    verbs.add_parser("lines", help="per-package src/repro line table")
    ab_parser = verbs.add_parser(
        "ab", help="interleaved A/B of the working tree against BASE")
    ab_parser.add_argument("base", metavar="BASE",
                           help="commit whose src/ is the parent side")
    ab_parser.add_argument("--pairs", type=int, default=10,
                           help="parent/change pairs (default: 10)")
    ab_parser.add_argument("--workload", action="append",
                           help="workload to run (repeatable; default: "
                                "all of BENCHMARK.json)")
    ab_parser.add_argument("--claim", metavar="WORKLOAD.METRIC",
                           help="exit 1 unless this cell reads 'gain'")
    ab_parser.add_argument(
        "--history", metavar="FILE", default=history,
        help="history file (default: results/BENCH_HISTORY.json)")
    args = parser.parse_args(argv)
    if args.verb == "ab" and args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two)")
    try:
        if args.verb == "lines":
            print(lines_table(history))
            return 0
        return ab(args, runner)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
