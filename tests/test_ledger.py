"""Tests for the perf ledger (``benchmarks/ledger.py``): the history
file, the verdict rules on literal lists, ``ab`` driven through an
injected runner on a scratch git repository, and the golden record."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_REPO = os.path.join(os.path.dirname(__file__), os.pardir)
_HISTORY = os.path.join(_REPO, "results", "BENCH_HISTORY.json")
_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                        "bench_history_record.json")

_spec = importlib.util.spec_from_file_location(
    "ledger", os.path.join(_REPO, "benchmarks", "ledger.py"))
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

METRICS = [
    {"name": "speed", "unit": "pairs/s", "better": "higher", "bound": 0.2},
    {"name": "cost", "unit": "ms", "better": "lower", "bound": 0.25}]


def _document(speed=100.0, cost=10.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {"speed": {"value": speed, "unit": "pairs/s"},
                        "cost": {"value": cost, "unit": "ms"}}}


class TestHistoryFile:
    RECORD = {"created": "2026-01-01T00:00:00+00:00", "git_sha": None,
              "metrics": {"w1.speed": 1e4}}

    def test_load_initialises_missing_file(self, tmp_path):
        history = ledger.load_history(str(tmp_path / "none.json"))
        assert history == {"schema": ledger.HISTORY_SCHEMA, "records": []}

    def test_append_round_trip(self, tmp_path):
        path = str(tmp_path / "hist.json")
        ledger.append_record(path, self.RECORD)
        ledger.append_record(path, self.RECORD)
        history = ledger.load_history(path)
        assert history["records"] == [self.RECORD, self.RECORD]
        assert os.listdir(tmp_path) == ["hist.json"]  # renamed, no tmp

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "something-else/1"}')
        with pytest.raises(ValueError, match="not a benchmark history") \
                as raised:
            ledger.load_history(str(path))
        assert "\n" not in str(raised.value)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON") as raised:
            ledger.load_history(str(path))
        assert "\n" not in str(raised.value)


#: Ten parent runs with median 100 and quartiles 99 / 101 (IQR 2); ten
#: with no spread; ten whose IQR is 0.8 of their median.
BASE = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
EVEN = [100.0] * 10
NOISY = [60, 60, 60, 100, 100, 100, 100, 140, 140, 140]
UP = [b + 10 for b in BASE]

CELLS = [
    # GAIN_WIN_SHARE: 9 of 10 pairs, a tie counting for neither side.
    ("9-of-10-wins", BASE, [99] + UP[1:], "higher", 0.2, "gain"),
    ("8-of-10-wins", BASE, [99, 100] + UP[2:], "higher", 0.2, "flat"),
    ("9-wins-1-tie", BASE, [100] + UP[1:], "higher", 0.2, "gain"),
    ("8-wins-2-ties", BASE, [100, 101] + UP[2:], "higher", 0.2, "flat"),
    # 0.9 * 30 is 27.000000000000004 in floats; 27 wins must still do.
    ("27-of-30-wins", EVEN * 3, [110] * 27 + [100] * 3, "higher", 0.2, "gain"),
    # GAIN_IQR_GAPS: medians apart by exactly, then more than, q3 - q1.
    ("gap-equals-iqr", BASE, [b + 2 for b in BASE], "higher", 0.2, "flat"),
    ("gap-above-iqr", BASE, [b + 2.5 for b in BASE], "higher", 0.2, "gain"),
    ("lower-gap-above-iqr", BASE, [b - 2.5 for b in BASE], "lower", 0.25,
     "gain"),
    # The bound, at and just past it, in both directions.
    ("higher-at-bound", EVEN, [80.0] * 10, "higher", 0.2, "flat"),
    ("higher-past-bound", EVEN, [79.9] * 10, "higher", 0.2, "regressed"),
    ("lower-at-bound", EVEN, [125.0] * 10, "lower", 0.25, "flat"),
    ("lower-past-bound", EVEN, [125.1] * 10, "lower", 0.25, "regressed"),
    # A parent spread wider than the bound is unresolved, not flat, unless
    # every change run beats every parent run (then settled, but no gain).
    ("wide-spread", NOISY, NOISY[::-1], "higher", 0.2, "unresolved"),
    ("every-run-better", NOISY, [141] * 10, "higher", 0.2, "flat"),
    ("one-run-not-better", NOISY, [141] * 9 + [140], "higher", 0.2,
     "unresolved"),
    ("regressed-beats-unresolved", NOISY, [70] * 10, "higher", 0.2,
     "regressed"),
]


@pytest.mark.parametrize("base, change, better, bound, verdict",
                         [cell[1:] for cell in CELLS],
                         ids=[cell[0] for cell in CELLS])
def test_classify(base, change, better, bound, verdict):
    assert ledger.classify(base, change, better, bound)["verdict"] == verdict


@pytest.mark.parametrize("change, claim, problems", [
    ({}, None, []),
    ({"speed": 70.0}, None, ["regressed"]),
    ({"correct": False}, None, ["incorrect"]),
    ({"failed": 2}, None, ["failed share"]),
    ({"failed": 0}, None, []),
    ({}, "w1.speed", ["claim not met"]),
    ({"speed": 150.0}, "w1.speed", []),
], ids=["flat", "regressed", "incorrect", "more-failed", "fewer-failed",
        "claim-flat", "claim-gain"])
def test_judge_names_the_reasons_to_exit_1(change, claim, problems):
    runs = {"base": {"w1": [_document(failed=1)] * 4},
            "change": {"w1": [_document(**{"failed": 1, **change})] * 4}}
    rows, found = ledger.judge(METRICS, runs, claim)
    assert list(rows) == ["w1.speed", "w1.cost"]
    assert [problem.split(":")[0] for problem in found] == problems
    assert all("w1" in problem for problem in found)


@pytest.fixture()
def scratch(tmp_path, monkeypatch):
    """A scratch repository the ledger treats as its own; ``src/``
    differs between HEAD and the working tree."""
    repo = tmp_path / "repo"
    (repo / "benchmarks" / "layered").mkdir(parents=True)
    (repo / "benchmarks" / "layered" / "run.py").write_text("# frozen\n")
    (repo / "src" / "repro" / "obs").mkdir(parents=True)
    (repo / "src" / "repro" / "__init__.py").write_text("SIDE = 'base'\n")
    (repo / "src" / "repro" / "obs" / "a.py").write_text("one\ntwo\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "benchmarks/layered/run.py"],
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": METRICS}))
    for arguments in (["init", "-q"], ["add", "-A"],
                      ["-c", "user.name=t", "-c", "user.email=t@example.com",
                       "commit", "-qm", "base"]):
        subprocess.run(["git", "-C", str(repo), *arguments], check=True)
    (repo / "src" / "repro" / "__init__.py").write_text(
        "SIDE = 'change'\n# one more line\n")
    monkeypatch.setattr(ledger, "ROOT", str(repo))
    return repo


class Runner:
    """The injected seam: records each call and what the tree it was
    pointed at held, and answers with canned result lines."""

    def __init__(self, change_speed=100.0, fail_at=None):
        self.calls, self.src = [], {}
        self.change_speed, self.fail_at = change_speed, fail_at

    def __call__(self, command, tree, workload, seed):
        side = os.path.basename(tree)
        self.calls.append((side, workload, seed))
        assert command == ["python3", "benchmarks/layered/run.py"]
        assert os.path.isfile(os.path.join(tree, "BENCHMARK.json"))
        layered = os.path.join(tree, "benchmarks", "layered")
        with open(os.path.join(layered, "run.py")) as handle:
            assert handle.read() == "# frozen\n"
        with open(os.path.join(tree, "src/repro/__init__.py")) as handle:
            self.src[side] = handle.read()
        os.makedirs(os.path.join(layered, "out", f"{workload}.{seed}"))
        if self.fail_at == len(self.calls):
            raise ledger.LedgerError("benchmark child failed on w1")
        speed = self.change_speed if side == "change" else 100.0
        return _document(speed=speed + seed)


class TestAb:
    def test_alternates_sides_seeds_pairs_and_records_both(
            self, scratch, tmp_path, capsys):
        runner = Runner()
        history = str(tmp_path / "hist.json")
        assert ledger.main(["ab", "HEAD", "--pairs", "3", "--history",
                            history], runner) == 0
        assert runner.calls == [
            ("base", "w1", 1), ("change", "w1", 1),
            ("base", "w2", 1), ("change", "w2", 1),
            ("change", "w1", 2), ("base", "w1", 2),
            ("change", "w2", 2), ("base", "w2", 2),
            ("base", "w1", 3), ("change", "w1", 3),
            ("base", "w2", 3), ("change", "w2", 3)]
        # base is `git archive BASE -- src`, change the working tree; both
        # ran the working tree's benchmark, which is copied, never written.
        assert runner.src == {"base": "SIDE = 'base'\n",
                              "change": "SIDE = 'change'\n# one more line\n"}
        assert os.listdir(scratch / "benchmarks" / "layered") == ["run.py"]
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:3] == [
            "| workload | metric | parent median [q1, q3] | change median "
            "| ratio | change better in | verdict |",
            "|---|---|---|---|---|---|---|",
            "| `w1` | `speed` | 102 [101, 103] | 102 | 1.000 | 0/3 | flat |"]
        assert "record #1 appended" in captured.err
        [record] = ledger.load_history(history)["records"]
        assert record["git_sha"] == record["base_sha"] == ledger.git(
            "rev-parse", "HEAD")
        assert (record["dirty"], record["pairs"]) == (True, 3)
        assert record["metrics"] == record["base_metrics"] == {
            "w1.speed": 102.0, "w1.cost": 10.0,
            "w2.speed": 102.0, "w2.cost": 10.0}
        assert set(record["verdicts"].values()) == {"flat"}
        assert [len(record["runs"][side][workload]) for side in ledger.SIDES
                for workload in ("w1", "w2")] == [3, 3, 3, 3]
        assert record["src_lines"] == {"(top level)": 2, "obs": 2, "total": 4}

    @pytest.mark.parametrize("canned, arguments, code, said", [
        ({"change_speed": 50.0}, ["HEAD"], 1, "regressed: w1 speed"),
        ({}, ["HEAD", "--claim", "w1.speed"], 1, "claim not met: w1.speed"),
        ({"change_speed": 150.0}, ["HEAD", "--claim", "w1.speed"], 0, ""),
        ({}, ["HEAD", "--claim", "w1.nope"], 2, "error: --claim w1.nope"),
        ({}, ["HEAD", "--workload", "w1", "--workload", "nope"], 2,
         "error: --workload nope: not a workload of BENCHMARK.json"),
        ({}, ["no-such-rev"], 2, "error: git rev-parse"),
        ({"fail_at": 3}, ["HEAD"], 2, "error: benchmark child failed on w1"),
    ], ids=["regressed", "claim-flat", "claim-gain", "claim-unknown",
            "workload-unknown", "bad-base", "child-fails"])
    def test_exit_codes(self, scratch, tmp_path, capsys, canned, arguments,
                        code, said):
        runner, history = Runner(**canned), tmp_path / "hist.json"
        assert ledger.main(["ab", *arguments, "--pairs", "2", "--history",
                            str(history)], runner) == code
        assert said in capsys.readouterr().err
        # A measured run is recorded whatever its verdict, an error is not
        # and bad arguments are caught before anything runs.
        assert history.exists() == (code != 2)
        assert len(runner.calls) in ((8,) if code != 2 else (0, 3))

    def test_repeated_workload_runs_once_per_pair(
            self, scratch, tmp_path, capsys):
        runner, history = Runner(), str(tmp_path / "hist.json")
        assert ledger.main(["ab", "HEAD", "--pairs", "2", "--workload", "w2",
                            "--workload", "w1", "--workload", "w2",
                            "--history", history], runner) == 0
        assert runner.calls == [
            ("base", "w2", 1), ("change", "w2", 1),
            ("base", "w1", 1), ("change", "w1", 1),
            ("change", "w2", 2), ("base", "w2", 2),
            ("change", "w1", 2), ("base", "w1", 2)]
        [record] = ledger.load_history(history)["records"]
        assert record["pairs"] == 2
        assert {workload: len(runs) for workload, runs
                in record["runs"]["change"].items()} == {"w2": 2, "w1": 2}
        assert "| 0/2 | flat |" in capsys.readouterr().out

    def test_unknown_workload_exits_2_before_building_trees(
            self, scratch, tmp_path, monkeypatch, capsys):
        def build_trees(*_):
            raise AssertionError("trees built for an unknown workload")
        monkeypatch.setattr(ledger, "build_trees", build_trees)
        assert ledger.main(["ab", "HEAD", "--workload", "w3", "--history",
                            str(tmp_path / "hist.json")], Runner()) == 2
        assert capsys.readouterr().err == \
            "error: --workload w3: not a workload of BENCHMARK.json\n"

    def test_malformed_history_exits_2_before_running(
            self, scratch, tmp_path, capsys):
        history = tmp_path / "hist.json"
        history.write_text("{broken")
        runner = Runner()
        assert ledger.main(["ab", "HEAD", "--history", str(history)],
                           runner) == 2
        assert capsys.readouterr().err.startswith(f"error: {history}: not ")
        assert (runner.calls, history.read_text()) == ([], "{broken")

    def test_exposes_four_flags_and_one_positional(self, capsys):
        with pytest.raises(SystemExit):
            ledger.main(["ab", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0].split()
        assert [word.strip("[]") for word in usage if "-" in word] + \
            usage[-1:] == ["-h", "--pairs", "--workload", "--claim",
                           "--history", "BASE"]


def test_run_benchmark_passes_workload_and_seed_reads_last_line(tmp_path):
    echo = ("import json, sys; print('# header'); "
            "print(json.dumps({'argv': sys.argv[1:]}))")
    assert ledger.run_benchmark([sys.executable, "-c", echo],
                                str(tmp_path), "w1", 7) == \
        {"argv": ["--workload", "w1", "--seed", "7"]}
    for script in ("import sys; sys.exit(3)", "pass", "print('no JSON')"):
        with pytest.raises(ledger.LedgerError, match="child failed on w1"):
            ledger.run_benchmark([sys.executable, "-c", script],
                                 str(tmp_path), "w1", 1)


class TestGoldenRecord:
    """A field added, dropped or renamed without a schema bump fails."""

    def _record(self):
        runs = {side: {"w1": [_document(speed + seed, 10.0 + seed)
                              for seed in (1, 2)]}
                for side, speed in (("base", 100.0), ("change", 104.0))}
        return ledger.make_record(
            ledger.judge(METRICS, runs)[0], runs,
            created="2026-01-01T00:00:00+00:00", git_sha="c" * 40,
            dirty=False, base_sha="b" * 40, pairs=2,
            machine={"nproc": 2, "python": "3.11.7",
                     "platform": "Linux-x86_64", "load_1min": 0.5},
            src_lines={"(top level)": 2, "obs": 2, "total": 4})

    def test_serialised_record_is_byte_identical(self):
        with open(_FIXTURE, encoding="utf-8") as handle:
            assert ledger.serialise(self._record()) == handle.read()

    def test_committed_history_still_loads(self):
        history = ledger.load_history(_HISTORY)
        records = history["records"]
        for record in (records[0], records[10]):
            assert {"created", "git_sha", "metrics"} <= set(record)
        assert records[0]["metrics"]["table3.dna-edit.gcups"] == 1024.0
        assert "engine.cigar.short.speedup" in records[10]["metrics"]
        # Re-serialising is byte-identical, so an append leaves earlier
        # records as they were; ledger records have the golden's fields.
        with open(_HISTORY, encoding="utf-8") as handle:
            assert ledger.serialise(history) == handle.read()
        assert all(set(record) == set(self._record())
                   for record in records[11:])


def test_lines_table_is_src_lines_is_wc(capsys):
    assert ledger.main(["lines"]) == 0
    counts = ledger.src_lines()
    assert [row.rsplit(" | ", 1)[0] for row
            in capsys.readouterr().out.splitlines()[2:]] == [
        f"| {package} | {count}" for package, count in counts.items()]
    wc = subprocess.run(
        "find src -name '*.py' -print0 | xargs -0 cat | wc -l",
        shell=True, cwd=_REPO, capture_output=True, text=True)
    assert counts["total"] == int(wc.stdout)



def test_lines_table_shows_the_change_since_the_newest_record(
        scratch, capsys):
    """The delta column reads the ``src_lines`` the newest history
    record stored: no argument, ``n/a`` where there is nothing to
    subtract, exit 2 on a history that is not one."""
    history = scratch / "results" / "BENCH_HISTORY.json"
    assert ledger.main(["lines"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| package | lines | vs record 0 |", "|---|---:|---:|",
        "| (top level) | 2 | n/a |", "| obs | 2 | n/a |",
        "| total | 4 | n/a |"]
    history.parent.mkdir()
    ledger.append_record(str(history), {"src_lines": {"total": 9}})
    ledger.append_record(str(history), {
        "src_lines": {"(top level)": 1, "gone": 3, "total": 9}})
    assert ledger.main(["lines"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| package | lines | vs record 2 |", "|---|---:|---:|",
        "| (top level) | 2 | +1 |", "| obs | 2 | n/a |",
        "| total | 4 | -5 |"]
    history.write_text("{broken")
    assert ledger.main(["lines"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {history}: not ")
