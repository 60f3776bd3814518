"""The byte audit replays its smallest slice on one tree on both sides and
finds nothing, and its comparison names every field that differs."""

import importlib.util
import subprocess
import sys
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_audit.py"


def _tool():
    spec = importlib.util.spec_from_file_location("byte_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_on_both_sides_differs_nowhere(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"), "--slice", "smoke",
         "--work", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *differences, summary = result.stdout.splitlines()
    assert differences == [] and summary.startswith("byte audit (smoke): ") and summary.endswith(" requests, 0 differ")
    assert int(summary.split()[3]) >= 60
    # both trees ran every request, each in its own work directory
    assert (tmp_path / "work" / "old" / "records.json").is_file()
    assert (tmp_path / "work" / "new" / "records.json").is_file()


def test_the_comparison_names_each_difference():
    record = {"argv": [], "exit": 0, "stdout": "2:ab", "stderr": "", "out": "3:cd"}
    old = {"same": record, "exit": record, "out": record, "gone": record}
    new = {"same": dict(record), "exit": {**record, "exit": 2, "stderr": "error: x\n"},
           "out": {**record, "out": "3:ce"}, "added": record}
    assert _tool().compare(old, new) == [
        "exit: exit, stderr differ (exit 0 -> 2)",
        "    new stderr: error: x",
        "out: out differ",
        "gone: only in the old tree",
        "added: only in the new tree",
    ]


def test_a_warning_reads_the_same_from_any_tree(tmp_path):
    """A warning names the module that raised it by its path; the record
    holds ``<tree>`` in its place, and every request shows its warnings,
    however many came before."""
    def player(tree):
        def main(argv):
            warnings.warn_explicit("overflow encountered in divide", RuntimeWarning,
                                   f"{tree}/clustersqueeze/synthesis.py", 7)
            return 4

        replay = _tool().Replay(types.SimpleNamespace(__file__=str(tree / "clustersqueeze" / "cli.py"), main=main))
        for rid in ("first", "second"):
            replay.run(rid, ["verify"])
        return replay.records

    old, new = player(tmp_path / "old"), player(tmp_path / "new")
    assert old == new and old["first"]["stderr"] == old["second"]["stderr"]
    assert old["first"]["stderr"].startswith("<tree>/clustersqueeze/synthesis.py:7: RuntimeWarning: overflow")


def test_each_side_runs_at_its_thread_count(tmp_path, monkeypatch):
    """``--threads OLD NEW`` sets every BLAS thread variable of each side's
    process, over any value the caller's environment holds; by default both
    sides run at one thread."""
    tool = _tool()
    seen = []

    def run(command, env, check):
        seen.append({name: env.get(name) for name in tool.BLAS_THREADS})
        work = Path(command[-2])
        work.mkdir(parents=True)
        (work / "records.json").write_text("{}", encoding="utf-8")

    monkeypatch.setattr(tool.subprocess, "run", run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    src = str(ROOT / "src")
    assert tool.main([src, src, "--slice", "smoke", "--work", str(tmp_path / "work"), "--threads", "1", "2"]) == 0
    assert seen == [dict.fromkeys(tool.BLAS_THREADS, "1"), dict.fromkeys(tool.BLAS_THREADS, "2")]
    assert tool.main([src, src, "--slice", "smoke", "--work", str(tmp_path / "again")]) == 0
    assert seen[2:] == [dict.fromkeys(tool.BLAS_THREADS, "1")] * 2
