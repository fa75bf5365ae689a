"""The tools whose output gates a change: `tools/csv_delta.py` and `tools/bench_pairs.py`."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    """The module ``tools/<name>.py``; tools/ is a folder of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_delta = load("csv_delta")
bench_pairs = load("bench_pairs")

TRAJECTORY = ["t,fidelity,trace,min_eig", "0,0,1,0", "1e-08,0.5,1,-1.2e-17", "2e-08,1,1,3e-17"]


def trees(tmp_path, old_files, new_files):
    """OLD and NEW snapshot trees under ``tmp_path``, each {relative path: text}."""
    roots = tmp_path / "old", tmp_path / "new"
    for root, files in zip(roots, (old_files, new_files)):
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    return roots


class TestCsvDelta:
    def test_identical_trees_print_nothing(self, tmp_path):
        files = {"default/epr/out": "\n".join(TRAJECTORY) + "\n",
                 "default/epr/stdout": "D = 0.02\n"}
        assert csv_delta.compare(*trees(tmp_path, files, files)) == []

    def test_a_moved_min_eig_entry_is_reported_with_its_rows_and_largest_change(self, tmp_path):
        moved = [*TRAJECTORY[:2], "1e-08,0.5,1,-1.25e-17", TRAJECTORY[3]]
        old, new = trees(tmp_path, {"a/epr/out": "\n".join(TRAJECTORY) + "\n"},
                         {"a/epr/out": "\n".join(moved) + "\n"})
        assert csv_delta.compare(old, new) == [
            "a/epr/out: 3 rows, 1 differ; max|delta| t 0, fidelity 0, trace 0, min_eig 5e-19",
            "all CSVs: max|delta| t 0, fidelity 0, trace 0, min_eig 5e-19",
        ]

    def test_a_header_change_is_a_shape_change(self, tmp_path):
        renamed = ["t,fidelity,trace,least_eig", *TRAJECTORY[1:]]
        old, new = trees(tmp_path, {"out": "\n".join(TRAJECTORY) + "\n"},
                         {"out": "\n".join(renamed) + "\n"})
        assert csv_delta.compare(old, new) == [
            "out: shape (3, 4) -> (3, 4), header t,fidelity,trace,min_eig -> "
            "t,fidelity,trace,least_eig"
        ]

    def test_files_on_one_side_and_text_that_is_not_a_csv_are_named(self, tmp_path):
        old, new = trees(tmp_path, {"gone": "x\n", "out": "\n".join(TRAJECTORY) + "\n",
                                    "stderr": "a\n"},
                         {"added": "x\n", "out": "error: no output\n", "stderr": "b\n"})
        assert csv_delta.compare(old, new) == [
            "added: only in NEW", "gone: only in OLD", "out: not a numeric CSV on one side"]


class TestSummarize:
    """The rules of `bench_pairs.summarize` on hand-made runs of a lower-is-better metric."""

    PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # q1 10.45, q3 11.35

    def summary(self, change, parent=None, higher_is_better=False, bound=0.25):
        return bench_pairs.summarize({"parent": parent or self.PARENT, "change": change},
                                     higher_is_better, bound)

    def test_nine_wins_of_ten_and_a_gap_past_the_parent_iqr_meet_the_gain_rule(self):
        change = [v - 1.0 for v in self.PARENT[:9]] + [12.0]  # the last pair lost
        result = self.summary(change)
        assert result["change_better_pairs"] == 9
        assert (result["parent_q1"], result["parent_q3"]) == pytest.approx((10.45, 11.35))
        assert result["parent_median"] - result["change_median"] == pytest.approx(1.0)  # > 0.9
        assert result["meets_gain_rule"] and result["within_bound"] and not result["unresolved"]

    def test_eight_wins_of_ten_miss_the_gain_rule(self):
        change = [v - 1.0 for v in self.PARENT[:8]] + [12.0, 12.0]
        result = self.summary(change)
        assert result["change_better_pairs"] == 8 and not result["meets_gain_rule"]

    def test_ten_wins_within_the_parent_iqr_miss_the_gain_rule(self):
        result = self.summary([v - 0.1 for v in self.PARENT])
        assert result["change_better_pairs"] == 10 and not result["meets_gain_rule"]

    def test_ties_count_for_neither_side(self):
        result = self.summary(list(self.PARENT))
        assert result["change_better_pairs"] == 0 and result["change_over_parent"] == 1.0

    @pytest.mark.parametrize("factor, within", [(1.2, True), (1.25, True), (1.3, False)])
    def test_within_bound_allows_a_median_worse_by_up_to_bound_times_the_parent(self, factor,
                                                                                within):
        result = self.summary([factor * v for v in self.PARENT])
        assert result["within_bound"] is within and result["change_better_pairs"] == 0

    def test_higher_is_better_turns_every_rule_round(self):
        result = self.summary([v + 2.0 for v in self.PARENT], higher_is_better=True)
        assert result["change_better_pairs"] == 10 and result["meets_gain_rule"]
        worse = self.summary([0.7 * v for v in self.PARENT], higher_is_better=True)
        assert not worse["within_bound"] and not worse["meets_gain_rule"]

    def test_a_parent_spread_past_the_bound_is_unresolved_unless_every_change_run_wins(self):
        parent = [1.0, 1.0, 2.0, 2.0, 3.0]  # IQR 1 against a 0.25 x 2 bound
        assert self.summary([1.5, 1.5, 1.9, 2.5, 2.9], parent)["unresolved"]
        assert not self.summary([0.5, 0.6, 0.7, 0.8, 0.9], parent)["unresolved"]
