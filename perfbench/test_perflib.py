"""Tests of the benchmark's own arithmetic and record handling.

    python3 -m unittest discover -s perfbench
"""

import json
import unittest

import perflib


def metrics_line(requests=41236, **fields):
    record = {"type": "metrics", "p": 0.6, "m": 1, "n": 512, "trials": 12,
              "requests": requests, "trials_retried": 0, "trials_skipped": 0}
    record.update(fields)
    return json.dumps(record)


def cell_line(searcher, mean, **fields):
    record = {"type": "cell", "p": 0.6, "m": 1, "searcher": searcher, "n": 512,
              "trials": 12, "mean": mean, "success": 1.0}
    record.update(fields)
    return json.dumps(record)


class ParseRecords(unittest.TestCase):
    def test_groups_by_type_and_keeps_raw_lines(self):
        text = "\n".join([cell_line("a", 1.5), metrics_line(), '{"type":"run"}', ""])
        groups = perflib.parse_records(text)
        self.assertEqual(sorted(groups), ["cell", "metrics", "run"])
        self.assertEqual(perflib.cells(groups), [cell_line("a", 1.5)])
        self.assertEqual(perflib.metrics_records(groups)[0]["requests"], 41236)

    def test_rejects_fractional_requests(self):
        for bad in ("423897.99999999994", "41236.0"):
            line = metrics_line().replace("41236", bad)
            with self.assertRaisesRegex(perflib.RecordError, "requests"):
                perflib.parse_records(line)

    def test_rejects_non_integer_trial_counters(self):
        for field, value in (("trials_retried", 1.0), ("trials_skipped", None),
                             ("trials", "12"), ("trials_retried", True),
                             ("requests", -1)):
            with self.assertRaisesRegex(perflib.RecordError, field):
                perflib.parse_records(metrics_line(**{field: value}))

    def test_rejects_untyped_and_broken_lines(self):
        for bad in ('{"experiment":"x"}', "[1, 2]", "{not json"):
            with self.assertRaises(perflib.RecordError):
                perflib.parse_records(bad)

    def test_sweep_work_counts_exact_requests_and_graphs(self):
        text = "\n".join([metrics_line(requests=10), metrics_line(requests=5, n=1024),
                          '{"type":"profile","requests":15.000000000000002}'])
        self.assertEqual(perflib.sweep_work(perflib.parse_records(text)), (15, 24))
        census = '{"type":"cell","model":"ba","trials":5,"fits":5}'
        self.assertEqual(perflib.sweep_work(perflib.parse_records(census)), (0, 5))

    def test_profile_records_are_not_counters(self):
        # The f64 requests of profile records are never read as counts.
        line = '{"type":"profile","requests":423897.99999999994}'
        self.assertIn("profile", perflib.parse_records(line))


class SearchSweepCheck(unittest.TestCase):
    def groups(self, requests, **cell_fields):
        lines = [cell_line("a", 1000.25, **cell_fields), cell_line("b", 2000.5),
                 metrics_line(requests=requests)]
        return perflib.parse_records("\n".join(lines))

    def test_consistent_sweep_passes(self):
        # 12 × 1000.25 + 12 × 2000.5 = 36009 requests.
        problems = perflib.check_search_sweep(self.groups(36009), 1, 1, 2, 12)
        self.assertEqual(problems, [])

    def test_requests_must_match_cell_means(self):
        problems = perflib.check_search_sweep(self.groups(36010), 1, 1, 2, 12)
        self.assertTrue(any("requests" in p for p in problems))

    def test_degraded_cells_and_wrong_counts_fail(self):
        problems = perflib.check_search_sweep(self.groups(36009, degraded=True), 1, 1, 2, 12)
        self.assertTrue(any("degraded" in p for p in problems))
        problems = perflib.check_search_sweep(self.groups(36009), 1, 2, 2, 12)
        self.assertTrue(any("cells, expected" in p for p in problems))

    def test_slice_keeps_one_model_in_order(self):
        lines = [cell_line("a", 1.0, p=0.3), cell_line("a", 1.0), cell_line("b", 2.0),
                 cell_line("a", 1.0, m=3)]
        self.assertEqual(perflib.slice_lines(lines, 0.6, 1), lines[1:3])

    def test_compare_lines_names_the_first_difference(self):
        self.assertEqual(perflib.compare_lines(["a", "b"], ["a", "b"], "x"), [])
        self.assertIn("line 2", perflib.compare_lines(["a", "b"], ["a", "c"], "x")[0])
        self.assertIn("1 lines", perflib.compare_lines(["a"], ["a", "b"], "x")[0])


class FailedRatio(unittest.TestCase):
    def test_clean_sweep_fails_nothing(self):
        groups = perflib.parse_records(metrics_line())
        self.assertEqual(perflib.sweep_failures(432, True, groups), 0)

    def test_failed_run_fails_every_operation(self):
        groups = perflib.parse_records(metrics_line())
        self.assertEqual(perflib.sweep_failures(432, False, groups), 432)
        self.assertEqual(perflib.sweep_failures(72, False, {}), 72)

    def test_retried_skipped_and_degraded_trials_count(self):
        lines = [metrics_line(trials_retried=2, trials_skipped=1),
                 cell_line("a", 1.0, degraded=True), cell_line("b", 1.0, degraded=True)]
        groups = perflib.parse_records("\n".join(lines))
        # 2 retried + 1 skipped + 12 trials of the one degraded cell.
        self.assertEqual(perflib.sweep_failures(432, True, groups), 15)

    def test_unconverged_fits_count_and_total_is_capped(self):
        line = '{"type":"cell","model":"ba","n":9,"trials":5,"fits":3}'
        groups = perflib.parse_records(line)
        self.assertEqual(perflib.sweep_failures(30, True, groups), 2)
        self.assertEqual(perflib.sweep_failures(1, True, groups), 1)

    def test_ratio(self):
        self.assertEqual(perflib.failed_ratio(432, 0), 0.0)
        self.assertEqual(perflib.failed_ratio(864, 432), 0.5)
        with self.assertRaises(ValueError):
            perflib.failed_ratio(0, 0)


class Faithfulness(unittest.TestCase):
    def test_counters_must_match_exactly(self):
        recorded = [{"p": 0.6, "m": 1, "n": 512, "requests": 10, "trials": 12}]
        same = [{"p": 0.6, "m": 1, "n": 512, "requests": 10, "trials": 12}]
        off = [{"p": 0.6, "m": 1, "n": 512, "requests": 11, "trials": 12}]
        keys, fields = ("p", "m", "n"), ("requests", "trials")
        self.assertEqual(perflib.compare_counters(same, recorded, keys, fields), [])
        self.assertEqual(len(perflib.compare_counters(off, recorded, keys, fields)), 1)

    def test_results_must_match_every_replayed_field(self):
        recorded = [{"model": "ba", "exponent": 2.5, "fits": 5, "seed": 1}]
        self.assertEqual(perflib.compare_results(
            [{"model": "ba", "exponent": 2.5, "fits": 5}], recorded, ("model",)), [])
        problems = perflib.compare_results(
            [{"model": "ba", "exponent": 2.5000000000000004, "fits": 5}], recorded, ("model",))
        self.assertEqual(len(problems), 1)


if __name__ == "__main__":
    unittest.main()
