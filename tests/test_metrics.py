import math
import random

import numpy as np
import pytest

from dcr.errors import ValidationError
from dcr.metrics import (EXTERNAL_REFERENCE_ROWS, ItemRow, aggregate_report, ccs,
                         cvr, report_to_csv, report_to_json, toy_collapse_fraction,
                         wilson_interval)
from dcr.toy import default_scenario


class TestCcsCvr:
    def test_ccs_examples(self):
        assert ccs([5, 5, 4, 2]) == 4.0
        assert ccs([3]) == 3.0

    def test_ccs_range_validated(self):
        with pytest.raises(ValidationError):
            ccs([6])
        with pytest.raises(ValidationError):
            ccs([0, 5])
        with pytest.raises(ValidationError):
            ccs([4.5])
        with pytest.raises(ValidationError):
            ccs([])

    def test_cvr_examples(self):
        assert cvr([True, False, False, True]) == 0.5
        assert cvr([False, False]) == 0.0
        assert cvr([True, True, True]) == 1.0

    def test_permutation_invariance_and_two_pass_agreement(self):
        rng = random.Random(1)
        scores = [rng.randint(1, 5) for _ in range(500)]
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert abs(ccs(scores) - ccs(shuffled)) <= 1e-12
        two_pass = math.fsum(scores) / len(scores)
        assert abs(ccs(scores) - two_pass) <= 1e-12
        flags = [rng.random() < 0.3 for _ in range(500)]
        shuffled_flags = flags[:]
        rng.shuffle(shuffled_flags)
        assert abs(cvr(flags) - cvr(shuffled_flags)) <= 1e-12

    def test_reference_row_carried_not_recomputed(self):
        clip_s, clip_a, cap, ccs_ref, cvr_ref = EXTERNAL_REFERENCE_ROWS["ours"]
        assert ccs_ref == 4.1300
        assert cvr_ref == 0.3100


class TestToyCollapseFraction:
    def test_all_rare(self):
        sc = default_scenario()
        finals = np.tile(sc.base.means[sc.rare_index], (5, 1))
        assert toy_collapse_fraction(finals, sc) == 0.0

    def test_all_dominant(self):
        sc = default_scenario()
        finals = np.tile(sc.base.means[sc.dominant_index], (5, 1))
        assert toy_collapse_fraction(finals, sc) == 1.0

    def test_mixture(self):
        sc = default_scenario()
        finals = np.stack([sc.base.means[0], sc.base.means[1],
                           sc.base.means[1], sc.base.means[2]])
        assert toy_collapse_fraction(finals, sc) == 0.25


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_degenerate_zero(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0


class TestAggregateReport:
    def test_single_row_equals_row(self):
        row = ItemRow(item_id="a", category="ENV", judge_score=4, collapsed=False)
        rep = aggregate_report([row])
        assert rep.overall.mean["ccs"] == 4.0
        assert rep.overall.mean["cvr"] == 0.0
        assert rep.overall.sd["ccs"] == 0.0

    def test_two_groups_hand_computed(self):
        rows = [
            ItemRow(item_id="a", category="ENV", judge_score=5, collapsed=False),
            ItemRow(item_id="b", category="ENV", judge_score=3, collapsed=True),
            ItemRow(item_id="c", category="MAT", judge_score=2, collapsed=True),
            ItemRow(item_id="d", category="MAT", judge_score=4, collapsed=True),
        ]
        rep = aggregate_report(rows, by_category=True)
        assert rep.overall.mean["ccs"] == pytest.approx(3.5, abs=1e-12)
        assert rep.overall.mean["cvr"] == pytest.approx(0.75, abs=1e-12)
        # sample SD of [5,3,2,4] = sqrt(5/3)
        assert rep.overall.sd["ccs"] == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
        assert rep.by_category["ENV"].mean["ccs"] == pytest.approx(4.0, abs=1e-12)
        assert rep.by_category["ENV"].sd["ccs"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert rep.by_category["MAT"].mean["cvr"] == 1.0
        assert any("empty categories omitted" in n for n in rep.notes)

    def test_eight_category_fixture_grouping(self):
        cats = ["ENV", "TEMP", "OBJ", "ATTR", "SCALE", "CTX", "MAT", "DENS"]
        rows = [ItemRow(item_id=f"{c}-{i}", category=c, judge_score=3,
                        collapsed=bool(i % 2))
                for c in cats for i in range(4)]
        rep = aggregate_report(rows, by_category=True)
        assert sorted(rep.by_category) == sorted(cats)
        assert rep.overall.n == 32
        assert rep.notes == []

    def test_score_three_retained(self):
        rows = [ItemRow(item_id=str(i), judge_score=s)
                for i, s in enumerate([5, 3, 1, 3])]
        rep = aggregate_report(rows)
        assert rep.overall.mean["ccs"] == pytest.approx(3.0, abs=1e-12)
        assert rep.n == 4

    def test_report_serializations(self):
        rows = [ItemRow(item_id="a", category="ENV", judge_score=4, collapsed=False),
                ItemRow(item_id="b", category="MAT", judge_score=2, collapsed=True)]
        rep = aggregate_report(rows, by_category=True, method="full-dcr")
        csv_text = report_to_csv(rep)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("method,group,n")
        assert lines[1].startswith("full-dcr,overall,2")
        assert any(line.startswith("full-dcr,ENV") for line in lines)
        doc = report_to_json(rep)
        assert '"method": "full-dcr"' in doc

    def test_every_column_aggregates_over_its_present_values(self):
        # each metric field is set on some rows and None on others; a
        # column's mean and sample SD run over its present values only
        rows = [
            ItemRow(item_id="a", category="ENV", judge_score=5, collapsed=False),
            ItemRow(item_id="b", category="ENV", collapsed=True),
            ItemRow(item_id="c", category="MAT", judge_score=3),
            ItemRow(item_id="d", category="MAT", judge_score=1, collapsed=True),
        ]
        rep = aggregate_report(rows, by_category=True, method="m")
        expected = {  # column: (mean, sample SD) over its present values
            "ccs": (3.0, 2.0),                                # 5, 3, 1
            "cvr": (2.0 / 3.0, math.sqrt(1.0 / 3.0)),         # 0, 1, 1
        }
        assert rep.overall.n == 4
        assert set(rep.overall.mean) == set(rep.overall.sd) == set(expected)
        for column, (mean, sd) in expected.items():
            assert rep.overall.mean[column] == pytest.approx(mean, abs=1e-12), column
            assert rep.overall.sd[column] == pytest.approx(sd, abs=1e-12), column
        env, mat = rep.by_category["ENV"], rep.by_category["MAT"]
        assert (env.n, mat.n) == (2, 2)
        # ENV: ccs 5; cvr 0, 1
        assert env.mean == pytest.approx({"ccs": 5.0, "cvr": 0.5}, abs=1e-12)
        assert env.sd == pytest.approx({"ccs": 0.0, "cvr": math.sqrt(0.5)}, abs=1e-12)
        # MAT: ccs 3, 1; cvr 1
        assert mat.mean == pytest.approx({"ccs": 2.0, "cvr": 1.0}, abs=1e-12)
        assert mat.sd == pytest.approx({"ccs": math.sqrt(2.0), "cvr": 0.0}, abs=1e-12)
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0] == "method,group,n,ccs,ccs_sd,cvr,cvr_sd"
        assert lines[1] == "m,overall,4,3.000000,2.000000,0.666667,0.577350"

    def test_the_means_are_ccs_and_cvr(self):
        rng = random.Random(3)
        rows = [ItemRow(item_id=str(i), judge_score=rng.randint(1, 5),
                        collapsed=rng.random() < 0.3) for i in range(37)]
        rep = aggregate_report(rows)
        assert rep.overall.mean == {"ccs": ccs(r.judge_score for r in rows),
                                    "cvr": cvr(r.collapsed for r in rows)}

    @pytest.mark.parametrize("score", [4.5, 0, 6, True])
    def test_a_score_that_is_not_an_integer_in_1_to_5_is_refused(self, score):
        # the check in ccs(), which takes the mean; 4.5 was once averaged
        rows = [ItemRow(item_id="a", category="ENV", judge_score=4),
                ItemRow(item_id="b", category="ENV", judge_score=score)]
        with pytest.raises(ValidationError, match="integers in 1..5"):
            aggregate_report(rows, by_category=True)

    def test_a_column_no_row_sets_is_absent(self):
        rows = [ItemRow(item_id="a", category="ENV", judge_score=2),
                ItemRow(item_id="b", category="ENV", judge_score=4)]
        rep = aggregate_report(rows, method="m")
        assert rep.overall.mean == {"ccs": 3.0}
        assert rep.overall.sd == pytest.approx({"ccs": math.sqrt(2.0)}, abs=1e-12)
        row = report_to_csv(rep).strip().splitlines()[1]
        assert row == "m,overall,2,3.000000,1.414214,,"
