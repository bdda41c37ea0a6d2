import math
import random

import numpy as np
import pytest

from dcr.errors import MetricError, ValidationError
from dcr.metrics import (EXTERNAL_REFERENCE_ROWS, CallableCaptionProvider,
                         HashEmbeddingProvider, ItemRow, aggregate_report,
                         caption_alignment, ccs, clip_alignment, cosine, cvr,
                         report_to_csv, report_to_json, toy_collapse_fraction,
                         wilson_interval)
from dcr.toy import default_scenario


class VecProvider:
    """Stub provider mapping known frames/texts to fixed vectors."""

    def __init__(self, frames, texts):
        self.frames = frames
        self.texts = texts

    def embed_frame(self, frame):
        return self.frames[frame]

    def embed_text(self, text):
        return self.texts[text]


class TestClipAlignment:
    def test_parallel_vectors_give_one(self):
        v = np.array([0.3, 0.4, 0.5])
        p = VecProvider({"f": v}, {"t": 2.0 * v})
        assert clip_alignment(["f"], "t", p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_give_zero(self):
        p = VecProvider({"f": np.array([1.0, 0.0])}, {"t": np.array([0.0, 1.0])})
        assert clip_alignment(["f"], "t", p) == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_frames(self):
        t = np.array([1.0, 0.0])
        f1 = np.array([0.2, math.sqrt(1 - 0.04)])   # cos = 0.2
        f2 = np.array([0.4, math.sqrt(1 - 0.16)])   # cos = 0.4
        p = VecProvider({"a": f1, "b": f2}, {"t": t})
        assert clip_alignment(["a", "b"], "t", p) == pytest.approx(0.3, abs=1e-12)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        f, t = rng.standard_normal(8), rng.standard_normal(8)
        p1 = VecProvider({"f": f}, {"t": t})
        p2 = VecProvider({"f": 7.5 * f}, {"t": 0.003 * t})
        assert clip_alignment(["f"], "t", p1) == pytest.approx(
            clip_alignment(["f"], "t", p2), abs=1e-12)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValidationError):
            clip_alignment([], "t", HashEmbeddingProvider())

    def test_zero_vector_is_metric_error(self):
        p = VecProvider({"f": np.zeros(3)}, {"t": np.ones(3)})
        with pytest.raises(MetricError):
            clip_alignment(["f"], "t", p)


class TestCaptionAlignment:
    def test_echoing_captioner_gives_one(self):
        provider = HashEmbeddingProvider()
        captioner = CallableCaptionProvider(lambda frame: "the prompt")
        out = caption_alignment(["f1", "f2"], "the prompt", captioner, provider)
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_fixture_cosines(self):
        t = np.array([1.0, 0.0])
        caps = {"f1": "c1", "f2": "c2", "f3": "c3"}
        texts = {"p": t}
        for name, c in zip(("c1", "c2", "c3"), (0.5, 0.7, 0.9)):
            texts[name] = np.array([c, math.sqrt(1 - c * c)])
        provider = VecProvider({}, texts)
        captioner = CallableCaptionProvider(lambda frame: caps[frame])
        out = caption_alignment(["f1", "f2", "f3"], "p", captioner, provider)
        assert out == pytest.approx(0.7, abs=1e-12)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValidationError):
            caption_alignment([], "p", CallableCaptionProvider(lambda f: "c"),
                              HashEmbeddingProvider())

    def test_partial_failures_skipped_total_failure_raises(self):
        provider = HashEmbeddingProvider()

        def flaky(frame):
            if frame == "bad":
                raise MetricError("no caption")
            return "fine"

        captioner = CallableCaptionProvider(flaky)
        out = caption_alignment(["ok", "bad"], "fine", captioner, provider)
        assert out == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(MetricError):
            caption_alignment(["bad", "bad"], "fine", captioner, provider)


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
        row = ItemRow(item_id="a", category="ENV", clip_score=0.5,
                      judge_score=4, collapsed=False)
        rep = aggregate_report([row])
        assert rep.overall.mean["clip_score"] == 0.5
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
            ItemRow(item_id="a", category="ENV", clip_score=0.2,
                    caption_alignment=0.5, judge_score=5, collapsed=False),
            ItemRow(item_id="b", category="ENV", clip_score=0.4, clip_attr=0.1,
                    collapsed=True),
            ItemRow(item_id="c", category="MAT", clip_attr=0.3,
                    caption_alignment=0.7, judge_score=3),
            ItemRow(item_id="d", category="MAT", clip_score=0.6, judge_score=1,
                    collapsed=True),
        ]
        rep = aggregate_report(rows, by_category=True, method="m")
        expected = {  # column: (mean, sample SD) over its present values
            "clip_score": (0.4, 0.2),                         # 0.2, 0.4, 0.6
            "clip_attr": (0.2, math.sqrt(0.02)),              # 0.1, 0.3
            "caption_alignment": (0.6, math.sqrt(0.02)),      # 0.5, 0.7
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
        # ENV: clip_score 0.2, 0.4; clip_attr 0.1; caption 0.5; ccs 5; cvr 0, 1
        assert env.mean == pytest.approx({"clip_score": 0.3, "clip_attr": 0.1,
                                          "caption_alignment": 0.5, "ccs": 5.0,
                                          "cvr": 0.5}, abs=1e-12)
        assert env.sd == pytest.approx({"clip_score": math.sqrt(0.02),
                                        "clip_attr": 0.0, "caption_alignment": 0.0,
                                        "ccs": 0.0, "cvr": math.sqrt(0.5)},
                                       abs=1e-12)
        # MAT: clip_score 0.6; clip_attr 0.3; caption 0.7; ccs 3, 1; cvr 1
        assert mat.mean == pytest.approx({"clip_score": 0.6, "clip_attr": 0.3,
                                          "caption_alignment": 0.7, "ccs": 2.0,
                                          "cvr": 1.0}, abs=1e-12)
        assert mat.sd == pytest.approx({"clip_score": 0.0, "clip_attr": 0.0,
                                        "caption_alignment": 0.0,
                                        "ccs": math.sqrt(2.0), "cvr": 0.0},
                                       abs=1e-12)
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0] == ("method,group,n,clip_score,clip_score_sd,clip_attr,"
                            "clip_attr_sd,caption_alignment,caption_alignment_sd,"
                            "ccs,ccs_sd,cvr,cvr_sd")
        assert lines[1] == ("m,overall,4,0.400000,0.200000,0.200000,0.141421,"
                            "0.600000,0.141421,3.000000,2.000000,0.666667,0.577350")

    def test_a_column_no_row_sets_is_absent(self):
        rows = [ItemRow(item_id="a", category="ENV", clip_attr=0.25),
                ItemRow(item_id="b", category="ENV", clip_attr=0.75)]
        rep = aggregate_report(rows, method="m")
        assert rep.overall.mean == {"clip_attr": 0.5}
        assert rep.overall.sd == pytest.approx({"clip_attr": math.sqrt(0.125)},
                                               abs=1e-12)
        row = report_to_csv(rep).strip().splitlines()[1]
        assert row == "m,overall,2,,,0.500000,0.353553,,,,,,"
