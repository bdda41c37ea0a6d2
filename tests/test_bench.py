import json

import numpy as np
import pytest

from dcr.bench import (BenchPrompt, Category, FactorConstraint, REWRITE_TEMPLATE,
                       eval_constraint, load_fixture_suite, load_suite,
                       render_attractor_template)
from dcr.cli import main
from dcr.errors import ConfigurationError, SuiteFormatError, ValidationError
from dcr.toy import default_scenario, mode_assignment


def write_suite(tmp_path, items):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(items), encoding="utf-8")
    return path


def item_dict(id="x-001", category="ENV", prompt="p", attractor="q", factors=None):
    return {"id": id, "category": category, "prompt": prompt,
            "attractor_prompt": attractor,
            "factors": factors or [{"name": "f", "allowed": ["a"]}]}


class TestLoadSuite:
    def test_fixture_suite_loads_two_per_category(self):
        suite = load_fixture_suite()
        assert len(suite.items) == 16
        counts = suite.counts_by_category()
        assert all(counts[c] == 2 for c in Category)

    def test_fixture_pairs_differ(self):
        for item in load_fixture_suite().items:
            assert item.prompt != item.attractor_prompt

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SuiteFormatError):
            load_suite(path)

    def test_empty_array_rejected(self, tmp_path):
        with pytest.raises(SuiteFormatError):
            load_suite(write_suite(tmp_path, []))

    def test_unknown_category_names_item_and_field(self, tmp_path):
        path = write_suite(tmp_path, [item_dict(category="FOO")])
        with pytest.raises(SuiteFormatError) as err:
            load_suite(path)
        assert "category" in str(err.value) and "x-001" in str(err.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_suite(tmp_path, [item_dict(), item_dict()])
        with pytest.raises(SuiteFormatError) as err:
            load_suite(path)
        assert "duplicate" in str(err.value)

    def test_missing_field_named(self, tmp_path):
        bad = item_dict()
        del bad["prompt"]
        with pytest.raises(SuiteFormatError) as err:
            load_suite(write_suite(tmp_path, [bad]))
        assert "prompt" in str(err.value)

    def test_extra_field_rejected(self, tmp_path):
        bad = item_dict()
        bad["rating"] = 5
        with pytest.raises(SuiteFormatError):
            load_suite(write_suite(tmp_path, [bad]))

    def test_factorless_item_rejected_at_load(self, tmp_path):
        bad = item_dict()
        bad["factors"] = []
        with pytest.raises(SuiteFormatError):
            load_suite(write_suite(tmp_path, [bad]))

    def test_threshold_only_for_dens(self, tmp_path):
        bad = item_dict(category="ENV",
                        factors=[{"name": "crowd", "max": 0.5}])
        with pytest.raises(SuiteFormatError):
            load_suite(write_suite(tmp_path, [bad]))
        ok = item_dict(id="d-1", category="DENS",
                       factors=[{"name": "crowd", "max": 0.5}])
        suite = load_suite(write_suite(tmp_path, [ok]))
        assert suite.items[0].factors[0].is_threshold

    @pytest.mark.parametrize("change, item, field", [
        ({"id": 7}, "0", "id"),
        ({"id": ["x"]}, "0", "id"),
        ({"id": ""}, "0", "id"),
        ({"prompt": 5}, "x-001", "prompt"),
        ({"attractor_prompt": None}, "x-001", "attractor_prompt"),
        ({"factors": [{"name": "f", "allowed": "snow"}]}, "x-001",
         "factors[0].allowed"),
        ({"factors": [{"name": "f", "allowed": [["x"]]}]}, "x-001",
         "factors[0].allowed"),
        ({"factors": [{"name": "f", "allowed": ["a"], "attractor_set": "b"}]},
         "x-001", "factors[0].attractor_set"),
        ({"category": "DENS", "factors": [{"name": "f", "max": True}]}, "x-001",
         "factors[0].max"),
        ({"category": "DENS", "factors": [{"name": "f", "max": "5"}]}, "x-001",
         "factors[0].max"),
        # json reads NaN and Infinity: a NaN threshold is never satisfied, an
        # infinite one always
        ({"category": "DENS", "factors": [{"name": "f", "max": float("nan")}]},
         "x-001", "factors[0].max"),
        ({"category": "DENS", "factors": [{"name": "f", "max": float("inf")}]},
         "x-001", "factors[0].max"),
        ({"category": "DENS", "factors": [{"name": "f", "max": 10**400}]},
         "x-001", "factors[0].max"),
    ], ids=["int-id", "list-id", "empty-id", "int-prompt", "null-attractor-prompt",
            "string-allowed", "nested-allowed", "string-attractor-set", "bool-max",
            "string-max", "nan-max", "infinite-max", "beyond-float-max"])
    def test_a_field_of_the_wrong_type_names_item_and_field(self, tmp_path, change,
                                                            item, field):
        path = write_suite(tmp_path, [item_dict() | change])
        with pytest.raises(SuiteFormatError) as err:
            load_suite(path)
        assert (str(err.value.item), err.value.field) == (item, field)

    @pytest.mark.parametrize("change, field, named", [
        ({"factors": [{"name": "f", "allowed": []}]}, "factors[0]", "allowed"),
        # extractors are bound by name, so the first factor would read the
        # second's value, and the rare mode would count as collapsed
        ({"factors": [{"name": "f", "allowed": ["snowy"], "attractor_set": ["beach"]},
                      {"name": "f", "allowed": ["beach"], "attractor_set": ["sunny"]}]},
         None, "factors[1].name"),
        # a threshold factor never reads an attractor set
        ({"category": "DENS",
          "factors": [{"name": "f", "max": 0.5, "attractor_set": ["dense"]}]},
         "factors[0]", "attractor_set"),
    ], ids=["empty-allowed", "repeated-name", "attractor-set-beside-max"])
    def test_bench_refuses_a_factor_it_cannot_evaluate_before_sampling(
            self, tmp_path, capsys, change, field, named):
        path = write_suite(tmp_path, [item_dict() | change])
        with pytest.raises(SuiteFormatError) as err:
            load_suite(path)
        assert (str(err.value.item), err.value.field) == ("x-001", field)
        assert named in str(err.value)
        out = tmp_path / "out"
        assert main(["bench", "--suite", str(path), "--n-per-item", "1",
                     "--steps", "5", "--out", str(out)]) == 1
        assert str(err.value) in capsys.readouterr().err
        assert not out.exists()
        # the rule is the type's, so a suite built in code is refused too
        with pytest.raises(ValidationError):
            factors = [FactorConstraint(f["name"], f.get("allowed"), f.get("max"),
                                        f.get("attractor_set"))
                       for f in change["factors"]]
            BenchPrompt("x-001", change.get("category", "ENV"), "p", "q", factors)

    def test_bench_reports_a_mistyped_suite_as_a_usage_error(self, tmp_path, capsys):
        path = write_suite(tmp_path, [item_dict(id=["x"])])
        out = tmp_path / "out"
        assert main(["bench", "--suite", str(path), "--out", str(out)]) == 1
        assert "[field 'id']" in capsys.readouterr().err
        assert not out.exists()

    def test_an_integer_max_is_a_threshold(self, tmp_path):
        ok = item_dict(category="DENS", factors=[{"name": "crowd", "max": 5}])
        assert load_suite(write_suite(tmp_path, [ok])).items[0].factors[0].threshold \
            == 5.0

    def test_canonical_count_enforced(self, tmp_path):
        cats = [c.value for c in Category]
        items = [item_dict(id=f"{cat}-{i}", category=cat, prompt=f"p{i}",
                           attractor=f"q{i}")
                 for cat in cats for i in range(50)]
        suite = load_suite(write_suite(tmp_path, items), canonical=True)
        assert len(suite.items) == 400
        with pytest.raises(ValidationError):
            load_suite(write_suite(tmp_path, items[:-1]), canonical=True)


class TestEvalConstraint:
    def setup_method(self):
        self.scenario = default_scenario()
        self.extractors = {"mode": lambda x0: ("rare" if mode_assignment(
            np.asarray(x0), self.scenario) == self.scenario.rare_index else "dominant")}
        self.item = load_fixture_suite().items[0]

    def _toy_item(self):
        return type(self.item)(
            id="toy", category=Category.ENV, prompt="p", attractor_prompt="q",
            factors=(FactorConstraint(name="mode", allowed=frozenset({"rare"}),
                                      attractor_set=frozenset({"dominant"})),))

    def test_rare_mode_satisfies(self):
        item = self._toy_item()
        x0 = self.scenario.base.means[self.scenario.rare_index]
        out = eval_constraint(x0, item, self.extractors)
        assert out.satisfied and not out.collapsed

    def test_dominant_mode_collapses(self):
        item = self._toy_item()
        x0 = self.scenario.base.means[self.scenario.dominant_index]
        out = eval_constraint(x0, item, self.extractors)
        assert not out.satisfied and out.collapsed

    def test_threshold_form(self):
        item = type(self.item)(
            id="dens", category=Category.DENS, prompt="p", attractor_prompt="q",
            factors=(FactorConstraint(name="crowd", threshold=5.0),))
        out = eval_constraint(None, item, {"crowd": lambda _: 3.0})
        assert out.satisfied and not out.collapsed
        out = eval_constraint(None, item, {"crowd": lambda _: 7.0})
        assert not out.satisfied

    def test_missing_extractor_lists_names(self):
        item = self._toy_item()
        with pytest.raises(ConfigurationError) as err:
            eval_constraint(np.zeros(2), item, {})
        assert "mode" in str(err.value)

    def test_conjunction_monotone(self):
        base = FactorConstraint(name="a", allowed=frozenset({"ok"}))
        extra = FactorConstraint(name="b", allowed=frozenset({"never"}))
        mk = lambda factors: type(self.item)(id="m", category=Category.ENV,
                                             prompt="p", attractor_prompt="q",
                                             factors=factors)
        ex = {"a": lambda _: "ok", "b": lambda _: "no"}
        assert eval_constraint(None, mk((base,)), ex).satisfied
        assert not eval_constraint(None, mk((base, extra)), ex).satisfied


class TestTemplate:
    def test_contains_required_instruction(self):
        out = render_attractor_template("a snowy beach with waves")
        assert "generate a single alternative prompt" in out
        assert "a snowy beach with waves" in out

    def test_byte_stable(self):
        a = render_attractor_template("a snowy beach with waves")
        b = render_attractor_template("a snowy beach with waves")
        assert a.encode() == b.encode()

    def test_newline_prompt_substituted_verbatim(self):
        p = "line one\nline two"
        out = render_attractor_template(p)
        assert p in out
        assert out == REWRITE_TEMPLATE.format(p=p)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValidationError):
            render_attractor_template("")

