"""Pipeline tests: golden scenarios, aggregation, classification, reports."""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from certaintrust import pipeline
from certaintrust import (
    EvidenceCount,
    MissingVariable,
    ModuleSpec,
    PipelineConfig,
    TrustParams,
    UnknownVariable,
    classify_trust,
    compare_merchants,
    config_from_dict,
    config_to_dict,
    evaluate_merchant,
    infer,
    load_config,
    merchant_trust,
    module_rulebase,
    module_trust_average,
    module_trust_fuzzy,
    save_config,
    variable_trust,
)
from certaintrust.store import DirectAssessment

import goldens
import oracle

CFG = PipelineConfig()
P = CFG.params


def report_for(data, merchant="M", **kwargs):
    variables = {name: pair for name, pair in data.items()}
    return evaluate_merchant(merchant, CFG, variables=variables, **kwargs)


class TestVariableTrust:
    def test_direct_pairs_from_benchmark(self):
        assert variable_trust((0.3, 4.0), P) == pytest.approx(24.0, abs=1e-9)
        assert variable_trust((0.9, 4.8), P) == pytest.approx(86.4, abs=1e-9)
        assert variable_trust((0.46, 4.45), P) == pytest.approx(40.94, abs=0.5)

    def test_assessment_object(self):
        a = DirectAssessment("m", "Delivery", 0.5, 4.35, 0)
        assert variable_trust(a, P) == pytest.approx(43.5, abs=1e-9)

    def test_from_evidence(self):
        # r=9, s=1 with N=10, w=1: c = 1, t = 0.9, T = 90
        got = variable_trust(EvidenceCount(9, 1), TrustParams(N=10, w=1.0))
        assert got == pytest.approx(90.0, abs=1e-9)


class TestModuleTrustAverage:
    def test_benchmark_rows(self):
        assert module_trust_average([42.0, 24.0, 63.0]) == pytest.approx(43.0, abs=1e-12)
        assert module_trust_average([38.0, 64.6, 68.4]) == pytest.approx(57.0, abs=1e-9)

    def test_idempotent(self):
        assert module_trust_average([37.2, 37.2, 37.2]) == pytest.approx(37.2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            module_trust_average([])


class TestModuleTrustFuzzy:
    RB = module_rulebase(CFG.modules[0])

    def test_symmetric_midpoint(self):
        got = module_trust_fuzzy([50.0, 50.0, 50.0], self.RB)
        assert got == pytest.approx(50.0, abs=0.5)

    def test_all_zero_lands_in_bottom_band(self):
        got = module_trust_fuzzy([0.0, 0.0, 0.0], self.RB)
        assert 0.0 <= got < 25.0
        assert got == pytest.approx(
            oracle.bruteforce_infer([0.0, 0.0, 0.0], 0.0, 100.0), abs=1e-6
        )

    def test_permutation_invariance(self):
        base = module_trust_fuzzy([42.0, 24.0, 63.0], self.RB)
        assert module_trust_fuzzy([24.0, 63.0, 42.0], self.RB) == pytest.approx(
            base, abs=1e-12
        )
        assert base == pytest.approx(
            oracle.bruteforce_infer([42.0, 24.0, 63.0], 0.0, 100.0), abs=1e-6
        )


class TestMerchantTrust:
    def test_merchant_a_quoted_modules(self):
        mods = [goldens.QUOTED_MODULE_A[m] for m in CFG.module_names()]
        assert merchant_trust(mods, CFG) == goldens.QUOTED_MERCHANT_A

    def test_merchant_b_quoted_modules(self):
        mods = [goldens.QUOTED_MODULE_B[m] for m in CFG.module_names()]
        got = merchant_trust(mods, CFG)
        assert got == pytest.approx(goldens.EXACT_MERCHANT_B, abs=1e-9)
        assert round(got, 2) == goldens.QUOTED_MERCHANT_B

    def test_idempotent_under_average(self):
        assert merchant_trust([61.3] * 4, CFG) == pytest.approx(61.3, abs=1e-12)

    def test_bounded_by_module_extremes(self):
        mods = [12.0, 55.0, 71.0, 40.0]
        got = merchant_trust(mods, CFG)
        assert min(mods) <= got <= max(mods)

    def test_fuzzy_aggregation(self):
        cfg = PipelineConfig(aggregation="fuzzy")
        got = merchant_trust([43.0, 70.0, 59.5, 61.0], cfg)
        ref = oracle.bruteforce_infer([43.0, 70.0, 59.5, 61.0], 0.0, 100.0)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            merchant_trust([50.0, 50.0], CFG)


class TestClassifyTrust:
    def test_benchmark_class(self):
        assert classify_trust(58.375, CFG) == "Medium"
        assert classify_trust(47.26, CFG) == "Medium"

    def test_boundaries_are_half_open(self):
        assert classify_trust(0.0) == "Very_Low"
        assert classify_trust(20.0) == "Low"
        assert classify_trust(40.0) == "Medium"
        assert classify_trust(60.0) == "High"
        assert classify_trust(80.0) == "Very_High"
        assert classify_trust(100.0) == "Very_High"

    def test_monotone_in_trust(self):
        order = ["Very_Low", "Low", "Medium", "High", "Very_High"]
        previous = 0
        for trust in [0, 5, 19.9, 20, 39, 41, 59.9, 62, 79, 80, 99, 100]:
            rank = order.index(classify_trust(float(trust)))
            assert rank >= previous
            previous = rank

    def test_custom_bounds(self):
        cfg = PipelineConfig(class_bounds=(10.0, 30.0, 50.0, 90.0))
        assert classify_trust(85.0, cfg) == "High"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_trust(101.0)


class TestEvaluateMerchant:
    def test_merchant_a_variables_and_modules(self):
        report = report_for(goldens.MERCHANT_A, "A")
        for name, quoted in goldens.QUOTED_VARIABLE_A.items():
            if name == "Customer Satisfaction":
                continue  # quoted figure is off; pinned separately below
            assert report.variable_trusts[name] == pytest.approx(quoted, abs=0.5), name
        computed_cs = report.variable_trusts["Customer Satisfaction"]
        assert computed_cs == pytest.approx(75.2, abs=1e-9)
        assert computed_cs - goldens.QUOTED_VARIABLE_A["Customer Satisfaction"] == pytest.approx(1.6, abs=0.1)
        for name, quoted in goldens.QUOTED_MODULE_A.items():
            assert report.module_trusts[name] == pytest.approx(quoted, abs=0.5), name

    def test_merchant_b_variables_and_modules(self):
        report = report_for(goldens.MERCHANT_B, "B")
        for name, quoted in goldens.QUOTED_VARIABLE_B.items():
            if name == "Privacy":
                continue
            assert report.variable_trusts[name] == pytest.approx(quoted, abs=0.5), name
        assert report.variable_trusts["Privacy"] == pytest.approx(51.35, abs=0.01)
        # Affiliation's quoted aggregate (39) contradicts its own rows
        assert report.module_trusts["Affiliation"] == pytest.approx(
            goldens.RECOMPUTED_AFFILIATION_B, abs=0.1
        )
        for name in ("Existence", "Fulfillment", "Policy"):
            assert report.module_trusts[name] == pytest.approx(
                goldens.QUOTED_MODULE_B[name], abs=0.5
            ), name

    def test_module_overrides_reproduce_quoted_aggregates(self):
        report = report_for(goldens.MERCHANT_B, "B", module_overrides=goldens.QUOTED_MODULE_B)
        assert report.merchant_trust == pytest.approx(goldens.EXACT_MERCHANT_B, abs=1e-9)
        assert report.behavioral.value == pytest.approx(-5.475, abs=0.01)
        assert report.behavioral.direction == "below_base"
        assert report.trust_class == "Medium"

    def test_merchant_a_with_overrides(self):
        report = report_for(goldens.MERCHANT_A, "A", module_overrides=goldens.QUOTED_MODULE_A)
        assert report.merchant_trust == goldens.QUOTED_MERCHANT_A
        assert report.behavioral.value == pytest.approx(16.75, abs=0.01)
        assert report.trust_class == "Medium"

    def test_empty_evidence_cascade(self):
        variables = {name: EvidenceCount(0, 0) for name in CFG.variable_names()}
        report = evaluate_merchant("Z", CFG, variables=variables)
        assert all(v == 0.0 for v in report.variable_trusts.values())
        assert report.merchant_trust == 0.0
        assert report.trust_class == "Very_Low"
        assert report.behavioral.direction == "below_base"

    def test_missing_variables_all_named(self):
        with pytest.raises(MissingVariable) as err:
            evaluate_merchant("Z", CFG, variables={})
        message = str(err.value)
        for name in CFG.variable_names():
            assert name in message

    def test_overridden_module_waives_its_variables(self):
        variables = {
            name: pair
            for name, pair in goldens.MERCHANT_A.items()
            if name not in ("Physical Existence", "People Existence", "Mandatory Registration")
        }
        report = evaluate_merchant(
            "A", CFG, variables=variables, module_overrides={"Existence": 43.0}
        )
        assert report.module_trusts["Existence"] == 43.0
        assert "Physical Existence" not in report.variable_trusts

    def test_override_range_checked(self):
        for value in (120.0, "abc", None, "50", math.nan, math.nextafter(100.0, math.inf),
                      math.nextafter(0.0, -math.inf)):
            with pytest.raises(ValueError, match="^module override for Existence must be a "
                                                 r"number in \[0, 100\], got "):
                report_for(goldens.MERCHANT_A, module_overrides={"existence": value})

    @pytest.mark.parametrize("value", [0, -0.0, 100, 100.0])
    def test_override_endpoints_are_accepted(self, value):
        report = report_for(goldens.MERCHANT_A, module_overrides={"existence": value})
        assert report.module_trusts["Existence"] == value

    def test_unknown_override_module_rejected(self):
        with pytest.raises(UnknownVariable, match="^'Bogus' is not a configured module "):
            report_for(goldens.MERCHANT_A, module_overrides={"Bogus": 50.0})

    def test_variable_names_normalized(self):
        variables = dict(goldens.MERCHANT_A)
        variables["physical_existence"] = variables.pop("Physical Existence")
        report = evaluate_merchant("A", CFG, variables=variables)
        assert report.variable_trusts["Physical Existence"] == pytest.approx(42.0, abs=1e-9)

    def test_deterministic(self):
        a = report_for(goldens.MERCHANT_A, "A")
        b = report_for(goldens.MERCHANT_A, "A")
        assert a == b
        assert a.to_json() == b.to_json()

    def test_fuzzy_aggregation_end_to_end(self):
        cfg = PipelineConfig(aggregation="fuzzy")
        report = evaluate_merchant("A", cfg, variables=dict(goldens.MERCHANT_A))
        assert 0.0 <= report.merchant_trust <= 100.0
        module_ref = oracle.bruteforce_infer([42.0, 24.0, 63.0], 0.0, 100.0)
        assert report.module_trusts["Existence"] == pytest.approx(module_ref, abs=1e-6)


class TestModuleBatch:
    """The fuzzy route scores a merchant's modules in one kernel call."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The output names of the rulebases in each :func:`infer_batch` call."""
        calls = []
        batch = pipeline.infer_batch

        def spy(rbs, rows, *args, **kwargs):
            calls.append([rb.output.name for rb in rbs])
            return batch(rbs, rows, *args, **kwargs)

        monkeypatch.setattr(pipeline, "infer_batch", spy)
        return calls

    def test_one_call_over_the_modules_not_overridden(self, batches):
        cfg = PipelineConfig(aggregation="fuzzy")
        report = evaluate_merchant("A", cfg, variables=dict(goldens.MERCHANT_A),
                                   module_overrides={"affiliation": 55.0})
        assert batches == [["Existence", "Fulfillment", "Policy"]]
        assert list(report.module_trusts) == list(cfg.module_names())
        assert report.module_trusts["Affiliation"] == 55.0
        for spec in cfg.modules:
            if spec.name != "Affiliation":
                xs = [report.variable_trusts[v] for v in spec.variables]
                want = infer(module_rulebase(spec), xs)
                assert report.module_trusts[spec.name].hex() == want.hex()

    def test_one_call_per_merchant(self, batches):
        cfg = PipelineConfig(aggregation="fuzzy")
        for merchant in (goldens.MERCHANT_A, goldens.MERCHANT_B):
            evaluate_merchant("M", cfg, variables=dict(merchant))
        assert batches == [list(cfg.module_names())] * 2

    def test_no_call_on_the_average_route(self, batches):
        report_for(goldens.MERCHANT_A)
        assert batches == []

    def test_no_call_when_every_module_is_overridden(self, batches):
        cfg = PipelineConfig(aggregation="fuzzy")
        pinned = dict(zip(cfg.module_names(), (10.0, 20.0, 30.0, 40.0)))
        report = evaluate_merchant("A", cfg, module_overrides=pinned)
        assert batches == []
        assert report.module_trusts == pinned

    def test_module_rulebases_share_one_table(self):
        rbs = [module_rulebase(spec) for spec in PipelineConfig(aggregation="fuzzy").modules]
        assert len({id(rb) for rb in rbs}) == 4
        assert all(rb.kernel.table is rbs[0].kernel.table for rb in rbs)


class TestEvaluateFromStore:
    @pytest.fixture
    def store(self, tmp_path):
        from certaintrust.store import EvidenceRecord, EvidenceStore

        store = EvidenceStore(tmp_path / "log.jsonl")
        for variable, (c, t_scaled) in goldens.MERCHANT_A.items():
            store.append(DirectAssessment("A", variable, c, t_scaled, 10))
        # evidence alongside an assessment for one variable
        for _ in range(9):
            store.append(EvidenceRecord("A", "Delivery", "positive", 11))
        store.append(EvidenceRecord("A", "Delivery", "negative", 11))
        return store

    def test_assessment_takes_precedence_over_evidence(self, store):
        cfg = PipelineConfig(params=TrustParams(N=10, w=1.0))
        report = evaluate_merchant("A", cfg, store=store)
        # the (0.5, 4.35) assessment wins over the (9, 1) tally
        assert report.variable_trusts["Delivery"] == pytest.approx(43.5, abs=1e-9)

    def test_evidence_used_when_no_assessment(self, store, tmp_path):
        from certaintrust.store import EvidenceRecord, EvidenceStore

        other = EvidenceStore(tmp_path / "evidence.jsonl")
        for variable, (c, t_scaled) in goldens.MERCHANT_A.items():
            if variable != "Delivery":
                other.append(DirectAssessment("A", variable, c, t_scaled, 10))
        for _ in range(9):
            other.append(EvidenceRecord("A", "Delivery", "positive", 11))
        other.append(EvidenceRecord("A", "Delivery", "negative", 11))
        cfg = PipelineConfig(params=TrustParams(N=10, w=1.0))
        report = evaluate_merchant("A", cfg, store=other)
        # full cap: c = 1, t = 0.9 -> 90%
        assert report.variable_trusts["Delivery"] == pytest.approx(90.0, abs=1e-9)

    def test_explicit_variables_override_store(self, store):
        report = evaluate_merchant(
            "A", CFG, store=store, variables={"Delivery": (1.0, 5.0)}
        )
        assert report.variable_trusts["Delivery"] == pytest.approx(100.0, abs=1e-9)


class TestCompareMerchants:
    def test_benchmark_ordering(self):
        a = report_for(goldens.MERCHANT_A, "A", module_overrides=goldens.QUOTED_MODULE_A)
        b = report_for(goldens.MERCHANT_B, "B", module_overrides=goldens.QUOTED_MODULE_B)
        ordered = compare_merchants([b, a])
        assert [r.merchant for r in ordered] == ["A", "B"]

    def test_behavioral_tiebreak(self):
        base = report_for(goldens.MERCHANT_A, "High", module_overrides=goldens.QUOTED_MODULE_A)
        cfg_fplus = PipelineConfig(params=TrustParams(f=0.6))
        other = evaluate_merchant(
            "Low",
            cfg_fplus,
            variables=dict(goldens.MERCHANT_A),
            module_overrides=goldens.QUOTED_MODULE_A,
        )
        assert base.merchant_trust == other.merchant_trust
        assert base.behavioral.value > other.behavioral.value
        ordered = compare_merchants([other, base])
        assert [r.merchant for r in ordered] == ["High", "Low"]

    def test_identifier_tiebreak_and_permutation(self):
        a = report_for(goldens.MERCHANT_A, "alpha")
        b = report_for(goldens.MERCHANT_A, "beta")
        ordered = compare_merchants([b, a])
        assert [r.merchant for r in ordered] == ["alpha", "beta"]
        assert compare_merchants([a, b]) == ordered
        assert sorted(id(r) for r in ordered) == sorted(id(r) for r in [a, b])

    def test_single_report_rejected(self):
        with pytest.raises(ValueError):
            compare_merchants([report_for(goldens.MERCHANT_A)])


class TestReportSerialization:
    def test_four_decimal_places(self):
        report = report_for(goldens.MERCHANT_B, "B")
        data = json.loads(report.to_json())
        assert data["merchant_trust"] == round(report.merchant_trust, 4)
        assert data["variable_trusts"]["Delivery"] == 40.94
        assert data["behavioral"]["direction"] == report.behavioral.direction

    def test_round_trip_stability(self):
        report = report_for(goldens.MERCHANT_A, "A")
        assert json.loads(report.to_json()) == report.to_dict()


class TestConfig:
    def test_default_embeds_standard_constants(self):
        assert P.scale == 5.0
        assert P.f == 0.5
        assert P.w == 1.0
        assert CFG.class_bounds == (20.0, 40.0, 60.0, 80.0)
        assert CFG.aggregation == "average"
        assert CFG.module_names() == ("Existence", "Affiliation", "Fulfillment", "Policy")
        assert len(CFG.variable_names()) == 12

    def test_dict_round_trip(self):
        cfg = PipelineConfig(
            params=TrustParams(N=7, w=2.0, f=0.4, scale=10.0),
            aggregation="fuzzy",
            class_bounds=(10.0, 30.0, 55.0, 90.0),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = PipelineConfig(params=TrustParams(N=7))
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_unknown_keys_are_named(self):
        data = config_to_dict(CFG)
        data["aggregaton"] = "fuzzy"
        data["clas_bounds"] = [10, 30, 50, 70]
        data["modules"][2]["weight"] = 2
        with pytest.raises(ValueError) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == (
            "invalid config: config: unknown keys 'aggregaton', 'clas_bounds'; "
            "modules[2]: unknown keys 'weight'"
        )

    def test_loading_a_config_leaves_the_defaults_as_they_were(self, tmp_path):
        """Every load and every default caller share one default document
        and one default config, which no load changes."""
        modules = [{"name": f"M{i}", "variables": [f"v{i}{j}" for j in range(3)]}
                   for i in range(4)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"modules": modules, "class_bounds": [10, 30, 50, 70]}),
                        encoding="utf-8")
        cfg = load_config(str(path))
        assert (cfg.module_names(), cfg.class_bounds) == (("M0", "M1", "M2", "M3"),
                                                          (10, 30, 50, 70))
        defaults = config_to_dict(PipelineConfig())
        assert pipeline._DEFAULTS == config_to_dict(pipeline.DEFAULT_CONFIG) == defaults
        assert config_from_dict({}) == pipeline.DEFAULT_CONFIG == PipelineConfig()

    def test_legacy_not_mode_is_accepted_and_ignored(self):
        assert config_from_dict({"not_mode": "complement_certainty"}) == CFG

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="config must be a JSON object, got list"):
            config_from_dict([])

    @pytest.mark.parametrize("data, message", [
        ({"modules": [{"name": "X"}]}, "modules[0]: missing keys 'variables'"),
        ({"modules": [1, 2]},
         "modules[0]: must be an object, got int; modules[1]: must be an object, got int"),
        ({"class_bounds": 5}, "class_bounds: must be a list of numbers, got 5"),
        ({"modules": "Existence"}, "modules: must be a list, got str"),
        ({"modules": [{"name": "X", "variables": "abc"}]},
         "modules[0]: variables must be a list, got 'abc'"),
    ])
    def test_malformed_values_are_named(self, data, message):
        with pytest.raises(ValueError) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == "invalid config: " + message

    @pytest.mark.parametrize("data, message", [
        ({"modules": [{"name": 7, "variables": ["a", "b", "c"]}]},
         "module 7: name and variables must be non-empty strings, 3 variables in a tuple, "
         "got ('a', 'b', 'c')"),
        ({"class_bounds": [20, "40", 60, 80]},
         "class bounds must be 4 finite numbers, strictly ascending inside (0, 100), "
         "got (20, '40', 60, 80)"),
        ({"w": "1.0", "N": True}, "N must be a positive integer, got True"),
    ], ids=["module-name-int", "class-bounds-str", "N-bool"])
    def test_bad_values_are_named_by_their_class(self, data, message):
        with pytest.raises(ValueError) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("route", ["document", "code"])
    @pytest.mark.parametrize("key, value, message", [
        ("w", math.inf, "w must be a positive finite number, got inf"),
        ("scale", math.inf, "scale must be a positive finite number, got inf"),
        ("f", math.nan, "f must be a number in [0, 1], got nan"),
        ("N", 10 ** 400, "N must be a positive integer, got "),
        ("class_bounds", [10, math.nan, 60, 80], "class bounds must be 4 finite numbers"),
        ("class_bounds", [10, 40, 60, math.inf], "class bounds must be 4 finite numbers"),
        ("class_bounds", [10, 40, 60, 10 ** 400], "class bounds must be 4 finite numbers"),
    ], ids=["w-inf", "scale-inf", "f-nan", "N-huge", "bounds-nan", "bounds-inf", "bounds-huge"])
    def test_non_finite_numbers_are_rejected(self, route, key, value, message):
        with pytest.raises(ValueError) as excinfo:
            if route == "document":
                # json reads NaN and Infinity, as a config file may hold them
                config_from_dict(json.loads(json.dumps({key: value})))
            elif key == "class_bounds":
                PipelineConfig(class_bounds=tuple(value))
            else:
                TrustParams(**{key: value})
        assert str(excinfo.value).startswith(message)

    def test_invariants(self):
        with pytest.raises(ValueError):
            PipelineConfig(aggregation="median")
        with pytest.raises(ValueError):
            PipelineConfig(class_bounds=(20.0, 40.0, 40.0, 80.0))
        for bounds in ((0.0, 40.0, 60.0, 80.0), (20.0, 40.0, 60.0, 100.0),
                       (20.0, 20.0, 60.0, 80.0), (20.0, 40.0, 80.0, 80.0)):
            with pytest.raises(ValueError, match="^class bounds must be 4 finite numbers"):
                PipelineConfig(class_bounds=bounds)
        with pytest.raises(ValueError):
            PipelineConfig(modules=(ModuleSpec("Existence", ("a", "b", "c")),))
        for build in (lambda: ModuleSpec("Existence", ("a", "b")),
                      lambda: TrustParams(w="1"), lambda: TrustParams(f=True),
                      lambda: TrustParams(scale=None), lambda: ModuleSpec(7, ("a", "b", "c")),
                      lambda: ModuleSpec("X", "abc"), lambda: ModuleSpec("X", ["a", "b", "c"]),
                      lambda: ModuleSpec(" ", ("a", "b", "c")),
                      lambda: ModuleSpec("X", ("a", "", "c")),
                      lambda: PipelineConfig(modules=list(CFG.modules)),
                      lambda: PipelineConfig(modules=(*CFG.modules[:3], "Policy")),
                      lambda: PipelineConfig(class_bounds=(20, "40", 60, 80)),
                      lambda: PipelineConfig(class_bounds=[20, 40, 60, 80])):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("bounds", [
        (math.nextafter(0.0, 1.0), 40.0, 60.0, math.nextafter(100.0, 0.0)),
        (20.0, math.nextafter(20.0, 100.0), math.nextafter(80.0, 0.0), 80.0),
    ])
    def test_class_bounds_just_inside_are_accepted(self, bounds):
        assert PipelineConfig(class_bounds=bounds).class_bounds == bounds

    @pytest.mark.parametrize("f", [0, 0.0])
    def test_zero_base_rate_is_refused(self, f):
        message = r"^f must be above 0 to score, as every report divides by it, got 0"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(params=TrustParams(f=f))
        with pytest.raises(ValueError, match=message):
            config_from_dict({"f": f})

    def test_module_names_that_match_are_rejected(self):
        modules = list(CFG.modules)
        modules[3] = ModuleSpec("existence", modules[3].variables)
        with pytest.raises(ValueError, match="^module 'existence': name matches an earlier"):
            PipelineConfig(modules=tuple(modules))
        modules[3] = ModuleSpec("Existence", modules[3].variables)
        with pytest.raises(ValueError, match="^module 'Existence': name matches an earlier"):
            PipelineConfig(modules=tuple(modules))

    def test_module_names_that_match_are_rejected_from_a_document(self):
        data = config_to_dict(CFG)
        data["modules"][2]["name"] = "Affiliation "
        with pytest.raises(ValueError, match="^module 'Affiliation ': name matches an earlier"):
            config_from_dict(data)

    @pytest.mark.parametrize("module, variables, clash", [
        (2, ("Delivery", "delivery", "Community Comment"), "delivery"),
        (3, ("Customer Satisfaction", "Privacy", "payment_methods"), "payment_methods"),
        (0, ("Physical Existence", "People Existence", "Third-Party Endorsement"),
         "Third Party Endorsement"),
    ])
    def test_variable_names_that_match_are_rejected(self, module, variables, clash):
        modules = list(CFG.modules)
        modules[module] = ModuleSpec(modules[module].name, variables)
        with pytest.raises(ValueError, match=f"^variable '{clash}': name matches an earlier "
                                             "variable's, ignoring case"):
            PipelineConfig(modules=tuple(modules))
        data = config_to_dict(CFG)
        data["modules"][module]["variables"] = list(variables)
        with pytest.raises(ValueError, match=f"^variable '{clash}': name matches"):
            config_from_dict(data)

    def test_one_variable_in_two_modules_scores(self):
        modules = list(CFG.modules)
        modules[3] = ModuleSpec("Policy", ("Customer Satisfaction", "Privacy", "Delivery"))
        cfg = PipelineConfig(modules=tuple(modules))
        variables = {name: goldens.MERCHANT_A[name] for name in cfg.variable_names()}
        report = evaluate_merchant("A", cfg, variables=variables)
        trusts = report.variable_trusts
        assert report.module_trusts["Policy"] == pytest.approx(module_trust_average(
            [trusts["Customer Satisfaction"], trusts["Privacy"], trusts["Delivery"]]))
        assert report.module_trusts["Fulfillment"] == report_for(
            goldens.MERCHANT_A).module_trusts["Fulfillment"]


#: the keys a config document may hold, and a few it may not
DOCUMENT_KEYS = ["scale", "N", "w", "f", "aggregation", "class_bounds", "modules", "not_mode",
                 "name", "variables", "weight", "aggregaton"]
#: names that clash under name matching, and two that are no names at all
NAMES = ["Delivery", "delivery", "Portal", "Existence", "existence", "Policy", "X", "", " "]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
numbers = st.integers() | st.floats() | st.just(10 ** 400)
ascending_bounds = st.lists(st.floats(1.0, 99.0), min_size=4, max_size=4, unique=True).map(sorted)
#: ascending bounds with one replaced by a number that is not finite as a float
unbounded_bounds = st.builds(lambda bounds, i, value: [*bounds[:i], value, *bounds[i + 1:]],
                             ascending_bounds, st.integers(0, 3),
                             st.sampled_from([math.nan, math.inf, 10 ** 400]))
module_entries = st.fixed_dictionaries({
    "name": st.sampled_from(NAMES) | json_values,
    "variables": st.lists(st.sampled_from(NAMES) | json_values, min_size=2, max_size=4)
    | json_values,
})
#: near-valid documents, which reach the config classes, and documents of
#: any keys and values, which mostly stop at the document screen
documents = st.fixed_dictionaries({}, optional={
    "scale": numbers | json_values, "N": numbers | json_values, "w": numbers | json_values,
    "f": numbers | json_values, "aggregation": st.sampled_from(["average", "fuzzy"]) | json_values,
    "class_bounds": ascending_bounds | unbounded_bounds
    | st.lists(numbers | json_values, max_size=5) | json_values,
    "modules": st.lists(module_entries, min_size=4, max_size=4)
    | st.lists(module_entries | json_values, max_size=5) | json_values,
    "not_mode": json_values,
}) | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=4), json_values,
                     max_size=4)

#: how every config error begins: it names a key, a ``modules[i]`` entry,
#: a module or a variable
NAMED = re.compile(
    r"invalid config: (config|class_bounds|modules(\[\d+\])?): "
    r"|(N|w|f|scale|aggregation|modules|class bounds) must be "
    r"|(module|variable) .+: "
)


def assert_named(build):
    """``build()`` returns or raises a ValueError that names what is wrong;
    any other exception fails the test."""
    try:
        return build()
    except ValueError as exc:
        assert NAMED.match(str(exc)), str(exc)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_config_from_dict_returns_a_config_or_names_the_place(data):
    cfg = assert_named(lambda: config_from_dict(data))
    if cfg is not None:
        # an accepted config survives a save and a load unchanged
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@settings(max_examples=200, deadline=None)
@given(*[numbers | st.fractions() | json_values] * 4)
def test_trust_params_in_code_returns_or_names_the_field(n, w, f, scale):
    assert_named(lambda: TrustParams(N=n, w=w, f=f, scale=scale))


names_in_code = st.sampled_from(NAMES) | json_values
variables_in_code = (st.tuples(names_in_code, names_in_code, names_in_code)
                     | st.lists(names_in_code, max_size=4) | json_values)


@settings(max_examples=200, deadline=None)
@given(names_in_code, variables_in_code)
def test_module_spec_in_code_returns_or_names_the_module(name, variables):
    assert_named(lambda: ModuleSpec(name, variables))


valid_names = st.sampled_from([name for name in NAMES if name.strip()])
module_specs = st.builds(ModuleSpec, valid_names, st.tuples(valid_names, valid_names, valid_names))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["average", "fuzzy"]) | json_values,
       st.lists(module_specs, min_size=3, max_size=5).map(tuple) | json_values,
       st.lists(numbers | json_values, min_size=3, max_size=5).map(tuple) | json_values)
def test_pipeline_config_in_code_returns_or_names_the_field(aggregation, modules, class_bounds):
    assert_named(lambda: PipelineConfig(aggregation=aggregation, modules=modules,
                                        class_bounds=class_bounds))
