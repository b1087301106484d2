import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surveyfuse import (
    DataError,
    FeatureDictionary,
    FeatureSpec,
    HarmonizationSpec,
    MappingError,
    SchemaError,
    build_dictionary,
    encode_value,
    harmonize_target,
    load_default_spec,
)
from surveyfuse.schema import SurveyColumn, TargetColumn, TargetSpec


def two_feature_spec():
    return HarmonizationSpec(
        features=(
            FeatureSpec(
                name="A",
                categories=("c", "d"),
                surveys={"s": SurveyColumn(column="a", table="person",
                                           values={"c": "c", "d": "d"})},
            ),
            FeatureSpec(
                name="B",
                categories=("i", "j"),
                surveys={"s": SurveyColumn(column="b", table="person",
                                           values={"i": "i", "j": "j"})},
            ),
        ),
        target=TargetSpec(name="Delivery",
                          surveys={"s": TargetColumn(columns=("del",), divisor=1)}),
    )


class TestBuildDictionary:
    def test_two_features_two_categories_each(self):
        d = build_dictionary(two_feature_spec())
        assert d.columns == (("A", "c"), ("A", "d"), ("B", "i"), ("B", "j"))
        assert d.dimension == 4

    def test_single_feature(self):
        spec = HarmonizationSpec(
            features=(FeatureSpec(name="F", categories=("x", "y"),
                                  surveys={"s": SurveyColumn(column="f", table="person",
                                                             values={"x": "x"})}),),
            target=TargetSpec(name="Delivery",
                              surveys={"s": TargetColumn(columns=("del",), divisor=1)}),
        )
        assert build_dictionary(spec).dimension == 2

    def test_shipped_crosswalk_has_26_columns(self):
        # category counts: Income 3, Age 4, Gender 2, Education 6, LifeCycle 4, Employment 7
        d = build_dictionary(load_default_spec())
        assert d.dimension == 3 + 4 + 2 + 6 + 4 + 7 == 26

    def test_duplicate_feature_names_rejected(self):
        spec = two_feature_spec()
        bad = HarmonizationSpec(
            features=(spec.features[0], spec.features[0]), target=spec.target
        )
        with pytest.raises(SchemaError, match="duplicate feature"):
            build_dictionary(bad)

    def test_duplicate_categories_rejected(self):
        spec = two_feature_spec()
        bad_feature = FeatureSpec(name="Z", categories=("q", "q"),
                                  surveys=spec.features[0].surveys)
        with pytest.raises(SchemaError, match="duplicate categories"):
            build_dictionary(HarmonizationSpec(features=(bad_feature,), target=spec.target))

    def test_category_named_like_the_missing_label_rejected(self):
        with pytest.raises(SchemaError, match="^feature 'F': category 'Missing' is reserved"):
            FeatureDictionary(features=("F",), categories=(("a", "Missing"),))
        spec = two_feature_spec()
        bad_feature = FeatureSpec(name="Z", categories=("q", "Missing"), surveys={})
        with pytest.raises(SchemaError, match="^feature 'Z': category 'Missing' is reserved"):
            HarmonizationSpec(features=(bad_feature,), target=spec.target).validate()

    def test_single_category_rejected(self):
        spec = two_feature_spec()
        bad_feature = FeatureSpec(name="Z", categories=("only",), surveys={})
        with pytest.raises(SchemaError, match="at least 2"):
            build_dictionary(HarmonizationSpec(features=(bad_feature,), target=spec.target))

    def test_group_slices_partition_columns(self):
        d = build_dictionary(load_default_spec())
        slices = d.group_slices()
        assert slices[0].start == 0 and slices[-1].stop == d.dimension
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start


class TestEncodeValue:
    def test_category_sets_one_bit(self):
        f = two_feature_spec().features[0]
        assert encode_value(f, "c", "s").tolist() == [1, 0]

    def test_missing_is_all_zeros(self):
        f = two_feature_spec().features[0]
        assert encode_value(f, "", "s").tolist() == [0, 0]
        assert encode_value(f, None, "s").tolist() == [0, 0]

    def test_other_category(self):
        f = two_feature_spec().features[0]
        assert encode_value(f, "d", "s").tolist() == [0, 1]

    def test_unmapped_value_names_survey_column_value(self):
        f = two_feature_spec().features[0]
        with pytest.raises(MappingError) as err:
            encode_value(f, "zebra", "s")
        assert "'s'" in str(err.value)
        assert "'a'" in str(err.value)
        assert "'zebra'" in str(err.value)

    def test_mapping_to_missing(self):
        f = FeatureSpec(
            name="A", categories=("c", "d"),
            surveys={"s": SurveyColumn(column="a", table="person",
                                       values={"c": "c", "refused": None})},
        )
        assert encode_value(f, "refused", "s").tolist() == [0, 0]

    def test_bins_lower_bound_inclusive(self):
        f = FeatureSpec(
            name="Age", categories=("<25", "25-45", "45-65", ">65"),
            surveys={"s": SurveyColumn(column="age", table="person", bins=(25, 45, 65))},
        )
        assert encode_value(f, "24.9", "s").tolist() == [1, 0, 0, 0]
        assert encode_value(f, "25", "s").tolist() == [0, 1, 0, 0]
        assert encode_value(f, "45", "s").tolist() == [0, 0, 1, 0]
        assert encode_value(f, "65", "s").tolist() == [0, 0, 0, 1]
        assert encode_value(f, "90", "s").tolist() == [0, 0, 0, 1]

    def test_bins_non_numeric_raises(self):
        f = FeatureSpec(
            name="Age", categories=("lo", "hi"),
            surveys={"s": SurveyColumn(column="age", table="person", bins=(50,))},
        )
        with pytest.raises(MappingError, match="not numeric"):
            encode_value(f, "old", "s")

    def test_survey_without_mapping(self):
        f = two_feature_spec().features[0]
        with pytest.raises(SchemaError, match="no mapping"):
            encode_value(f, "c", "unknown-survey")

    def test_injective_on_categories(self):
        f = two_feature_spec().features[0]
        assert [encode_value(f, c, "s").tolist() for c in f.categories] == [[1, 0], [0, 1]]


class TestHarmonizeTarget:
    def test_monthly_to_daily(self):
        assert harmonize_target(30, 30) == 1.0

    def test_zero(self):
        assert harmonize_target(0, 30) == 0.0

    def test_missing_propagates(self):
        assert harmonize_target(None, 30) is None

    def test_negative_raises(self):
        with pytest.raises(DataError):
            harmonize_target(-1, 30)

    def test_bad_divisor(self):
        with pytest.raises(SchemaError):
            harmonize_target(1, 0)


class TestSpecFile:
    def test_json_round_trip(self):
        spec = load_default_spec()
        again = HarmonizationSpec.from_json_dict(spec.to_json_dict())
        assert build_dictionary(again) == build_dictionary(spec)

    def test_version_required(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"features": []}))
        with pytest.raises(SchemaError, match="version"):
            HarmonizationSpec.from_file(p)

    def test_bad_bin_count_rejected(self):
        spec = two_feature_spec()
        bad = FeatureSpec(
            name="N", categories=("a", "b", "c"),
            surveys={"s": SurveyColumn(column="n", table="person", bins=(1,))},
        )
        with pytest.raises(SchemaError, match="bin edges"):
            HarmonizationSpec(features=(bad,), target=spec.target).validate()

    def test_zero_divisor_rejected(self):
        spec = two_feature_spec()
        bad_target = TargetSpec(
            name="Delivery", surveys={"s": TargetColumn(columns=("del",), divisor=0)}
        )
        with pytest.raises(SchemaError, match="divisor"):
            HarmonizationSpec(features=spec.features, target=bad_target).validate()

    def test_target_table_other_than_day_rejected_at_load(self, tmp_path):
        obj = load_default_spec().to_json_dict()
        survey_id = next(iter(obj["target"]["surveys"]))
        obj["target"]["surveys"][survey_id]["table"] = "household"
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=f"{survey_id}.*'household'"):
            HarmonizationSpec.from_file(p)

    def test_mapping_to_unknown_category_rejected(self):
        spec = two_feature_spec()
        bad = FeatureSpec(
            name="A", categories=("c", "d"),
            surveys={"s": SurveyColumn(column="a", table="person", values={"x": "nope"})},
        )
        with pytest.raises(SchemaError, match="unknown category"):
            HarmonizationSpec(features=(bad,), target=spec.target).validate()


class TestDictionaryHash:
    def test_same_layout_same_hash(self):
        assert build_dictionary(two_feature_spec()).hash() == build_dictionary(
            two_feature_spec()
        ).hash()

    def test_different_layout_different_hash(self):
        d1 = build_dictionary(two_feature_spec())
        d2 = build_dictionary(load_default_spec())
        assert d1.hash() != d2.hash()

    @given(
        st.sampled_from(["c", "d", None]),
        st.sampled_from(["i", "j", None]),
    )
    def test_encoded_sample_popcount_per_group(self, cat_a, cat_b):
        spec = two_feature_spec()
        dd = build_dictionary(spec)
        bits = {"c": [1, 0], "d": [0, 1], "i": [1, 0], "j": [0, 1], None: [0, 0]}
        x = np.array(bits[cat_a] + bits[cat_b])
        pops = [int(x[sl].sum()) for sl in dd.group_slices()]
        assert pops[0] == (0 if cat_a is None else 1)
        assert pops[1] == (0 if cat_b is None else 1)


class TestDictionaryJson:
    def test_round_trip(self):
        dd = build_dictionary(load_default_spec())
        assert FeatureDictionary.from_json_dict(dd.to_json_dict()) == dd

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"features": [{"name": 1}]}, "dictionary feature 0 key 'name' must be a string"),
            ({"features": "x"}, "dictionary key 'features' must be a list of objects"),
            ({"features": [{"name": "a", "categories": [1]}]},
             "dictionary feature 0 key 'categories' must be a list of strings"),
            ({"features": [{"name": "a"}]}, "dictionary feature 0 has no 'categories'"),
            ([], "dictionary must be a JSON object"),
        ],
    )
    def test_wrong_shape_is_a_schema_error(self, obj, named):
        with pytest.raises(SchemaError, match=f"^{named}, got|^{named}$"):
            FeatureDictionary.from_json_dict(obj)
