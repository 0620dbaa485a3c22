"""The pipeline config's JSON layout read both ways: `to_dict` writes what
`from_dict` reads back, and a malformed config fails as a StageError. Each
field of a checked record has its type and any number range it declares
checked on construction and on load."""

import dataclasses
import json
import math
import re
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade.cascade import InfusionConfig, VesselBackendConfig
from oct_cascade import config
from oct_cascade.config import Checked, In, Path, to_json
from oct_cascade.enface import ShadowConfig
from oct_cascade.errors import ConfigError
from oct_cascade.layers import DpConfig
from oct_cascade.metrics import ConfusionCounts, MetricsReport, ScheduleParams
from oct_cascade.phantom import DEFAULT_LAYER_LEVELS, MAX_VOXELS, PhantomConfig
from oct_cascade.pipeline import PipelineConfig, ReportConfig, StageError

#: The stage named by a fault in each section.
STAGES = {"input": "input", "boundaries": "boundary source", "shadows": "shadow source",
          "backend": "backend", "infusion": "infusion", "report": "report"}

paths = st.text(min_size=1, max_size=8)
fractions = st.floats(0.0, 1.0)
odd_windows = st.integers(1, 8).map(lambda k: 2 * k + 1)

phantoms = st.builds(
    PhantomConfig,
    dims=st.tuples(st.integers(1, 4), st.integers(16, 64), st.integers(16, 64)),
    n_vessels=st.integers(0, 6),
    vessel_radius=st.floats(0.5, 4.0),
    vessel_depth_fraction_range=st.tuples(fractions, fractions).map(lambda r: tuple(sorted(r))),
    shadow_attenuation=st.floats(0.01, 1.0),
    noise_sigma=st.floats(0.0, 0.2),
    layer_levels=st.fixed_dictionaries(
        {name: st.floats(0.0, 0.9) for name in DEFAULT_LAYER_LEVELS if name != "rpe"}
        | {"rpe": st.floats(0.91, 1.0)}
    ),
    vessel_level=fractions,
    seed=st.integers(0, 2**32 - 1),
)
dps = st.builds(
    DpConfig,
    smoothness=st.floats(0.0, 5.0),
    max_jump=st.integers(1, 6),
    ilm_band=st.tuples(st.integers(0, 10), fractions),
    rpe_band=st.tuples(fractions, st.integers(0, 10)),
    bm_band=st.tuples(fractions, fractions),
    inl_band=st.tuples(fractions, fractions),
)
shadows = st.builds(
    ShadowConfig,
    background_window=st.tuples(odd_windows, odd_windows),
    contrast_threshold=st.floats(0.01, 2.0),
    min_component_px=st.integers(1, 50),
)
infusions = st.builds(
    InfusionConfig,
    use_longitudinal=st.booleans(),
    use_transverse=st.booleans(),
    transverse_dilation=st.integers(0, 3),
    binarize_threshold=st.floats(0.01, 0.99),
    min_component_vox=st.integers(1, 50),
    connectivity=st.sampled_from((6, 26)),
)
backends = (st.none() | paths).map(
    lambda path: VesselBackendConfig(kind="classical" if path is None else "import", path=path)
)


@st.composite
def pipeline_configs(draw):
    fields = {}
    if draw(st.booleans()):
        fields["phantom"] = draw(phantoms)
    else:
        fields["volume_path"] = draw(paths)
        fields["gt_mask_path"] = draw(st.none() | paths)
    for prefix in ("boundary", "shadow"):
        path = draw(st.none() | paths)
        fields[f"{prefix}_source"] = "classical" if path is None else "import"
        fields[f"{prefix}_import_path"] = path
    return PipelineConfig(
        **fields,
        dp=draw(dps),
        shadow=draw(shadows),
        backend=draw(backends),
        infusion=draw(infusions),
        output_dir=draw(paths),
        report=draw(st.builds(ReportConfig, overlays=st.booleans(), montage=st.booleans())),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _objects(d: dict, where=()):
    """The key path of `d` and of every JSON object nested in it."""
    yield where
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _objects(value, (*where, key))


def _values(d: dict, where=()):
    """The key path of every value nested in `d`."""
    for key, value in d.items():
        yield (*where, key)
        if isinstance(value, dict):
            yield from _values(value, (*where, key))


def _node(d: dict, where: tuple) -> dict:
    for key in where:
        d = d[key]
    return d


@settings(max_examples=200)
@given(pipeline_configs())
def test_to_dict_reads_back_through_json_as_an_equal_config(cfg):
    text = json.dumps(cfg.to_dict())
    back = PipelineConfig.from_dict(json.loads(text))
    assert back == cfg
    assert json.dumps(back.to_dict()) == text


def test_an_int_for_a_float_field_writes_the_same_json_as_the_float():
    def written(number):
        cfg = PipelineConfig.from_dict({
            "input": {"phantom": {"noise_sigma": number, "vessel_depth_fraction_range": [number, 1],
                                  "layer_levels": {**DEFAULT_LAYER_LEVELS, "vitreous": number}}},
            "boundaries": {"dp": {"smoothness": number}},
        })
        return json.dumps(cfg.to_dict())

    assert written(0) == written(0.0)


@pytest.mark.parametrize("section, fields, stage", [
    ("boundaries", {"dp": {"smoothness": "NaN"}}, "boundary source"),
    ("boundaries", {"dp": {"smoothness": "Infinity"}}, "boundary source"),
    ("boundaries", {"dp": {"rpe_band": ["NaN", 6]}}, "boundary source"),
    ("boundaries", {"dp": {"ilm_band": [2, "NaN"]}}, "boundary source"),
    ("input", {"phantom": {"vessel_radius": "NaN"}}, "input"),
    ("input", {"phantom": {"noise_sigma": "NaN"}}, "input"),
    ("input", {"phantom": {"noise_sigma": "Infinity"}}, "input"),
    ("input", {"phantom": {"layer_levels": {**DEFAULT_LAYER_LEVELS, "choroid": "-Infinity"}}}, "input"),
    ("shadows", {"config": {"contrast_threshold": "NaN"}}, "shadow source"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_a_non_finite_number_is_its_stage_error_naming_the_file(tmp_path, section, fields, stage):
    d = {"input": {"phantom": {"dims": [2, 64, 48]}}}
    d[section] = {**d.get(section, {}), **fields}
    path = tmp_path / "pipeline.json"
    # json writes and reads NaN and the infinities as bare words
    path.write_text(json.dumps(d).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    with pytest.raises(StageError, match=f"{str(path)!r}: .* must be a number") as err:
        PipelineConfig.from_json(str(path))
    assert err.value.stage == stage


def test_an_int_beyond_the_float_range_is_refused_as_a_number():
    with pytest.raises(StageError, match="'noise_sigma' must be a number") as err:
        PipelineConfig.from_dict({"input": {"phantom": {"noise_sigma": 10**400}}})
    assert err.value.stage == "input"


def test_phantom_dims_over_the_voxel_cap_are_refused_naming_dims():
    """The cap is 2**27 voxels; the product is taken in Python ints, so no
    dims overflow it."""
    assert MAX_VOXELS == 2**27
    PhantomConfig(dims=(2**7, 2**10, 2**10))
    with pytest.raises(ConfigError, match=re.escape("dims [128, 1024, 1025] hold 134348800 voxels")):
        PhantomConfig(dims=(2**7, 2**10, 2**10 + 1))
    with pytest.raises(StageError, match=re.escape("dims [1000000, 1000000, 1000000] hold")) as err:
        PipelineConfig.from_dict({"input": {"phantom": {"dims": [10**6] * 3}}})
    assert err.value.stage == "input"
    with pytest.raises(StageError, match=re.escape(f"dims [{2**64}, 16, 16] hold")):
        PipelineConfig.from_dict({"input": {"phantom": {"dims": [2**64, 16, 16]}}})


@settings(max_examples=300)
@given(pipeline_configs(), st.data())
def test_one_wrong_value_fails_only_as_a_stage_error(cfg, data):
    d = cfg.to_dict()
    where = data.draw(st.sampled_from(sorted(_values(d))))
    _node(d, where[:-1])[where[-1]] = data.draw(json_values)
    try:
        PipelineConfig.from_dict(d)
    except StageError:
        pass


@settings(max_examples=200)
@given(pipeline_configs(), st.data())
def test_an_unknown_key_in_any_section_is_its_stage_error(cfg, data):
    d = cfg.to_dict()
    where = data.draw(st.sampled_from(sorted(_objects(d))))
    _node(d, where)["unknown"] = data.draw(json_values)
    with pytest.raises(StageError) as err:
        PipelineConfig.from_dict(d)
    assert err.value.stage == (STAGES[where[0]] if where else "pipeline config")


@pytest.mark.parametrize("section", ["input", "boundaries", "shadows", "backend", "infusion", "report"])
def test_a_null_section_is_refused_like_any_other_non_object(section):
    with pytest.raises(StageError, match=f"'{section}' section must be a JSON object, got None") as err:
        PipelineConfig.from_dict({"input": {"phantom": {}}, section: None})
    assert err.value.stage == STAGES[section]


#: Valid values for the fields of each checked record that have no default.
REQUIRED = {
    ConfusionCounts: {"tp": 1, "tn": 1, "fp": 1, "fn": 1},
    MetricsReport: {"method": "m", "iou": 0.5, "sen": 0.5, "acc": 0.5},
    ScheduleParams: {"base_lr": 0.1, "iter": 0, "max_iter": 10},
}

#: Where each config section sits in a pipeline config, and the stage its faults name.
SECTIONS = {
    PhantomConfig: (("input", "phantom"), "input"),
    DpConfig: (("boundaries", "dp"), "boundary source"),
    ShadowConfig: (("shadows", "config"), "shadow source"),
    InfusionConfig: (("infusion",), "infusion"),
}


def _checked_classes(cls=Checked):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub):
            yield sub
        yield from _checked_classes(sub)


def _intervals(tp, value, where=()):
    """(where, interval, number type) of each In that `tp` declares, with
    `where` the tuple index or dict key of an item of `value`, the field's
    value."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        yield from ((where, b, args[0]) for b in tp.__metadata__ if isinstance(b, In))
    elif origin in (typing.Union, types.UnionType):
        for arg in args:
            yield from _intervals(arg, value, where)
    elif origin is tuple and ... not in args:
        for i, arg in enumerate(args):
            yield from _intervals(arg, value[i], (*where, i))
    elif origin is dict:
        for key in value:
            yield from _intervals(args[1], value[key], (*where, key))


def _declared():
    for cls in sorted(_checked_classes(), key=lambda c: c.__name__):
        base = cls(**REQUIRED.get(cls, {}))
        for name, tp in typing.get_type_hints(cls, include_extras=True).items():
            for where, interval, number in _intervals(tp, getattr(base, name)):
                yield pytest.param(cls, name, where, interval, number,
                                   id=f"{cls.__name__}.{name}{list(where) if where else ''}")


def _replaced(value, where, new):
    """`value` with its item at `where` (the whole value at ()) replaced by `new`."""
    if not where:
        return new
    (key,) = where
    if isinstance(value, dict):
        return {**value, key: new}
    return tuple(new if i == key else v for i, v in enumerate(value))


def test_every_range_bound_field_is_declared():
    declared = {(p.values[0], p.values[1]) for p in _declared()}
    assert declared == {(cls, name) for cls, names in (
        (InfusionConfig, "transverse_dilation binarize_threshold min_component_vox"),
        (ShadowConfig, "background_window contrast_threshold min_component_px"),
        (DpConfig, "smoothness max_jump ilm_band rpe_band bm_band inl_band"),
        (PhantomConfig, "dims n_vessels vessel_radius vessel_depth_fraction_range shadow_attenuation "
                        "noise_sigma layer_levels vessel_level"),
        (ConfusionCounts, "tp tn fp fn"),
        (MetricsReport, "iou sen acc auc"),
        (ScheduleParams, "base_lr iter max_iter power"),
    ) for name in names.split()}


@pytest.mark.parametrize("cls, name, where, interval, number", list(_declared()))
def test_each_declared_interval_is_checked_on_construction_and_on_load(cls, name, where, interval, number):
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    lo_open, hi_open = interval[0] == "(", interval[-1] == ")"

    def inside(x):
        return (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)

    def beyond(end, sign):
        return end + sign if number is int else math.nextafter(end, sign * math.inf)

    base = cls(**REQUIRED.get(cls, {}))
    field_value = getattr(base, name)
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    if (f.default, f.default_factory) != (dataclasses.MISSING, dataclasses.MISSING):
        default = field_value
        for key in where:
            default = default[key]
        assert default is None or inside(default)

    accepted, refused = [], []
    for end, sign, is_open in ((lo, -1, lo_open), (hi, 1, hi_open)):
        if math.isinf(end):
            refused += [] if number is int else [end]
        else:
            (refused if is_open else accepted).append(number(end))
            refused.append(number(beyond(end, sign)))
    if number is float:
        refused.append(math.nan)

    def build(value):
        return dataclasses.replace(base, **{name: _replaced(field_value, where, value)})

    for value in accepted:
        try:
            build(value)
        except ConfigError as exc:  # only a rule tying fields together may refuse a closed end
            assert re.fullmatch(r"the RPE band must be the strictly brightest layer|.* must have lo <= hi", str(exc))
    for value in refused:
        # a float field refuses NaN and the infinities as not a number at all
        expected = ("must be a number" if number is float and not math.isfinite(value)
                    else f"must be in {re.escape(interval)}")
        with pytest.raises(ConfigError, match=f"field {name!r}.* {expected}, got "):
            build(value)
        if cls in SECTIONS:
            (*path, key), stage = SECTIONS[cls]
            d = {"input": {"phantom": {}}}
            node = d
            for part in path:
                node = node.setdefault(part, {})
            node[key] = {name: to_json(_replaced(field_value, where, value))}
            with pytest.raises(StageError, match=f"field {name!r}.* {expected}, got ") as err:
                PipelineConfig.from_dict(d)
            assert err.value.stage == stage


def test_a_range_fault_names_the_field_and_its_interval():
    with pytest.raises(StageError, match=re.escape("DP config field 'max_jump' must be in [1, inf), got 0")) as err:
        PipelineConfig.from_dict({"input": {"phantom": {}}, "boundaries": {"dp": {"max_jump": 0}}})
    assert err.value.stage == "boundary source"


def _wrong_type_cases():
    """Each field of each checked record, with a value of the wrong JSON
    type for it: a number for a field that takes strings, else a string."""
    for cls in sorted(_checked_classes(), key=lambda c: c.__name__):
        for name, tp in typing.get_type_hints(cls).items():
            wrong = 0.5 if {tp, *typing.get_args(tp)} & {str, Path} else "x"
            yield pytest.param(cls, name, wrong, id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("cls, name, wrong", list(_wrong_type_cases()))
def test_a_value_of_the_wrong_type_is_refused_on_construction(cls, name, wrong):
    section = getattr(cls, "section", cls.__name__)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{section} field {name!r} must be ")):
        cls(**{**REQUIRED.get(cls, {}), name: wrong})


@pytest.mark.parametrize("cls, d, widened", [
    (DpConfig, {"smoothness": 1, "ilm_band": [2, 0], "bm_band": [0, 1]},
     {"smoothness": 1.0, "ilm_band": (2, 0.0), "bm_band": (0.0, 1.0)}),
    (ShadowConfig, {"background_window": [3, 5], "contrast_threshold": 1},
     {"background_window": (3, 5), "contrast_threshold": 1.0}),
    (PhantomConfig, {"dims": [1, 16, 16], "vessel_radius": 2, "vessel_depth_fraction_range": [0, 1],
                     "layer_levels": {**DEFAULT_LAYER_LEVELS, "vitreous": 0}},
     {"dims": (1, 16, 16), "vessel_radius": 2.0, "vessel_depth_fraction_range": (0.0, 1.0),
      "layer_levels": {**DEFAULT_LAYER_LEVELS, "vitreous": 0.0}}),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_construction_widens_a_value_as_load_does(cls, d, widened):
    # repr tells a list from a tuple and 1 from 1.0, where == does not
    assert repr(cls(**d)) == repr(cls.from_dict(d)) == repr(cls(**widened))


def test_a_warm_class_constructs_without_reading_its_type_hints(monkeypatch):
    ConfusionCounts(tp=1, tn=1, fp=1, fn=1)
    calls = []
    read = typing.get_type_hints
    monkeypatch.setattr(config.typing, "get_type_hints", lambda *a, **k: calls.append(a) or read(*a, **k))
    for _ in range(100):
        ConfusionCounts(tp=1, tn=1, fp=1, fn=1)
    assert calls == []


def test_a_nested_config_given_as_a_record_is_taken_as_it_is():
    dp = DpConfig(max_jump=3)
    assert PipelineConfig.from_dict({"input": {"phantom": {}}, "boundaries": {"dp": dp}}).dp is dp
