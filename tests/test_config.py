"""The pipeline config's JSON layout read both ways: `to_dict` writes what
`from_dict` reads back, and a malformed config fails as a StageError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade.cascade import InfusionConfig, VesselBackendConfig
from oct_cascade.enface import ShadowConfig
from oct_cascade.layers import COST_KINDS, DpConfig
from oct_cascade.phantom import DEFAULT_LAYER_LEVELS, PhantomConfig
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
    cost_kinds=st.tuples(*[st.sampled_from(COST_KINDS)] * 4),
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


def test_an_int_beyond_the_float_range_is_refused_as_a_number():
    with pytest.raises(StageError, match="'noise_sigma' must be a number") as err:
        PipelineConfig.from_dict({"input": {"phantom": {"noise_sigma": 10**400}}})
    assert err.value.stage == "input"


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
