"""Config JSON codec: exact round trips, typed rejection, fuzzing."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import InputError, RouterConfig, SparsityPolicy, TrainSchedule, VenomParams

CONFIGS = (SparsityPolicy, TrainSchedule)
VENOM = {"v": 4, "m": 8}


def test_round_trip_every_field():
    pol = SparsityPolicy(
        w1_sparse=True, w2t_sparse=True, act_mode="venom", venom=VenomParams(4, 8),
        router=RouterConfig(num_experts=2, top_k=1, align_m=8),
        weight_mode=sfk.GREEDY_MAGNITUDE,
    )
    doc = json.loads(sfk.config_to_json(pol))
    assert set(doc) == {f.name for f in dataclasses.fields(SparsityPolicy)}
    assert doc["router"] == {"num_experts": 2, "top_k": 1, "align_m": 8}
    assert sfk.config_from_json(SparsityPolicy, sfk.config_to_json(pol)) == pol
    sched = sfk.build_schedule(total=10, sparse=4, warmup=2, sparse_policy=pol)
    assert sfk.config_from_json(TrainSchedule, sfk.config_to_json(sched)) == sched


def test_absent_keys_take_dataclass_defaults():
    assert sfk.config_from_json(SparsityPolicy, "{}") == sfk.DENSE_POLICY
    doc = json.dumps({"act_mode": "venom", "venom": VENOM, "router": {"num_experts": 2}})
    pol = sfk.config_from_json(SparsityPolicy, doc)
    assert pol.router == RouterConfig(num_experts=2)
    sched = sfk.config_from_json(TrainSchedule, '{"total_steps": 5000, "sparse_steps": 10}')
    assert sched == sfk.build_schedule(total=5000, sparse=10)


@pytest.mark.parametrize(
    "cls, doc, field",
    [
        (SparsityPolicy, {"w1_sparse": "false"}, "w1_sparse"),
        (SparsityPolicy, {"act_mode": "venom", "venom": {"v": 4}}, "venom.m"),
        (SparsityPolicy, {"act_mode": "venom", "venom": {"v": 4, "n": 2, "m": 8}}, "venom.n"),
        (SparsityPolicy, {"act_mode": "venom", "venom": VENOM, "router": {"num_experts": 2.7}},
         "router.num_experts"),
        (TrainSchedule, {"total_steps": "10", "sparse_steps": 0, "venom_warmup": 0},
         "total_steps"),
        (TrainSchedule, {"total_steps": True, "sparse_steps": 0, "venom_warmup": 0},
         "total_steps"),
        (SparsityPolicy, {"w1_sparse": True, "w2_dense": True}, "w2_dense"),
        (SparsityPolicy, {"venom": [4, 2, 8], "act_mode": "venom"}, "venom"),
        (TrainSchedule, {"sparse_steps": 0}, "total_steps"),
        (TrainSchedule, {"total_steps": 10, "sparse_steps": 0, "venom_warmup": 0,
                         "sparse_policy": {"w1_sparse": 1}}, "sparse_policy.w1_sparse"),
    ],
    ids=["quoted-bool", "venom-without-m", "venom-with-n", "float-int", "string-int", "bool-int",
         "unknown-key", "array-for-object", "missing-required", "nested-bool"],
)
def test_rejects_with_dotted_field_name(cls, doc, field):
    with pytest.raises(InputError, match=f"'{field}'"):
        sfk.config_from_json(cls, json.dumps(doc))


def test_lists_decode_item_by_item():
    two = json.dumps([VENOM, dict(VENOM, m=16)])
    want = [VenomParams(4, 8), VenomParams(4, 16)]
    assert sfk.config_from_json(list[VenomParams], two) == want
    assert sfk.config_from_json(list[VenomParams], "[]") == []
    with pytest.raises(InputError, match=r"'\[1\]\.m'"):
        sfk.config_from_json(list[VenomParams], json.dumps([VENOM, dict(VENOM, m="8")]))
    with pytest.raises(InputError, match=r"list\[VenomParams\] JSON must be an array"):
        sfk.config_from_json(list[VenomParams], json.dumps(VENOM))


@pytest.mark.parametrize(
    "cls, doc",
    [
        (SparsityPolicy, {"keep_all": False}),
        (SparsityPolicy, {"act_mode": "venom", "venom": VENOM,
                          "router": {"num_experts": 2, "group_pad": "zero"}}),
        (TrainSchedule, {"total_steps": 10, "sparse_steps": 0, "order": "sparse_first"}),
        (TrainSchedule, {"total_steps": 10, "sparse_steps": 0, "dense_policy": {}}),
    ],
    ids=["keep_all", "group_pad", "order", "dense_policy"],
)
def test_rejects_retired_keys(cls, doc):
    with pytest.raises(InputError, match="unknown field"):
        sfk.config_from_json(cls, json.dumps(doc))


@pytest.mark.parametrize("text", ["", "{", "[1, 2]", "null", "3", "[" * 100_000])
def test_rejects_non_objects(text):
    with pytest.raises(InputError):
        sfk.config_from_json(SparsityPolicy, text)


# ------------------------------------------------------------------ fuzzing ---

FIELD_NAMES = sorted(
    {f.name for cls in (SparsityPolicy, TrainSchedule, RouterConfig, VenomParams)
     for f in dataclasses.fields(cls)}
)
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(sfk.MODES + ("dense", "act24", "venom"))
    | st.integers(0, 20)
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), kids, max_size=5),
    max_leaves=12,
)
policies = st.builds(sfk.ablation_policy, st.sampled_from(sfk.ABLATIONS), st.sampled_from(sfk.MODES))
schedules = st.builds(
    lambda a, b, c, pol: sfk.build_schedule(total=a + b + c, sparse=a, warmup=b, sparse_policy=pol),
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 20), st.none() | policies,
)


def _dict_nodes(doc):
    if isinstance(doc, dict):
        yield doc
        for v in doc.values():
            yield from _dict_nodes(v)


@st.composite
def near_valid_docs(draw, cls):
    """A valid document of cls with a few keys deleted or overwritten."""
    doc = json.loads(sfk.config_to_json(draw(policies if cls is SparsityPolicy else schedules)))
    for _ in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(list(_dict_nodes(doc))))
        key = draw(st.sampled_from(sorted(node) + FIELD_NAMES) | st.text(max_size=4))
        if node and draw(st.booleans()):
            node.pop(draw(st.sampled_from(sorted(node))))
        else:
            node[key] = draw(json_values)
    return doc


@settings(max_examples=400)
@given(st.data())
def test_fuzz_typed_error_or_exact_round_trip(data):
    cls = data.draw(st.sampled_from(CONFIGS))
    text = data.draw(
        st.text(max_size=20)
        | json_values.map(json.dumps)
        | near_valid_docs(cls).map(json.dumps)
    )
    try:
        obj = sfk.config_from_json(cls, text)
    except InputError:
        return
    assert type(obj) is cls
    assert sfk.config_from_json(cls, sfk.config_to_json(obj)) == obj
