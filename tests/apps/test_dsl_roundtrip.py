"""DSL acceptance: all registered models round-trip, schema errors carry paths.

The tentpole's (a): every one of the paper's registered application
models exports to YAML, reloads, and compares equal — plus the schema's
error paths (``WorkloadError`` with ``path.to.the.field`` context, never
a bare ``KeyError``/``TypeError``) and the corpus-spec round-trip.
"""

import pytest

from repro.apps.dsl import (
    corpus_from_dict,
    corpus_to_dict,
    default_corpus_spec,
    dump_workload_yaml,
    dumps_workload_yaml,
    load_corpus_yaml,
    load_workload_yaml,
    loads_corpus_yaml,
    loads_workload_yaml,
    workload_from_dict,
)
from repro.apps.dsl.yamlio import dump_canonical_yaml
from repro.apps.registry import get_workload, list_workloads
from repro.errors import WorkloadError


@pytest.mark.parametrize("name", list_workloads())
def test_registered_model_round_trips(name):
    wl = get_workload(name)
    text = dumps_workload_yaml(wl)
    reloaded = loads_workload_yaml(text, source=name)
    assert reloaded == wl
    assert dumps_workload_yaml(reloaded) == text


def test_file_round_trip(tmp_path):
    wl = get_workload("lulesh")
    path = dump_workload_yaml(wl, tmp_path / "lulesh.yaml")
    assert load_workload_yaml(path) == wl


def test_workload_equality_semantics():
    a = get_workload("minife")
    b = get_workload("minife")
    assert a == b and a is not b
    assert a != get_workload("hpcg")
    assert a != "minife"  # NotImplemented falls back to False
    assert hash(a) != hash(b)  # identity hashing is retained
    assert a != b.replace(mlp=b.mlp + 1.0)


# -- schema error paths --------------------------------------------------------


def _minimal():
    return {
        "name": "t",
        "phases": [{"name": "p", "compute_time": 1.0}],
        "objects": [{
            "site": {"name": "o", "image": "a.x", "stack": ["f"]},
            "size": 64,
        }],
    }


def test_loads_rejects_invalid_yaml():
    with pytest.raises(WorkloadError, match="invalid YAML"):
        loads_workload_yaml("name: [unclosed")
    with pytest.raises(WorkloadError, match="expected a YAML mapping"):
        loads_workload_yaml("- just\n- a list\n")


def test_load_missing_file():
    with pytest.raises(WorkloadError, match="cannot read workload file"):
        load_workload_yaml("/nonexistent/wl.yaml")


def test_unknown_field_names_path():
    data = _minimal()
    data["bogus"] = 1
    with pytest.raises(WorkloadError, match=r"unknown field\(s\) \['bogus'\]"):
        workload_from_dict(data)


def test_missing_required_fields():
    with pytest.raises(WorkloadError, match="missing required field 'phases'"):
        workload_from_dict({"name": "t", "objects": []})
    data = _minimal()
    del data["objects"][0]["size"]
    with pytest.raises(WorkloadError, match="missing required field 'size'"):
        workload_from_dict(data)


def test_type_errors_name_the_field_path():
    data = _minimal()
    data["objects"][0]["size"] = "big"
    with pytest.raises(WorkloadError,
                       match=r"objects\[0\]\.size: expected an integer"):
        workload_from_dict(data)
    data = _minimal()
    data["phases"][0]["compute_time"] = True  # bools are not numbers
    with pytest.raises(WorkloadError,
                       match=r"phases\[0\]\.compute_time: expected a number"):
        workload_from_dict(data)
    data = _minimal()
    data["objects"][0]["site"]["stack"] = ["f", 3]
    with pytest.raises(WorkloadError,
                       match=r"site\.stack\[1\]: expected a string frame"):
        workload_from_dict(data)


def test_semantic_errors_come_from_constructors():
    data = _minimal()
    data["objects"][0]["size"] = -1
    with pytest.raises(WorkloadError, match="size must be > 0"):
        workload_from_dict(data)
    data = _minimal()
    data["objects"][0]["access"] = {
        "ghost": {"load_rate": 1.0, "accessor": ""}}
    with pytest.raises(WorkloadError, match="unknown phases"):
        workload_from_dict(data)


def test_access_rejects_unknown_keys():
    data = _minimal()
    data["objects"][0]["access"] = {"p": {"load_rate": 1.0, "typo": 2}}
    with pytest.raises(WorkloadError, match=r"access\.p: unknown field\(s\)"):
        workload_from_dict(data)


# -- corpus spec round-trip ----------------------------------------------------


def test_corpus_spec_round_trips():
    spec = default_corpus_spec()
    data = corpus_to_dict(spec)
    assert corpus_from_dict(data) == spec
    text = dump_canonical_yaml(data)
    assert loads_corpus_yaml(text) == spec
    assert dump_canonical_yaml(corpus_to_dict(loads_corpus_yaml(text))) == text


def test_corpus_spec_file_round_trip(tmp_path):
    spec = default_corpus_spec()
    path = tmp_path / "corpus.yaml"
    path.write_text(dump_canonical_yaml(corpus_to_dict(spec)))
    assert load_corpus_yaml(path) == spec
    with pytest.raises(WorkloadError, match="cannot read corpus spec"):
        load_corpus_yaml(tmp_path / "missing.yaml")


def test_corpus_spec_errors_name_paths():
    data = corpus_to_dict(default_corpus_spec())
    data["bogus_section"] = {}
    with pytest.raises(WorkloadError, match=r"unknown section\(s\)"):
        corpus_from_dict(data)
    data = corpus_to_dict(default_corpus_spec())
    del data["objects"]["size_bytes"]
    with pytest.raises(WorkloadError,
                       match="objects: missing distribution 'size_bytes'"):
        corpus_from_dict(data)
    data = corpus_to_dict(default_corpus_spec())
    data["jobs"]["per_node"] = {"kind": "uniform", "low": 3, "high": 1}
    with pytest.raises(WorkloadError, match=r"jobs\.per_node: .*low 3 > high 1"):
        corpus_from_dict(data)
    data = corpus_to_dict(default_corpus_spec())
    data["access"]["patterns"] = []
    with pytest.raises(WorkloadError, match="non-empty list of patterns"):
        corpus_from_dict(data)
    data = corpus_to_dict(default_corpus_spec())
    data["arrival"] = {"teleport": 1.0}
    with pytest.raises(WorkloadError, match="unknown arrival policy"):
        corpus_from_dict(data)
    data = corpus_to_dict(default_corpus_spec())
    data["energy"] = {"dram": -1.0}
    with pytest.raises(WorkloadError, match="negative pJ/byte"):
        corpus_from_dict(data)


def test_corpus_spec_more_error_paths():
    def bad(mutate, match):
        data = corpus_to_dict(default_corpus_spec())
        mutate(data)
        with pytest.raises(WorkloadError, match=match):
            corpus_from_dict(data)

    bad(lambda d: d.update(jobs="nope"), r"jobs: expected a mapping")
    bad(lambda d: d["corpus"].update(name=7), r"corpus\.name: expected a string")
    bad(lambda d: d["jobs"].update(per_node="x"),
        "expected a distribution mapping or a number")
    bad(lambda d: d["jobs"].update(per_node={"low": 1, "high": 2}),
        "distribution needs a 'kind' field")
    bad(lambda d: d["jobs"].update(per_node={"kind": "constant", "value": 1,
                                             "x": 2}),
        "constant distribution needs exactly 'value'")
    bad(lambda d: d["access"]["patterns"].__setitem__(0, "stream"),
        r"patterns\[0\]: expected a mapping")
    bad(lambda d: d["access"]["patterns"][0].update(teleports=1),
        r"patterns\[0\]: unknown field\(s\)")
    bad(lambda d: d["access"]["patterns"][0].pop("intensity"),
        "need 'name' and 'intensity'")
    bad(lambda d: d["access"]["patterns"][0].update(kind="zigzag"),
        "unknown kind 'zigzag'")
    bad(lambda d: d["access"]["patterns"][0].update(weight=0),
        "weight must be > 0")
    bad(lambda d: d["access"]["patterns"].append(
            dict(d["access"]["patterns"][0])),
        "duplicate pattern names")
    bad(lambda d: d["objects"].update(whole_run_fraction=1.5),
        r"whole_run_fraction must be in \[0, 1\]")
    bad(lambda d: d["objects"].update(activity=0.0),
        r"activity must be in \(0, 1\]")
    bad(lambda d: d.update(arrival={}),
        "non-empty mapping of policy -> weight")
    bad(lambda d: d.update(arrival={"start": 0}),
        "'start': weight must be > 0")
    bad(lambda d: d.update(energy=[]), "non-empty mapping of tier")
    bad(lambda d: d.update(energy={3: 1.0}), "tier names must be strings")
    bad(lambda d: d.update(energy={"dram": "hot"}),
        r"energy\.dram: expected a number")


def test_bare_numbers_mean_constant_distributions():
    data = corpus_to_dict(default_corpus_spec())
    data["machine"]["mlp"] = 4.5
    spec = corpus_from_dict(data)
    assert spec.mlp.kind == "constant"
    assert spec.mlp.sample(None) == 4.5  # constants never touch the rng
