"""Property: every reader of outside input either returns or raises a
FormatError naming the file. The three JSON loaders (sampling config,
mixture model, corpus manifest) are fed any JSON value at a config key, a
mixture field or a manifest timestamp; the counts file and the three frame
readers are fed arbitrary bytes and well-formed files holding any value."""

import json
import math
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar.cli import load_config_file, resolve_config
from pseudoradar.errors import FormatError
from pseudoradar.gmm import load_counts, load_gmm
from pseudoradar.pointcloud import (COMPACT_MAGIC, PointCloudFrame, load_corpus,
                                    read_frame_bin, read_frame_csv, read_frame_nuscenes_bin,
                                    write_corpus)
from pseudoradar.sampling import MAX_NEIGHBOR_COUNT, SamplingConfig

CONFIG_TYPES = typing.get_type_hints(SamplingConfig)

# integers past the float64 range, of either sign
huge_integers = st.builds(lambda e, s: s * 10**e, st.integers(300, 400),
                          st.sampled_from([1, -1]))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4), huge_integers,
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                      max_leaves=6)
# JSON text of a value; json.dumps writes NaN and Infinity, which Python's
# reader takes, and an integer past the 4,300-digit limit is written by hand
value_texts = st.one_of(values.map(json.dumps),
                        st.integers(4301, 4400).map(lambda n: "9" * n))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("json-input")


def loads_or_names_file(load, path):
    """``load(path)``, or None after a FormatError that names ``path``."""
    try:
        return load(path)
    except FormatError as exc:
        assert str(path) in str(exc)
        return None


@given(st.dictionaries(st.sampled_from(sorted(CONFIG_TYPES)), value_texts, max_size=4))
@settings(max_examples=150, deadline=None)
def test_config_loads_or_names_the_file(workdir, entries):
    path = workdir / "config.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in entries.items()) + "}")
    doc = loads_or_names_file(load_config_file, path)
    if doc is None:
        return
    for key, value in doc.items():
        if CONFIG_TYPES[key] is int:
            assert type(value) is int
        else:
            assert math.isfinite(float(value))


@given(st.sampled_from(["weight", "mean", "var"]), value_texts)
@settings(max_examples=150, deadline=None)
def test_mixture_model_loads_or_names_the_file(workdir, key, text):
    fields = {"weight": "1.0", "mean": "20.0", "var": "4.0", key: text}
    path = workdir / "model.json"
    path.write_text('{"components": [{%s}]}'
                    % ", ".join(f'"{k}": {v}' for k, v in fields.items()))
    loads_or_names_file(load_gmm, path)


@given(value_texts)
@settings(max_examples=150, deadline=None)
def test_manifest_loads_or_names_the_file(workdir, text):
    corpus = workdir / "corpus"
    write_corpus(corpus, [PointCloudFrame("f0", 1.5, [[1.0, 2.0, 3.0]], [4.0])])
    manifest = corpus / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"timestamp": 1.5', f'"timestamp": {text}'))
    frames = loads_or_names_file(load_corpus, corpus)
    if frames is not None:
        assert math.isfinite(frames[0].timestamp)


@pytest.mark.parametrize("key, value", [
    ("neighbor_count", 1), ("neighbor_count", MAX_NEIGHBOR_COUNT),
    ("seed", 0), ("seed", -1), ("seed", 2**64),
])
def test_integer_config_key_in_bounds_resolves(key, value):
    sampling, resolved = resolve_config({key: value}, {})
    assert getattr(sampling, key) == resolved[key] == value


@pytest.mark.parametrize("value", [-1, 0, MAX_NEIGHBOR_COUNT + 1, 100_000])
def test_neighbor_count_out_of_bounds_is_refused_by_name(value):
    message = f"neighbor_count must be in \\[1, {MAX_NEIGHBOR_COUNT}\\], got {value}"
    with pytest.raises(ValueError, match=message):
        SamplingConfig(neighbor_count=value)
    with pytest.raises(ValueError, match=message):
        resolve_config({"neighbor_count": value}, {})


def tables(columns, **floats):
    """Up to four rows of ``columns`` values, NaN and the infinities included."""
    return st.lists(st.lists(st.floats(**floats), min_size=columns, max_size=columns),
                    max_size=4)


def csv_file(width, table):
    header = "x,y,z,intensity" + (",vx,vy" if width == 6 else "")
    return "".join(line + "\n" for line in [header, *(",".join(map(repr, r)) for r in table)])


# reader -> well-formed files of its format, each value anything the format holds
READERS = {
    "counts": (load_counts, st.lists(st.integers() | huge_integers, max_size=4).map(
        lambda counts: "".join(f"{c}\n" for c in counts).encode())),
    "csv": (read_frame_csv, st.sampled_from([4, 6]).flatmap(
        lambda width: tables(width).map(lambda t: csv_file(width, t).encode()))),
    "bin": (read_frame_bin, tables(6).map(
        lambda t: COMPACT_MAGIC + struct.pack("<Q", len(t))
        + np.array(t, dtype="<f8").reshape(-1, 6).tobytes())),
    "nuscenes": (read_frame_nuscenes_bin, tables(5, width=32).map(
        lambda t: np.array(t, dtype="<f4").reshape(-1, 5).tobytes())),
}


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_reader_returns_or_names_the_file(workdir, name, data):
    read, well_formed = READERS[name]
    path = workdir / f"input.{name}"
    path.write_bytes(data.draw(st.binary(max_size=64) | well_formed))
    result = loads_or_names_file(read, path)
    if result is None:
        return
    if name == "counts":
        assert all(type(c) is int and c > 0 for c in result)
    else:
        assert result.frame_id == "input"
        assert np.isfinite(result.xyz).all() and (result.intensity >= 0).all()
