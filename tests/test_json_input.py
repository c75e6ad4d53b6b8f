"""Property: the three JSON loaders (sampling config, mixture model, corpus
manifest) either return or raise a FormatError naming the file, whatever
JSON value sits at a config key, a mixture field or a manifest timestamp."""

import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoradar.cli import load_config_file
from pseudoradar.errors import FormatError
from pseudoradar.gmm import load_gmm
from pseudoradar.pointcloud import PointCloudFrame, load_corpus, write_corpus
from pseudoradar.sampling import SamplingConfig

CONFIG_TYPES = typing.get_type_hints(SamplingConfig)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    # integers past the float64 range, of either sign
    st.builds(lambda e, s: s * 10**e, st.integers(300, 400), st.sampled_from([1, -1])),
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
