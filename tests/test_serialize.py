import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from teamscope.commitcls import CascadeModel, MlStage
from teamscope.errors import DataError
from teamscope.mlcore import (
    LogisticModel,
    TfidfModel,
    feature_importances,
    fit_tfidf,
    forest_votes,
    index_ngrams,
    load_model,
    predict_proba,
    save_model,
    tfidf_transform,
    train_forest,
    train_logreg,
)
from teamscope.mlcore.forest import ForestModel
from teamscope.mlcore.serialize import FORMAT_VERSION, integer, integers, number, numbers, objects, pairs, strings
from teamscope.teamstyle import StyleStage, TeamStyleModel
from teamscope.textnorm import default_lexicon


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {"a": 1, "b": [1.5, 2.5]})
    assert load_model(path, path.read_bytes(), "demo") == {"a": 1, "b": [1.5, 2.5]}


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {})
    with pytest.raises(DataError, match="expected"):
        load_model(path, path.read_bytes(), "other")


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(DataError, match="not a"):
        load_model(path, path.read_bytes(), "demo")


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {})
    raw = path.read_text().replace(f'"version": {FORMAT_VERSION}', '"version": 99')
    path.write_text(raw)
    with pytest.raises(DataError, match="version"):
        load_model(path, path.read_bytes(), "demo")


def test_load_rejects_version_1_and_asks_for_retraining(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "forest", {})
    current = path.read_text()
    for old in range(1, FORMAT_VERSION):
        path.write_text(current.replace(f'"version": {FORMAT_VERSION}', f'"version": {old}'))
        with pytest.raises(DataError, match="retrain"):
            load_model(path, path.read_bytes(), "forest")


def test_model_dicts_hold_their_format_keys():
    # what fitting learned or the training inputs chose, and nothing the code fixes
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
    forest = train_forest(X, [0, 1, 1], n_trees=2, seed=1)
    logreg = train_logreg(X, [0, 1, 1])
    tfidf = fit_tfidf(index_ngrams([["fix", "bug"], ["add", "test"]], 1, 4), max_features=3)
    cascade = CascadeModel(default_lexicon(), [MlStage(tfidf, logreg)] * 3)
    team = TeamStyleModel("forest", [StyleStage([0, 1], forest)] * 3, np.zeros(2), np.ones(2))

    # a forest's file holds its arrays as they are in memory
    assert set(forest.to_dict()) == {"feature", "threshold", "left", "right", "counts", "trees", "n_features"}
    assert {f.name for f in dataclasses.fields(forest)} == set(forest.to_dict())
    assert set(tfidf.to_dict()) == {"terms", "idf"}
    assert set(logreg.to_dict()) == {"weights", "bias", "l2_lambda"}
    assert set(cascade.to_dict()) == {"lexicon", "stages"}
    assert set(cascade.to_dict()["lexicon"]) == {"english", "domain", "stopwords"}
    assert set(cascade.to_dict()["stages"][0]) == {"tfidf", "logreg"}
    assert set(team.to_dict()) == {"algorithm", "registry_version", "means", "stds", "stages"}
    assert set(team.to_dict()["stages"][0]) == {"selected", "model"}


def test_logistic_reload_bit_identical_predictions(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    y = (X[:, 2] > 0).astype(int)
    model = train_logreg(X, y)
    path = tmp_path / "lr.json"
    save_model(path, "logreg", model.to_dict())
    clone = LogisticModel.from_dict(load_model(path, path.read_bytes(), "logreg"))
    assert np.array_equal(clone.weights, model.weights)
    probs = predict_proba(model, X)
    assert np.array_equal(predict_proba(clone, X), probs)


def test_forest_reload_bit_identical_predictions(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 5))
    y = (X[:, 0] + X[:, 4] > 0).astype(int)
    model = train_forest(X, y, n_trees=12, seed=3)
    path = tmp_path / "rf.json"
    save_model(path, "forest", model.to_dict())
    clone = ForestModel.from_dict(load_model(path, path.read_bytes(), "forest"))
    assert np.array_equal(forest_votes(clone, X), forest_votes(model, X))
    assert np.array_equal(feature_importances(clone), feature_importances(model))


def test_tfidf_reload_bit_identical_vectors(tmp_path):
    docs = [["fix", "bug", "now"], ["add", "test", "case"], ["fix", "test"]]
    index = index_ngrams(docs, 1, 2)
    model = fit_tfidf(index, max_features=8)
    path = tmp_path / "tfidf.json"
    save_model(path, "tfidf", model.to_dict())
    clone = TfidfModel.from_dict(load_model(path, path.read_bytes(), "tfidf"))
    X = tfidf_transform(model, index)
    assert X.shape == (len(docs), model.dim) and np.count_nonzero(X) > 0
    assert np.array_equal(tfidf_transform(clone, index), X)
    for i, row in enumerate(X):
        assert np.array_equal(tfidf_transform(clone, index.take([i]))[0], row)


def test_serialized_form_is_stable_bytes(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = (X[:, 1] > 0).astype(int)
    model = train_logreg(X, y)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, "logreg", model.to_dict())
    save_model(p2, "logreg", model.to_dict())
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "reader, value",
    [
        (number, True), (number, "1"), (number, [1.0]),
        (integer, False), (integer, 2.0), (integer, [2]),
        (numbers, 1.0), (numbers, [1.0, True]), (numbers, [[1.0]]),
        (integers, 3), (integers, [1, 1.0]), (integers, [1, False]),
        (strings, "fix"), (strings, ["fix", 1]), (strings, {"fix": 1}),
        (lambda v, name: pairs(v, name), [1, 2]),
        (lambda v, name: pairs(v, name), [[1, 2], [3]]),
        (lambda v, name: pairs(v, name), [[1, 2], [3, 4, 5]]),
        (lambda v, name: pairs(v, name), [[1, True]]),
        (objects, {}), (objects, [{}, []]),
        (number, float("nan")), (number, float("-inf")), (numbers, [1.0, float("inf")]),
    ],
)
def test_readers_refuse_other_json_types_and_name_the_field(reader, value):
    with pytest.raises(DataError, match="^the field must "):
        reader(value, "the field")


def test_readers_keep_the_values_they_accept():
    assert number(3, "x") == 3.0 and type(number(3, "x")) is float
    assert integer(7, "x") == 7
    assert numbers([1, 2.5], "x").tolist() == [1.0, 2.5] and numbers([], "x").dtype == np.float64
    assert integers([-1, 4], "x").tolist() == [-1, 4] and integers([-1, 4], "x").dtype == np.int64
    assert pairs([[1, 2], [3, 4]], "x").tolist() == [[1, 2], [3, 4]]
    assert pairs([], "x").shape == (0, 2)
    assert strings(["a", "b"], "x") == ["a", "b"]


def test_readme_states_the_format_version():
    # the version it writes, the versions it refuses, and the version field it reads
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    v = FORMAT_VERSION
    assert re.findall(r"Model files are format version (\d+)\.", readme) == [str(v)]
    assert re.findall(r"Files of format versions 1 to (\d+) are refused", readme) == [str(v - 1)]
    assert re.findall(r"a `version` other than the JSON integer (\d+) \(`(\d+)\.0` too\)", readme) == [(str(v),) * 2]
