import numpy as np
import pytest

from teamscope.errors import SchemaError
from teamscope.mlcore import (
    LogisticModel,
    TfidfModel,
    fit_tfidf,
    forest_votes,
    load_model,
    predict_proba,
    save_model,
    tfidf_transform,
    train_forest,
    train_logreg,
)
from teamscope.mlcore.forest import ForestModel
from teamscope.mlcore.serialize import FORMAT_VERSION


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {"a": 1, "b": [1.5, 2.5]})
    assert load_model(path, "demo") == {"a": 1, "b": [1.5, 2.5]}


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {})
    with pytest.raises(SchemaError, match="expected"):
        load_model(path, "other")


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(SchemaError, match="not a"):
        load_model(path, "demo")


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "demo", {})
    raw = path.read_text().replace(f'"version": {FORMAT_VERSION}', '"version": 99')
    path.write_text(raw)
    with pytest.raises(SchemaError, match="version"):
        load_model(path, "demo")


def test_load_rejects_version_1_and_asks_for_retraining(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, "forest", {})
    raw = path.read_text().replace(f'"version": {FORMAT_VERSION}', '"version": 1')
    path.write_text(raw)
    with pytest.raises(SchemaError, match="retrain"):
        load_model(path, "forest")


def test_logistic_reload_bit_identical_predictions(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    y = (X[:, 2] > 0).astype(int)
    model = train_logreg(X, y)
    path = tmp_path / "lr.json"
    save_model(path, "logreg", model.to_dict())
    clone = LogisticModel.from_dict(load_model(path, "logreg"))
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
    clone = ForestModel.from_dict(load_model(path, "forest"))
    assert np.array_equal(forest_votes(clone, X), forest_votes(model, X))
    assert np.array_equal(clone.importances_raw, model.importances_raw)


def test_tfidf_reload_bit_identical_vectors(tmp_path):
    docs = [["fix", "bug", "now"], ["add", "test", "case"], ["fix", "test"]]
    model = fit_tfidf(docs, max_features=8, ngram_range=(1, 2))
    path = tmp_path / "tfidf.json"
    save_model(path, "tfidf", model.to_dict())
    clone = TfidfModel.from_dict(load_model(path, "tfidf"))
    X = tfidf_transform(model, docs)
    assert X.shape == (len(docs), model.dim) and np.count_nonzero(X) > 0
    assert np.array_equal(tfidf_transform(clone, docs), X)
    for doc, row in zip(docs, X):
        assert np.array_equal(tfidf_transform(clone, [doc])[0], row)


def test_serialized_form_is_stable_bytes(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = (X[:, 1] > 0).astype(int)
    model = train_logreg(X, y)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, "logreg", model.to_dict())
    save_model(p2, "logreg", model.to_dict())
    assert p1.read_bytes() == p2.read_bytes()
