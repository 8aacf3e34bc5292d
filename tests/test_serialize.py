import json

import numpy as np
import pytest

from satlink.ingest import encode_features
from satlink.model import (
    GbmHyperParams,
    ModelFormatError,
    SchemaMismatchError,
    load_model,
    predict_proba,
    predict_value,
    save_model,
    train_gbm,
    train_regressor,
)
from satlink.model.gbm import MODEL_FORMAT_VERSION

from conftest import make_matrix, separable_toy


@pytest.fixture(scope="module")
def trained():
    matrix = separable_toy()
    model = train_gbm(matrix, GbmHyperParams(n_rounds=12, max_depth=4))
    return matrix, model


class TestRoundTrip:
    def test_predictions_bit_identical_after_round_trip(self, trained, tmp_path):
        matrix, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)

        rng = np.random.default_rng(0)
        rows = make_matrix(rng.uniform(-2, 12, size=(1000, 2)))
        assert np.array_equal(predict_proba(model, rows), predict_proba(loaded, rows))
        assert loaded.hyperparams == model.hyperparams
        assert loaded.train_loss == model.train_loss

    def test_save_is_byte_deterministic(self, trained, tmp_path):
        _, model = trained
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_regressor_round_trip(self, tmp_path):
        matrix = make_matrix(np.random.default_rng(3).normal(size=(60, 2)), y_cnr=np.linspace(0, 10, 60))
        model = train_regressor(matrix, GbmHyperParams(n_rounds=8))
        path = tmp_path / "reg.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(predict_value(model, matrix), predict_value(loaded, matrix))

    def test_vocab_survives_round_trip(self, tmp_path):
        from test_ingest import as_log, record

        matrix, vocab = encode_features(
            as_log([record(minute=m, flight_id=f"F{m % 2}", cnr=4.0 + 2.0 * m) for m in range(6)])
        )
        model = train_gbm(matrix, GbmHyperParams(n_rounds=0))
        path = tmp_path / "vocab.json"
        save_model(model, path)
        assert load_model(path).vocab == vocab


def corrupt(model, tmp_path, edit):
    """Save ``model``, apply ``edit`` to its JSON data, and return the path."""
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def first_node(tree, leaf):
    return next(i for i, f in enumerate(tree["feature"]) if (f < 0) == leaf)


class TestFormatErrors:
    def test_truncated_file_rejected(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)

    def test_version_bump_rejected_explicitly(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        data["format_version"] = MODEL_FORMAT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_missing_key_rejected(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        del data["trees"]
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_non_finite_leaf_rejected(self, trained, tmp_path):
        _, model = trained
        path = tmp_path / "model.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        data["trees"][0][0]["value"][0] = 1e400  # becomes Infinity on load
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("threshold", [float("nan"), 1e400])
    def test_non_finite_threshold_rejected(self, trained, tmp_path, threshold):
        def edit(data):
            tree = data["trees"][0][0]
            tree["threshold"][first_node(tree, leaf=False)] = threshold

        with pytest.raises(ModelFormatError, match="non-finite threshold"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_child_pointing_back_rejected(self, trained, tmp_path):
        def edit(data):
            tree = data["trees"][0][0]
            node = first_node(tree, leaf=False)
            tree["left"][node] = node

        with pytest.raises(ModelFormatError, match="forward"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_child_out_of_range_rejected(self, trained, tmp_path):
        def edit(data):
            tree = data["trees"][0][0]
            tree["right"][first_node(tree, leaf=False)] = len(tree["feature"])

        with pytest.raises(ModelFormatError, match="forward"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_node_shared_by_two_splits_rejected(self, trained, tmp_path):
        # Children still point forward, but the root's right child is now
        # also its left one and the old right subtree hangs from no split.
        def edit(data):
            tree = next(t for t in data["trees"][0] if t["feature"][0] >= 0)
            tree["right"][0] = tree["left"][0]

        with pytest.raises(ModelFormatError, match="exactly one split"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_leaf_with_children_rejected(self, trained, tmp_path):
        def edit(data):
            tree = data["trees"][0][0]
            tree["left"][first_node(tree, leaf=True)] = len(tree["feature"]) - 1

        with pytest.raises(ModelFormatError, match="leaf"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_feature_out_of_range_rejected(self, trained, tmp_path):
        def edit(data):
            tree = data["trees"][0][0]
            tree["feature"][first_node(tree, leaf=False)] = 99

        with pytest.raises(ModelFormatError, match="feature"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_round_missing_trees_rejected(self, trained, tmp_path):
        def edit(data):
            data["trees"][0] = data["trees"][0][:2]

        with pytest.raises(ModelFormatError, match="round 0 has 2 trees"):
            load_model(corrupt(trained[1], tmp_path, edit))

    def test_base_score_count_rejected(self, trained, tmp_path):
        def edit(data):
            data["base_scores"] = data["base_scores"][:1]

        with pytest.raises(ModelFormatError, match="base scores"):
            load_model(corrupt(trained[1], tmp_path, edit))


class TestSchemaGuard:
    def test_schema_mismatch_detected(self, trained):
        _, model = trained
        other = make_matrix(np.zeros((2, 3)), columns=["a", "b", "c"])
        with pytest.raises(SchemaMismatchError):
            predict_proba(model, other)
