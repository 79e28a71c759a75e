"""Tests for config parsing, validation, hashing, and stage seeds."""

import pytest

from sdalab import config as config_mod
from sdalab import data, feedback, nn
from sdalab.config import ExperimentConfig, apply_overrides, parse_config_text, stage_seed
from sdalab.errors import ConfigError


class TestParsing:
    def test_basic_lines(self):
        flat = parse_config_text(
            """
            # a comment
            dataset.kind = moons
            adapt.epochs = 12   # trailing comment
            rld.enabled = true
            model.hidden = [16, 8]
            adapt.learning_rate = 0.005
            """
        )
        assert flat == {
            "dataset.kind": "moons",
            "adapt.epochs": 12,
            "rld.enabled": True,
            "model.hidden": [16, 8],
            "adapt.learning_rate": 0.005,
        }

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a key value\n")

    def test_overrides_win(self):
        flat = apply_overrides({"adapt.epochs": 5}, ["adapt.epochs=9", "rld.p=0.2"])
        assert flat == {"adapt.epochs": 9, "rld.p": 0.2}

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["adapt.epochs"])


class TestValidation:
    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="rld.q"):
            ExperimentConfig({"rld.q": 1, "adapt.epochs": 3})

    def test_defaults_fill_in(self):
        cfg = ExperimentConfig({})
        assert cfg.flat["adapt.batch_b"] == 16
        assert cfg.flat["adapt.batch_mu"] == 7
        assert cfg.flat["rld.p"] == 0.4

    def test_type_coercion(self):
        cfg = ExperimentConfig({"adapt.learning_rate": 1, "adapt.epochs": 3.0})
        assert cfg.flat["adapt.learning_rate"] == 1.0
        assert cfg.flat["adapt.epochs"] == 3

    def test_seed_shorthand(self):
        assert ExperimentConfig({"run.seeds": 4}).seeds() == [0, 1, 2, 3]

    def test_bad_types_rejected(self):
        for key, value in [
            ("adapt.epochs", "three"),
            ("rld.enabled", 1),
            ("model.hidden", [1.5]),
            ("dataset.kind", 7),
        ]:
            with pytest.raises(ConfigError):
                ExperimentConfig({key: value})

    def test_k_requires_rld(self):
        with pytest.raises(ConfigError, match="rld.enabled"):
            ExperimentConfig({"adapt.k": 3})
        ExperimentConfig({"adapt.k": 3, "rld.enabled": True})  # fine

    def test_binary_rld_strategy_checked_only_when_retrieving(self):
        rld = {"dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3}
        with pytest.raises(ConfigError, match="rld.strategy=class_aware_random"):
            ExperimentConfig(rld)
        ExperimentConfig({**rld, "rld.strategy": "class_aware_random"})
        # the default strategy is cosine_distant; without retrieval it is unused
        ExperimentConfig({"dataset.kind": "binary"})
        ExperimentConfig({"dataset.kind": "binary", "rld.enabled": True})

    def test_domain_invariants_surface(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"rld.p": 1.5, "rld.enabled": True})
        with pytest.raises(ConfigError):
            ExperimentConfig({"feedback.policy": "nope"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.kind": "images"})


class TestTypedViews:
    def test_model_dims_per_dataset(self):
        assert ExperimentConfig({}).model_dims() == [2, 10, 10, 3]
        assert ExperimentConfig({"dataset.kind": "moons"}).model_dims() == [2, 10, 10, 2]
        cfg = ExperimentConfig({"dataset.kind": "binary", "dataset.num_findings": 5})
        assert cfg.model_dims() == [2, 10, 10, 5]
        assert cfg.head() == nn.SIGMOID

    def test_dataset_specs(self):
        assert isinstance(ExperimentConfig({}).dataset_spec(), data.BlobsSpec)
        assert isinstance(
            ExperimentConfig({"dataset.kind": "moons"}).dataset_spec(), data.MoonsSpec
        )

    def test_mixed_feedback_counts(self):
        cfg = ExperimentConfig(
            {"feedback.policy": "mixed", "feedback.pf_count": 1, "feedback.nf_count": 3}
        )
        assert cfg.feedback_spec().mixed_counts == (1, 3)

    def test_rld_disabled_is_none(self):
        assert ExperimentConfig({}).rld_config() is None

    def test_rld_kmeans_default_tracks_k(self):
        cfg = ExperimentConfig({"rld.enabled": True, "adapt.k": 2})
        assert cfg.rld_config().kmeans_clusters == 2
        cfg = ExperimentConfig({"rld.enabled": True, "adapt.k": 2, "rld.kmeans_clusters": 5})
        assert cfg.rld_config().kmeans_clusters == 5

    def test_adapt_config_wiring(self):
        cfg = ExperimentConfig(
            {"adapt.k": 2, "rld.enabled": True, "adapt.batch_mu": 4, "rld.p": 0.6}
        )
        acfg = cfg.adapt_config()
        assert (acfg.batch.b, acfg.batch.mu, acfg.batch.k) == (16, 4, 2)
        assert acfg.rld.p == 0.6 and acfg.rld.k == 2

    def test_fallback_passthrough(self):
        cfg = ExperimentConfig({"feedback.fallback": "error"})
        assert cfg.feedback_spec().fallback_on_shortage == feedback.FALLBACK_ERROR


class TestHashing:
    def test_stable_under_reordering(self):
        a = ExperimentConfig({"adapt.epochs": 7, "rld.p": 0.3, "rld.enabled": True})
        b = ExperimentConfig({"rld.enabled": True, "rld.p": 0.3, "adapt.epochs": 7})
        assert a.config_hash() == b.config_hash()

    def test_semantic_change_changes_hash(self):
        base = ExperimentConfig({})
        assert base.config_hash() != ExperimentConfig({"adapt.epochs": 29}).config_hash()

    def test_non_semantic_fields_ignored(self):
        base = ExperimentConfig({})
        alt = ExperimentConfig({"run.seeds": [5, 6], "output.dir": "elsewhere"})
        assert base.config_hash() == alt.config_hash()

    def test_stage_hash_isolation(self):
        base = ExperimentConfig({})
        fb = ExperimentConfig({"feedback.policy": "rf"})
        ad = ExperimentConfig({"adapt.learning_rate": 0.123})
        # feedback change: data/pretrain stages untouched
        assert base.stage_hash("data") == fb.stage_hash("data")
        assert base.stage_hash("pretrain") == fb.stage_hash("pretrain")
        assert base.stage_hash("feedback") != fb.stage_hash("feedback")
        # adapt change: everything upstream untouched
        assert base.stage_hash("feedback") == ad.stage_hash("feedback")
        assert base.config_hash() != ad.config_hash()
        with pytest.raises(ConfigError):
            base.stage_hash("nope")

    def test_stage_seed_derivation(self):
        h = ExperimentConfig({}).stage_hash("data")
        assert stage_seed(h, 0, "generate") == stage_seed(h, 0, "generate")
        assert stage_seed(h, 0, "generate") != stage_seed(h, 1, "generate")
        assert stage_seed(h, 0, "generate") != stage_seed(h, 0, "split-source")


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("adapt.epochs = 3\nrld.enabled = true\nadapt.k = 2\n")
        cfg = config_mod.load_config(path, ["adapt.epochs=5"])
        assert cfg.flat["adapt.epochs"] == 5
        assert cfg.flat["adapt.k"] == 2

    def test_no_file_defaults(self):
        cfg = config_mod.load_config(None, None)
        assert cfg.flat["dataset.kind"] == "blobs"
