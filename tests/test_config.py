"""Tests for config parsing, validation, hashing, and stage seeds."""

import re

import pytest

from sdalab import adapt as adapt_mod
from sdalab import config as config_mod
from sdalab import bank, data, feedback, nn, runner
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

    def test_only_seeds_take_the_integer_shorthand(self):
        with pytest.raises(ConfigError, match=r"^model\.hidden expects a list of integers, got 10$"):
            ExperimentConfig({"model.hidden": 10})

    @pytest.mark.parametrize("key, text", [
        ("adapt.learning_rate", "NaN"),
        ("adapt.weight_decay", "NaN"),
        ("pretrain.learning_rate", "Infinity"),
        ("augment.weak_frac", "NaN"),
        ("augment.scale_hi", "Infinity"),
        ("adapt.momentum", "-Infinity"),
        ("rld.p", "1e400"),  # JSON reads it as inf
        pytest.param("split.ratio", "1" + "0" * 400, id="split.ratio-huge_int"),  # too big for float()
    ])
    def test_non_finite_numbers_rejected(self, key, text):
        flat = apply_overrides({"adapt.algorithm": "fixmatch_lite"}, [f"{key}={text}"])
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} expects a finite number, got "):
            ExperimentConfig(flat)

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

    def test_negative_k_rejected(self):
        # sweep.rld_on would read it as k = 3, the adaptation as no rld at all
        for rld in (False, True):
            with pytest.raises(ConfigError, match="adapt.k must be >= 0"):
                ExperimentConfig({"adapt.k": -2, "rld.enabled": rld})

    def test_binary_rld_takes_every_strategy(self):
        rld = {"dataset.kind": "binary", "rld.enabled": True, "adapt.k": 3}
        assert ExperimentConfig(rld).rld_config().strategy == "cosine_distant"
        for strategy in bank.STRATEGIES:
            for fallback in ("duplicate_labeled", "skip_with_flag"):
                cfg = ExperimentConfig({**rld, "rld.strategy": strategy, "rld.fallback": fallback})
                assert cfg.rld_config().strategy == strategy
                assert cfg.rld_config().empty_class_fallback == fallback
        ExperimentConfig({"dataset.kind": "binary"})
        ExperimentConfig({"dataset.kind": "binary", "rld.enabled": True})

    def test_domain_invariants_surface(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"rld.p": 1.5, "rld.enabled": True})
        with pytest.raises(ConfigError):
            ExperimentConfig({"feedback.policy": "nope"})
        with pytest.raises(ConfigError, match="unknown dataset.kind 'images'"):
            ExperimentConfig({"dataset.kind": "images"})

    @pytest.mark.parametrize("key, value", [
        ("model.hidden", [0, 10]),
        ("model.hidden", [-3]),
        ("model.hidden", []),
        ("pretrain.batch_size", 0),
        ("pretrain.epochs", -1),
        ("augment.weak_frac", -1.0),
        ("augment.strong_frac", 0.01),  # below weak_frac
        ("augment.scale_lo", 0.0),
        ("augment.scale_lo", 2.0),
        ("augment.scale_hi", 0.5),
    ])
    def test_model_pretrain_and_augment_values_checked_up_front(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            ExperimentConfig({"adapt.algorithm": "fixmatch_lite", key: value})

    def test_augment_values_unchecked_without_an_augmenter(self):
        # pseudo_label never builds an augmenter, so it ignores augment.*
        ExperimentConfig({"augment.weak_frac": -1.0, "augment.scale_lo": 2.0})

    def test_boundary_values_accepted(self):
        for flat in [
            {"model.hidden": [1]},
            {"pretrain.epochs": 0, "pretrain.batch_size": 1},
            {"augment.weak_frac": 0.0, "augment.strong_frac": 0.0},
            {"augment.scale_lo": 1.0, "augment.scale_hi": 1.0},
        ]:
            ExperimentConfig({"adapt.algorithm": "fixmatch_lite", **flat})

    @pytest.mark.parametrize("flat, match", [
        ({"dataset.kind": "binary", "feedback.fp_count": -5}, "binary feedback counts"),
        ({"dataset.kind": "binary", "feedback.fn_count": -1}, "binary feedback counts"),
        ({"dataset.kind": "binary", "feedback.fp_count": 0, "feedback.fn_count": 0},
         "binary feedback counts"),
        ({"dataset.kind": "binary", "adapt.algorithm": "fixmatch_lite"},
         "adapt.algorithm=pseudo_label"),
        ({"rld.enabled": True, "adapt.k": 3, "rld.kmeans_clusters": -2}, "rld.kmeans_clusters"),
        ({"split.ratio": 1.5}, "split.ratio"),
        ({"split.ratio": 1.0}, "split.ratio"),
        ({"split.ratio": 0.0}, "split.ratio"),
        ({"split.ratio": -0.2}, "split.ratio"),
        ({"dataset.kind": "binary", "feedback.policy": "rf"}, "feedback.policy"),
        ({"dataset.kind": "binary", "feedback.per_class_count": 10},
         "feedback.per_class_count"),
    ])
    def test_late_failures_rejected_up_front(self, flat, match, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a pipeline stage ran before the config was rejected")

        monkeypatch.setattr(runner, "make_data", no_stage)
        monkeypatch.setattr(runner, "pretrain", no_stage)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(flat)

    def test_unused_counts_still_accepted_with_unchanged_hashes(self):
        # fp/fn counts are read in binary mode only, kmeans_clusters with rld only
        for flat, digest in [
            ({}, "df1b9a1fc57a4d4b8e84c8532b16d2ed8cfce74e47557ad9dbc7959448455afe"),
            ({"feedback.fp_count": -5},
             "f3ce790e6513366881141c4234d428d65d3523cef2078fe9bb2ba59cc373f3ae"),
            ({"dataset.kind": "binary", "feedback.fp_count": 0, "feedback.fn_count": 1},
             "98d87aa61c4aba17426cbb56e011cea2053c2c2a79a1779c560e04b7518e0346"),
        ]:
            assert ExperimentConfig(flat).config_hash() == digest
        ExperimentConfig({"rld.kmeans_clusters": -2})
        ExperimentConfig({"split.ratio": 0.01})
        cfg = ExperimentConfig({"dataset.kind": "binary", "feedback.fp_count": 7})
        assert cfg.feedback_spec().binary_mode_counts == (7, 40)
        assert ExperimentConfig({}).feedback_spec().binary_mode_counts is None


# per kind: its spec, its head and its output count at dataset.num_findings = 5,
# which only binary mode reads
KIND_VIEWS = {
    "blobs": (data.BlobsSpec, nn.SOFTMAX, 3),
    "moons": (data.MoonsSpec, nn.SOFTMAX, 2),
    "binary": (data.BinarySpec, nn.SIGMOID, 5),
}


class TestTypedViews:
    @pytest.mark.parametrize("kind", list(data.KINDS))
    def test_each_kind_builds_its_spec_head_and_outputs(self, kind):
        spec_cls, head, outputs = KIND_VIEWS[kind]
        cfg = ExperimentConfig({"dataset.kind": kind, "dataset.num_findings": 5})
        assert data.KINDS[kind] is spec_cls
        assert type(cfg.dataset_spec()) is spec_cls
        assert cfg.head() == head
        assert cfg.model_dims() == [2, 10, 10, outputs]
        assert cfg.model_dims()[-1] == cfg.dataset_spec().outputs

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
        assert (acfg.batch.b, acfg.batch.mu) == (16, 4)
        assert acfg.rld.p == 0.6 and acfg.rld.k == 2

    def test_adapt_config_carries_the_augmenter_under_fixmatch_only(self):
        flat = {"augment.weak_frac": 0.05, "augment.strong_frac": 0.2, "augment.scale_hi": 1.3}
        assert ExperimentConfig(flat).adapt_config().augment is None
        acfg = ExperimentConfig({**flat, "adapt.algorithm": "fixmatch_lite"}).adapt_config()
        assert acfg.augment == adapt_mod.AugmenterSpec(0.05, 0.2, (0.9, 1.3))

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_adapt_k_sets_batch_and_rld_k_alike(self, k):
        # k lives in the rld config only; at k = 0 there is no defending term
        acfg = ExperimentConfig({"adapt.k": k, "rld.enabled": True}).adapt_config()
        assert acfg.rld is None if k == 0 else acfg.rld.k == k

    @pytest.mark.parametrize("key, value", [
        ("rld.p", 5.0),
        ("rld.strategy", "nearest"),
        ("rld.fallback", "retry"),
        ("rld.kmeans_clusters", -2),
    ])
    def test_rld_at_k_zero_is_left_out_but_checked(self, key, value):
        flat = {"rld.enabled": True, "adapt.k": 0}
        assert ExperimentConfig(flat).adapt_config().rld is None
        with pytest.raises(ConfigError):
            ExperimentConfig({**flat, key: value})

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
