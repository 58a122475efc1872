"""Task-spec hashing: the determinism layer under the cache and seeds."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import hashing
from repro.runner.hashing import canonical_json, code_salt, stable_hash
from repro.runner.task import ExperimentTask, derive_seed


class TestCanonicalJson:
    def test_sorted_keys_and_no_whitespace(self) -> None:
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_key_order_is_irrelevant(self) -> None:
        assert canonical_json({"x": 1, "y": [2, 3]}) == canonical_json(
            {"y": [2, 3], "x": 1}
        )

    def test_tuples_encode_as_lists(self) -> None:
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_nested_structures(self) -> None:
        doc = {"a": [1, {"b": (2.5, None)}], "c": True}
        assert canonical_json(doc) == '{"a":[1,{"b":[2.5,null]}],"c":true}'

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_floats(self, bad: float) -> None:
        with pytest.raises(ConfigurationError):
            canonical_json({"x": bad})

    def test_rejects_non_string_keys(self) -> None:
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_rejects_unencodable_values(self) -> None:
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})


class TestStableHash:
    def test_deterministic(self) -> None:
        assert stable_hash({"a": 1}) == stable_hash({"a": 1})

    def test_salt_changes_digest(self) -> None:
        doc = {"a": 1}
        assert stable_hash(doc, salt="v1") != stable_hash(doc, salt="v2")

    def test_distinct_docs_distinct_digests(self) -> None:
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_code_salt_is_short_stable_hex(self) -> None:
        salt = code_salt()
        assert salt == code_salt()
        assert len(salt) == 16
        int(salt, 16)  # hex-parsable

    def test_code_salt_covers_c_kernel_sources(self, tmp_path) -> None:
        """A compiled kernel's source decides results as a module does."""
        trees = []
        for body in (b"int x = 1;\n", b"int x = 2;\n"):
            root = tmp_path / f"tree{len(trees)}"
            (root / "core").mkdir(parents=True)
            (root / "__init__.py").write_text("")
            (root / "core" / "_interval.c").write_bytes(body)
            trees.append(root)
        assert hashing._tree_salt(trees[0]) != hashing._tree_salt(trees[1])


class TestDeriveSeed:
    def test_deterministic(self) -> None:
        assert derive_seed(11, "sensitivity", 3) == derive_seed(
            11, "sensitivity", 3
        )

    def test_distinct_parts_distinct_seeds(self) -> None:
        seeds = {
            derive_seed(11, "sensitivity", replicate)
            for replicate in range(50)
        }
        assert len(seeds) == 50

    def test_base_seed_matters(self) -> None:
        assert derive_seed(11, "x") != derive_seed(12, "x")

    def test_part_order_matters(self) -> None:
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_stays_in_seedsequence_range(self) -> None:
        for replicate in range(100):
            seed = derive_seed(53, "r", replicate)
            assert 0 <= seed < 2**63


class TestExperimentTask:
    def test_equality_ignores_param_insertion_order(self) -> None:
        a = ExperimentTask(kind="k", params={"x": 1, "y": 2})
        b = ExperimentTask(kind="k", params={"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec == b.spec

    def test_label_does_not_affect_identity(self) -> None:
        a = ExperimentTask(kind="k", params={"x": 1}, label="one")
        b = ExperimentTask(kind="k", params={"x": 1}, label="two")
        assert a == b
        assert a.cache_key("s") == b.cache_key("s")

    def test_kind_distinguishes_tasks(self) -> None:
        a = ExperimentTask(kind="k1", params={"x": 1})
        b = ExperimentTask(kind="k2", params={"x": 1})
        assert a != b

    def test_cache_key_depends_on_salt(self) -> None:
        task = ExperimentTask(kind="k", params={"x": 1})
        assert task.cache_key("v1") != task.cache_key("v2")

    def test_name_defaults_to_kind_and_hash(self) -> None:
        task = ExperimentTask(kind="k", params={"x": 1})
        assert task.name.startswith("k:")
        labelled = ExperimentTask(kind="k", params={"x": 1}, label="lbl")
        assert labelled.name == "lbl"

    def test_rejects_empty_kind(self) -> None:
        with pytest.raises(ConfigurationError):
            ExperimentTask(kind="", params={})

    def test_rejects_unencodable_params(self) -> None:
        with pytest.raises(ConfigurationError):
            ExperimentTask(kind="k", params={"x": float("nan")})
