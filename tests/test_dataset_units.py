"""Unit-level tests of the per-dataset record generators."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data import datasets as ds


@pytest.fixture()
def rng():
    return random.Random(123)


class TestTweetUnit:
    def test_required_fields(self, rng):
        tweet = ds._tt_unit(rng, 0)
        for field in ("created_at", "id", "text", "en", "user", "coordinates", "lang"):
            assert field in tweet
        assert set(tweet["en"]) == {"hashtags", "urls", "user_mentions"}

    def test_url_shape(self, rng):
        for i in range(50):
            tweet = ds._tt_unit(rng, i)
            for url in tweet["en"]["urls"]:
                assert url["url"].startswith("https://t.co/")
                assert len(url["indices"]) == 2

    def test_place_is_optional_but_shaped(self, rng):
        places = [ds._tt_unit(rng, i).get("place") for i in range(200)]
        present = [p for p in places if p is not None]
        assert 0 < len(present) < 200  # optional
        for place in present:
            assert place["bounding_box"]["type"] == "Polygon"
            assert len(place["bounding_box"]["pos"]) == 4


class TestProductUnits:
    def test_bb_category_path_depth(self, rng):
        for i in range(50):
            product = ds._bb_unit(rng, i)
            assert 2 <= len(product["cp"]) <= 5
            for level in product["cp"]:
                assert set(level) == {"id", "nm"}

    def test_bb_video_chapters_rare(self, rng):
        with_vc = sum("vc" in ds._bb_unit(rng, i) for i in range(500))
        assert 0 < with_vc < 50  # ~2%

    def test_wm_is_flat(self, rng):
        item = ds._wm_unit(rng, 0)
        nested = [v for v in item.values() if isinstance(v, (dict, list))]
        assert len(nested) <= 1  # only the optional bmrpr object

    def test_wm_bmrpr_shape(self, rng):
        found = 0
        for i in range(300):
            item = ds._wm_unit(rng, i)
            if "bmrpr" in item:
                found += 1
                assert set(item["bmrpr"]) == {"pr", "cu"}
        assert found > 0


class TestDirectionsUnit:
    def test_route_leg_step_nesting(self, rng):
        result = ds._gmd_unit(rng, 0)
        assert result["status"] == "OK"
        for route in result["rt"]:
            for leg in route["lg"]:
                assert len(leg["st"]) >= 3
                for step in leg["st"]:
                    assert step["dt"]["tx"].endswith("mins")
                    assert isinstance(step["dt"]["vl"], int)


class TestNsplUnits:
    def test_meta_has_44_columns(self, rng):
        meta = ds._nspl_meta(rng)
        assert len(meta["vw"]["co"]) == 44
        assert [c["ix"] for c in meta["vw"]["co"]] == list(range(44))

    def test_block_rows_are_flat_primitives(self, rng):
        block = ds._nspl_block(rng, 0)
        assert len(block) == 8
        for row in block:
            assert len(row) == 10
            assert all(not isinstance(v, (dict, list)) for v in row)


class TestWikidataUnit:
    def test_language_maps(self, rng):
        entity = ds._wp_unit(rng, 0)
        assert entity["id"].startswith("Q")
        for lang, label in entity["labels"].items():
            assert label["language"] == lang

    def test_claims_shape(self, rng):
        entity = ds._wp_unit(rng, 1)
        for prop, statements in entity["cl"].items():
            for statement in statements:
                assert statement["ms"]["pty"] == prop

    def test_p150_rare(self, rng):
        with_p150 = sum("P150" in ds._wp_unit(rng, i)["cl"] for i in range(400))
        assert 10 < with_p150 < 120  # ~12%


class TestAssembly:
    def test_unit_strings_reach_target(self):
        units = ds._unit_strings(ds.dataset("TT"), 10_000, seed=1)
        total = sum(len(u) + 1 for u in units)
        assert total >= 10_000
        assert total - len(units[-1]) - 1 < 10_000  # no overshoot beyond one unit

    def test_generation_identical_across_hash_seeds(self):
        # str hashing is salted per process; generation must not be.
        src = str(Path(ds.__file__).resolve().parents[2])
        script = (
            "import hashlib; from repro.data.datasets import large_record; "
            "print(hashlib.sha256(large_record('TT', 20_000, seed=3)).hexdigest())"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            )
            digests.add(out.stdout.strip())
        assert digests == {hashlib.sha256(ds.large_record("TT", 20_000, seed=3)).hexdigest()}

    def test_large_record_wrappers(self):
        assert ds.large_record("TT", 3_000, seed=1).startswith(b"[")
        assert ds.large_record("BB", 3_000, seed=1).startswith(b'{"pd":[')
        assert ds.large_record("NSPL", 3_000, seed=1).startswith(b'{"mt":')
        for name in ds.DATASETS:
            json.loads(ds.large_record(name, 3_000, seed=1))

    def test_nspl_small_records_wrapped(self):
        stream = ds.record_stream("NSPL", 3_000, seed=1)
        assert stream.record(0).startswith(b'{"dt":')
