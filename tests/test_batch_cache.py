"""Tests for deck fingerprinting and the content-addressed artifact cache."""

import json

import pytest

from repro.batch.cache import ArtifactCache, cache_key
from repro.cards.card import canonical_deck_text
from repro.cards.card import deck_fingerprint
from repro.pipeline.cache import entry_bytes


def idlz_fingerprint(text):
    return deck_fingerprint(text, "idlz")


def ospl_fingerprint(text):
    return deck_fingerprint(text, "ospl")

DECK = "    1\nTITLE CARD\n    1    1    1    1\n"


class TestCanonicalDeckText:
    def test_plain_text_round_trips(self):
        assert canonical_deck_text(DECK) == DECK

    def test_trailing_card_whitespace_dropped(self):
        assert canonical_deck_text("    1   \nTITLE  \n") == "    1\nTITLE\n"

    def test_trailing_blank_cards_dropped(self):
        assert canonical_deck_text(DECK + "\n\n   \n") == DECK

    def test_leading_and_interior_blanks_kept(self):
        text = "\n    1\n\nTITLE\n"
        assert canonical_deck_text(text) == text

    def test_empty_deck_is_empty(self):
        assert canonical_deck_text("") == ""
        assert canonical_deck_text("  \n \n") == ""


class TestDeckFingerprint:
    def test_stable(self):
        assert idlz_fingerprint(DECK) == idlz_fingerprint(DECK)

    def test_editor_noise_is_invisible(self):
        assert idlz_fingerprint(DECK) == idlz_fingerprint(
            DECK.replace("\n", "   \n") + "\n\n"
        )

    def test_content_changes_it(self):
        assert idlz_fingerprint(DECK) != idlz_fingerprint(
            DECK.replace("TITLE", "OTHER")
        )

    def test_program_tag_separates_idlz_from_ospl(self):
        assert idlz_fingerprint(DECK) != ospl_fingerprint(DECK)


class TestCacheKey:
    def test_deterministic(self):
        fp = idlz_fingerprint(DECK)
        assert (cache_key(fp, "idlz", {"strict": False})
                == cache_key(fp, "idlz", {"strict": False}))

    def test_options_change_it(self):
        fp = idlz_fingerprint(DECK)
        assert (cache_key(fp, "idlz", {"strict": False})
                != cache_key(fp, "idlz", {"strict": True}))

    def test_program_changes_it(self):
        fp = idlz_fingerprint(DECK)
        assert cache_key(fp, "idlz") != cache_key(fp, "ospl")

    def test_code_version_changes_it(self, monkeypatch):
        """The code's version is its source digest: an edit moves it."""
        fp = idlz_fingerprint(DECK)
        before = cache_key(fp, "idlz")
        monkeypatch.setattr("repro.batch.cache.code_digest",
                            lambda: "edited source")
        assert cache_key(fp, "idlz") != before

    def test_option_order_is_irrelevant(self):
        fp = idlz_fingerprint(DECK)
        assert (cache_key(fp, "idlz", {"a": 1, "b": 2})
                == cache_key(fp, "idlz", {"b": 2, "a": 1}))


@pytest.fixture
def artifacts(tmp_path):
    src = tmp_path / "job_out"
    src.mkdir()
    (src / "listing.txt").write_text("NUMBER OF NODES 12\n")
    (src / "plot.svg").write_text("<svg/>\n")
    return src


class TestArtifactCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.lookup("0" * 64) is None
        assert cache.entry_count() == 0

    def test_store_then_lookup(self, tmp_path, artifacts):
        cache = ArtifactCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        cache.store(key, {"status": "ok"}, artifacts)
        entry = cache.lookup(key)
        assert entry is not None
        assert entry.result == {"status": "ok"}
        assert key in cache
        assert cache.entry_count() == 1

    def test_restore_copies_artifacts(self, tmp_path, artifacts):
        cache = ArtifactCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        cache.store(key, {"status": "ok"}, artifacts)
        dest = tmp_path / "restored"
        names = cache.lookup(key).restore_into(dest)
        assert names == ["listing.txt", "plot.svg"]
        assert (dest / "listing.txt").read_text() == "NUMBER OF NODES 12\n"
        assert (dest / "plot.svg").read_text() == "<svg/>\n"

    def test_store_overwrites_existing_entry(self, tmp_path, artifacts):
        cache = ArtifactCache(tmp_path / "cache")
        key = "ef" + "2" * 62
        cache.store(key, {"status": "ok", "n": 1}, artifacts)
        (artifacts / "listing.txt").write_text("REVISED\n")
        cache.store(key, {"status": "ok", "n": 2}, artifacts)
        entry = cache.lookup(key)
        assert entry.result["n"] == 2
        assert (entry.artifacts_dir / "listing.txt").read_text() == "REVISED\n"

    def test_corrupt_entry_reads_as_miss(self, tmp_path, artifacts):
        cache = ArtifactCache(tmp_path / "cache")
        key = "09" + "3" * 62
        cache.store(key, {"status": "ok"}, artifacts)
        entry_file = cache.root / key[:2] / key / "entry.json"
        entry_file.write_text("{not json")
        assert cache.lookup(key) is None

    def test_wrong_schema_reads_as_miss(self, tmp_path, artifacts):
        cache = ArtifactCache(tmp_path / "cache")
        key = "11" + "4" * 62
        cache.store(key, {"status": "ok"}, artifacts)
        entry_file = cache.root / key[:2] / key / "entry.json"
        data = json.loads(entry_file.read_bytes().partition(b"\n")[2])
        # A plain-JSON entry (no digest line) and a digest-framed one
        # whose record is not a dict are both foreign layouts.
        entry_file.write_text(json.dumps(data))
        assert cache.lookup(key) is None
        data["result"] = "ok"
        entry_file.write_bytes(entry_bytes(data, lambda d: json.dumps(
            d).encode()))
        assert cache.lookup(key) is None

    def test_missing_artifacts_dir_reads_as_miss(self, tmp_path, artifacts):
        import shutil

        cache = ArtifactCache(tmp_path / "cache")
        key = "22" + "5" * 62
        cache.store(key, {"status": "ok"}, artifacts)
        shutil.rmtree(cache.root / key[:2] / key / "artifacts")
        assert cache.lookup(key) is None
