"""The content-addressed on-disk result store."""

import pytest

from repro.core.analysis import AnalysisOptions, analyze_source
from repro.service.serialize import DecodedAnalysis, encode_analysis
from repro.service.store import ResultStore, default_store_url

SOURCE = """
int g;
int main() { int *p; p = &g; L: return 0; }
"""

OTHER = """
int h;
int main() { int *q; q = &h; L: return 0; }
"""


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestKeys:
    def test_key_is_content_addressed(self):
        assert ResultStore.key_for(SOURCE) == ResultStore.key_for(SOURCE)
        assert ResultStore.key_for(SOURCE) != ResultStore.key_for(OTHER)

    def test_key_depends_on_options(self):
        precise = ResultStore.key_for(SOURCE, AnalysisOptions())
        naive = ResultStore.key_for(
            SOURCE,
            AnalysisOptions(function_pointer_strategy="all_functions"),
        )
        assert precise != naive

    def test_default_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "custom"))
        assert default_store_url() == str(tmp_path / "custom")


class TestObjects:
    def test_put_then_get(self, store):
        analysis = analyze_source(SOURCE)
        key = store.key_for(SOURCE)
        store.put(key, encode_analysis(analysis, source=SOURCE))
        decoded = store.get(key)
        assert isinstance(decoded, DecodedAnalysis)
        assert decoded.triples_at("L") == analysis.triples_at("L")
        assert store.stats.puts == 1 and store.stats.hits == 1

    def test_get_missing_is_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_corrupt_payload_dropped(self, store):
        key = store.key_for(SOURCE)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.get(key) is None
        assert store.stats.invalid == 1
        assert not path.exists()  # dropped, next put rewrites it

    def test_stale_format_dropped(self, store):
        analysis = analyze_source(SOURCE)
        key = store.key_for(SOURCE)
        payload = encode_analysis(analysis)
        payload["format_version"] = 999
        store.put(key, payload)
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_keys_and_clear(self, store):
        for source in (SOURCE, OTHER):
            analysis = analyze_source(source)
            store.put(store.key_for(source), encode_analysis(analysis))
        assert len(store.keys()) == 2
        assert store.clear() == 2
        assert store.keys() == []


class TestLoadOrAnalyze:
    def test_miss_then_hit(self, store):
        first, hit1 = store.load_or_analyze(SOURCE)
        assert not hit1 and not isinstance(first, DecodedAnalysis)
        second, hit2 = store.load_or_analyze(SOURCE)
        assert hit2 and isinstance(second, DecodedAnalysis)
        assert second.triples_at("L") == first.triples_at("L")

    def test_refresh_forces_analysis(self, store):
        store.load_or_analyze(SOURCE)
        result, hit = store.load_or_analyze(SOURCE, refresh=True)
        assert not hit and not isinstance(result, DecodedAnalysis)

    def test_distinct_options_do_not_collide(self, store):
        store.load_or_analyze(SOURCE)
        naive = AnalysisOptions(function_pointer_strategy="address_taken")
        result, hit = store.load_or_analyze(SOURCE, naive)
        assert not hit
        cached, hit2 = store.load_or_analyze(SOURCE, naive)
        assert hit2 and cached.options == naive
