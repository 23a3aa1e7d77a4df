"""Tests of the redesigned results API: paginated listing and client.

Drives the daemon's ``list_results`` directly for the validation and
pagination semantics, then the real loopback HTTP server end-to-end for
the acceptance criteria: ``GET /results?...&limit=...`` answers from the
columnar store with byte-stable pages, and the single-result home is
``GET /result``.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    make_server,
)

NPROCS = 4
SCALE = 0.2

SUBMIT_SPEC = {
    "sweep": {
        "problems": ["XENON2"],
        "orderings": ["metis"],
        "strategies": ["mumps-workload", "hybrid(alpha=0.3)"],
        "nprocs": [4, 8],
        "split": [False],
    }
}  # 4 cases


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running daemon + HTTP server + client, with one sweep job done."""
    data_dir = tmp_path_factory.mktemp("results-api")
    service = SweepService(
        data_dir=data_dir, nprocs=NPROCS, scale=SCALE, journal_fsync=False
    )
    service.start()
    server = make_server(service, quiet=True)
    server.serve_background()
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    record = client.submit(SUBMIT_SPEC)
    record = client.wait(str(record["id"]), timeout=120.0)
    assert record["state"] == "done", record
    yield service, client
    server.shutdown()
    server.server_close()
    service.stop()


# --------------------------------------------------------------------------- #
# daemon-level semantics
# --------------------------------------------------------------------------- #
class TestListResultsSemantics:
    def test_full_listing_shape(self, served):
        service, _ = served
        page = service.list_results({"problem": "XENON2"})
        assert page["total"] == 4
        assert page["count"] == 4
        assert page["cursor"] == 0
        assert page["limit"] == service.DEFAULT_PAGE
        assert page["next"] is None
        row = page["results"][0]
        assert row["problem"] == "XENON2"
        assert row["key"]  # every service row carries its canonical key

    def test_rows_come_in_canonical_order(self, served):
        service, _ = served
        rows = service.list_results({})["results"]
        order = [(r["strategy"], r["nprocs"]) for r in rows]
        assert order == sorted(order)

    def test_pagination_and_next_link(self, served):
        service, _ = served
        first = service.list_results({"limit": "3"})
        assert first["count"] == 3 and first["total"] == 4
        assert first["next"] == "/results?cursor=3&limit=3"
        second = service.list_results({"limit": "3", "cursor": "3"})
        assert second["count"] == 1 and second["next"] is None
        assert first["results"] + second["results"] == service.list_results({})["results"]

    def test_next_link_carries_filters_and_fields(self, served):
        service, _ = served
        page = service.list_results(
            {"problem": "XENON2", "limit": "1", "fields": "problem,nprocs"}
        )
        assert page["next"] == "/results?cursor=1&fields=problem%2Cnprocs&limit=1&problem=XENON2"
        assert page["results"] == [{"problem": "XENON2", "nprocs": 4}]

    def test_cursor_past_the_end_is_an_empty_page(self, served):
        service, _ = served
        page = service.list_results({"cursor": "999"})
        assert page["count"] == 0 and page["results"] == [] and page["next"] is None

    def test_filters_canonicalise_like_single_queries(self, served):
        service, _ = served
        sloppy = service.list_results(
            {"problem": "xenon2", "strategy": "hybrid( alpha = 0.3 )"}
        )
        assert sloppy["total"] == 2  # nprocs 4 and 8
        assert {r["nprocs"] for r in sloppy["results"]} == {4, 8}
        assert service.list_results({"nprocs": "8"})["total"] == 2
        assert service.list_results({"split": "true"})["total"] == 0
        assert service.list_results({"split": "no"})["total"] == 4

    def test_filters_match_every_spelling_of_one_case(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path, nprocs=NPROCS, scale=SCALE, journal_fsync=False
        )
        service.query({"problem": "XENON2", "strategy": "hybrid(alpha=0.5)"})
        for strategy in ("hybrid", "hybrid(alpha=0.5)", "hybrid(alpha=0.5,use_predictions=true)"):
            assert service.list_results({"strategy": strategy})["total"] == 1
        for ordering in ("metis", "METIS", "metis(leaf_size=64)"):
            assert service.list_results({"ordering": ordering})["total"] == 1
        assert service.list_results({"strategy": "hybrid(alpha=0.25)"})["total"] == 0
        with pytest.raises(ValueError, match="unknown strategy"):
            service.list_results({"strategy": "hybird"})

    def test_validation_errors(self, served):
        service, _ = served
        with pytest.raises(ValueError, match="unknown query parameter"):
            service.list_results({"bogus": "1"})
        with pytest.raises(ValueError, match="limit must be in"):
            service.list_results({"limit": "0"})
        with pytest.raises(ValueError, match="limit must be in"):
            service.list_results({"limit": str(service.MAX_PAGE + 1)})
        with pytest.raises(ValueError, match="cursor must be"):
            service.list_results({"cursor": "-1"})
        with pytest.raises(ValueError, match="expects int"):
            service.list_results({"limit": "lots"})
        with pytest.raises(ValueError, match="'split' expects a boolean"):
            service.list_results({"split": "maybe"})
        with pytest.raises(ValueError, match="unknown result field"):
            service.list_results({"fields": "problem,owner"})

    def test_listing_agrees_with_the_store(self, served):
        service, _ = served
        rows = service.list_results({})["results"]
        assert {r["key"] for r in rows} == set(service.results.keys())


# --------------------------------------------------------------------------- #
# HTTP end to end
# --------------------------------------------------------------------------- #
class TestResultsOverHTTP:
    def test_acceptance_url_pages_from_the_store(self, served):
        _, client = served
        response = client.list_results(problem="xenon2", limit=50)
        assert response.status == 200
        assert response.payload["total"] == 4
        assert len(response.payload["results"]) == 4

    def test_repeated_listing_is_byte_identical(self, served):
        _, client = served
        a = client.list_results(problem="XENON2", limit=50)
        b = client.list_results(problem="XENON2", limit=50)
        assert a.body == b.body

    def test_cursor_walk_via_next_links(self, served):
        _, client = served
        full = client.list_results(limit=50).payload["results"]
        walked: list[dict] = []
        page = client._request("/results?limit=2").payload
        walked.extend(page["results"])
        while page["next"]:
            page = client._request(str(page["next"])).payload
            walked.extend(page["results"])
        assert walked == full

    def test_bad_requests_are_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.list_results(limit=0)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("/results?bogus=1&limit=5")
        assert excinfo.value.status == 400

    def test_new_single_result_endpoint(self, served):
        _, client = served
        response = client.result(
            problem="XENON2", ordering="metis", strategy="hybrid(alpha=0.3)", nprocs=8
        )
        assert response.status == 200
        assert response.cached  # computed by the job, served from cache
        assert response.payload["result"]["problem"] == "XENON2"

    def test_single_result_no_compute_miss_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.result(
                problem="PRE2", ordering="metis", strategy="memory-full", compute=False
            )
        assert excinfo.value.status == 404

    def test_list_shape_has_no_deprecation_header(self, served):
        _, client = served
        # a bare problem= filter is a listing too: no single-result shape
        for query in ("problem=XENON2&limit=5", "problem=XENON2"):
            with urllib.request.urlopen(client.base_url + "/results?" + query, timeout=30) as response:
                assert response.headers.get("Deprecation") is None
                payload = json.loads(response.read())
            assert payload["total"] == payload["count"] == 4
            assert "result" not in payload

    def test_healthz_reports_store_stats(self, served):
        _, client = served
        stats = client.healthz()
        assert stats["results"]["rows"] == 4
        assert stats["results"]["segments"] >= 1
