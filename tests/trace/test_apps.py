"""The five calibrated application models.

These assert the *behavioural* properties the experiments rely on, not
exact numbers: footprints, fault-relevant locality, burstiness contrast,
and determinism.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.trace.synth.apps import (
    APP_MODELS,
    app_names,
    build_app_trace,
    classic_app_names,
    get_app_model,
    modern_app_names,
)


@pytest.fixture(scope="module")
def traces():
    return {name: build_app_trace(name) for name in app_names()}


class TestRegistry:
    def test_nine_apps(self):
        assert len(app_names()) == 9
        assert set(app_names()) == set(APP_MODELS)

    def test_classic_modern_split(self):
        assert classic_app_names() == (
            "modula3", "ld", "atom", "render", "gdb"
        )
        assert set(modern_app_names()) == {
            "kvserve", "graph", "mltrain", "websess"
        }
        assert app_names() == classic_app_names() + modern_app_names()
        for name in classic_app_names():
            assert APP_MODELS[name].era == "1996"
        for name in modern_app_names():
            assert APP_MODELS[name].era == "modern"

    def test_get_app_model(self):
        assert get_app_model("gdb").name == "gdb"

    def test_unknown_app(self):
        with pytest.raises(ConfigError, match="unknown app"):
            get_app_model("emacs")

    def test_unknown_app_error_lists_registered_names(self):
        # The registry diagnostic must name every family (classic and
        # modern) and mention the ingest: escape hatch.
        with pytest.raises(ConfigError) as excinfo:
            get_app_model("emacs")
        message = str(excinfo.value)
        for name in app_names():
            assert name in message
        assert "ingest:" in message

    def test_build_app_trace_unknown_name_lists_names(self):
        with pytest.raises(ConfigError) as excinfo:
            build_app_trace("spark")
        for name in app_names():
            assert name in str(excinfo.value)

    def test_paper_metadata_present(self):
        for model in APP_MODELS.values():
            lo, hi = model.paper_fault_range
            assert 0 < lo < hi
            assert model.paper_refs_millions > 0
            assert model.description


class TestTraceShapes:
    def test_all_apps_build(self, traces):
        for name, trace in traces.items():
            assert trace.name == name
            assert trace.num_references > 100_000 or name == "gdb"

    def test_gdb_matches_paper_reference_count(self, traces):
        # gdb's trace is NOT scaled down: the paper's trace is 0.5M refs.
        assert 0.4e6 < traces["gdb"].num_references < 0.6e6

    def test_footprints_are_plausible(self, traces):
        # Footprints sized so fault counts land near the paper's ranges.
        assert 300 < traces["modula3"].footprint_pages() < 600
        assert 300 < traces["ld"].footprint_pages() < 600
        assert traces["render"].footprint_pages() > 1000
        assert traces["gdb"].footprint_pages() < 250

    def test_render_has_largest_footprint(self, traces):
        fp = {n: t.footprint_pages() for n, t in traces.items()}
        assert max(fp, key=fp.get) == "render"

    def test_dilation_set_for_scaled_apps(self, traces):
        assert traces["gdb"].dilation == 1.0
        for name in ("modula3", "ld", "atom", "render"):
            assert traces[name].dilation > 10

    def test_compression_worthwhile(self, traces):
        for trace in traces.values():
            assert trace.compression_ratio > 4

    def test_writes_present_but_minority(self, traces):
        for trace in traces.values():
            assert 0.02 < trace.write_fraction() < 0.5

    def test_deterministic(self):
        a = build_app_trace("modula3", seed=3)
        b = build_app_trace("modula3", seed=3)
        assert np.array_equal(a.pages, b.pages)
        assert np.array_equal(a.counts, b.counts)

    def test_scale_parameter_shrinks_trace(self):
        small = build_app_trace("ld", scale=0.25)
        full = build_app_trace("ld")
        assert small.num_references < 0.4 * full.num_references

    def test_model_build_carries_provenance(self):
        synthetic = get_app_model("gdb").build(seed=5)
        assert synthetic.name == "gdb"
        assert synthetic.seed == 5
        assert synthetic.model is get_app_model("gdb")
        assert synthetic.trace.name == "gdb"


#: Every registered app's trace content, captured before trace synthesis
#: moved to per-phase compression: (app, seed, scale) -> (fingerprint,
#: runs).  A change to synthesis or compression that moves any of these
#: changes every figure built on the trace.
PINNED_TRACES = {
    ("modula3", 0, 1.0): (
        "sha:2122a8e2781f6178480e1f1819f80b00f810aad5dc93fbd79215e8bdb8262b89",
        204704,
    ),
    ("ld", 0, 1.0): (
        "sha:67d8dd6fde4752ad29c117bf58ae4e579635922ce2feb92fe47bf086e5fe6763",
        207238,
    ),
    ("atom", 0, 1.0): (
        "sha:56755869e4741c9eff729b61644298e46556b1dcd37771aa1f08ea0db0011624",
        217189,
    ),
    ("render", 0, 1.0): (
        "sha:7e04ac438ad7983bcc14f92ae538874e923f2748b10e808a54afd5614433e148",
        297292,
    ),
    ("gdb", 0, 1.0): (
        "sha:bd0cdf9fdb1d5e34f2807ef0c4af6e43a523c60f6564bd00572c27d2af551aa2",
        57479,
    ),
    ("kvserve", 0, 1.0): (
        "sha:59e276298bfea62dd66f8ce8a12ea32dfb169960bd0c9d0e46a6538246c9fd63",
        112825,
    ),
    ("graph", 0, 1.0): (
        "sha:950d9f7e8e92b0884d066700166cc2711a2985a0fc22e0d77a495f00ceb8ba7c",
        189483,
    ),
    ("mltrain", 0, 1.0): (
        "sha:5fbbf57ee1e1dca78d7bd90ee30c50a3a0a23007ae42429879c7e657c62f6b09",
        81934,
    ),
    ("websess", 0, 1.0): (
        "sha:fdbb8d6d03827c6220ad78b7f4c42c211486c4e39eef8feaf8565366c1c46289",
        80020,
    ),
    ("modula3", 3, 0.1): (
        "sha:ae4b7569a629d8dfe005d16d03b977f58001c8d351bc5a1fbd0d1e8deed016d1",
        20455,
    ),
    ("ld", 3, 0.1): (
        "sha:a4139436b4d3d44a670b410a6d387140c8bf657c44dd622a29c0ea8bf24cff39",
        20713,
    ),
    ("atom", 3, 0.1): (
        "sha:c37736c4747bfcb0e599c6d1c978db043f51d3adfd233b8397d3e9c1324291fa",
        21845,
    ),
    ("render", 3, 0.1): (
        "sha:2536d432d4d0bab2fb225903e4afc841ad3107565e309adaf9182c9edb3633e5",
        29855,
    ),
    ("gdb", 3, 0.1): (
        "sha:7e2c7c08b2626ae0fa76bfecf82b8dbbe91100fd01eb00c1960fcef5ebb52559",
        5809,
    ),
    ("kvserve", 3, 0.1): (
        "sha:8eb7fcce063b36e4e97b49fd5613ec7f3fe773b28dcc1850a7e021c9f072d413",
        11250,
    ),
    ("graph", 3, 0.1): (
        "sha:f2f0ac1537e7705807f5cbf0ffa8379aa5f055cd6dc2314ef97b8e39fa24beb4",
        18946,
    ),
    ("mltrain", 3, 0.1): (
        "sha:1f3fb509066516ff8cefb5f29c8df84b0ecb1b2501400394251f4e6b1a84723f",
        8131,
    ),
    ("websess", 3, 0.1): (
        "sha:062eac052352431b634ecc1cea2a07442c60e3063056ab1d79e70f9b1f890e66",
        7994,
    ),
}


class TestPinnedContent:
    @pytest.mark.parametrize("key", sorted(PINNED_TRACES))
    def test_fingerprint(self, key):
        name, seed, scale = key
        trace = build_app_trace(name, seed=seed, scale=scale)
        assert (trace.fingerprint(), trace.num_runs) == PINNED_TRACES[key]

    def test_covers_every_registered_app(self):
        pinned = {name for name, _, _ in PINNED_TRACES}
        assert pinned == set(app_names())

    def test_column_pages_interned(self, traces):
        """The per-run page list holds one int object per distinct
        page, shared by every run of that page."""
        trace = traces["gdb"]
        pages = trace.columns(1024).pages
        assert pages == trace.pages.tolist()
        assert all(type(page) is int for page in pages)
        first: dict[int, int] = {}
        for page in pages:
            assert first.setdefault(page, id(page)) == id(page)
        assert len(first) == trace.footprint_pages()
