"""Tests for input generators, the public API surface, and misc pieces."""

import pytest

import repro
from repro.workloads.inputs import (
    Lcg,
    address_trace,
    convolution_matrix,
    database_records,
    grayscale_image,
    sparse_vector,
    vertex_stream,
)


class TestLcg:
    def test_deterministic(self):
        a = Lcg(seed=42)
        b = Lcg(seed=42)
        assert [a.next_int(100) for _ in range(20)] == \
            [b.next_int(100) for _ in range(20)]

    def test_bounds(self):
        rng = Lcg()
        for _ in range(200):
            assert 0 <= rng.next_int(17) < 17
            assert 0.0 <= rng.next_float() < 1.0

    def test_choice(self):
        rng = Lcg()
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(20))


class TestGenerators:
    def test_address_trace_locality(self):
        trace = address_trace(1000, seed=3, locality=0.8, stride=4)
        assert len(trace) == 1000
        sequential = sum(
            1 for a, b in zip(trace, trace[1:])
            if (a + 4) % (64 * 1024) == b
        )
        assert sequential > 600   # ~80% sequential

    def test_address_trace_deterministic(self):
        assert address_trace(50, seed=9) == address_trace(50, seed=9)

    def test_convolution_matrix_fractions(self):
        rows = convolution_matrix(11, 11)
        flat = [v for row in rows for v in row]
        assert len(flat) == 121
        ones = sum(1 for v in flat if v == 1.0)
        zeros = sum(1 for v in flat if v == 0.0)
        # Table 1: 9% ones, 83% zeroes.
        assert ones == round(121 * 0.09)
        assert zeros == round(121 * 0.83)

    def test_sparse_vector_density(self):
        vector = sparse_vector(100, 0.9)
        assert len(vector) == 100
        assert sum(1 for v in vector if v == 0.0) == 90
        dense = sparse_vector(100, 0.0)
        assert all(v != 0.0 for v in dense)

    def test_grayscale_image_range(self):
        image = grayscale_image(10, 10)
        assert len(image) == 100
        assert all(0.0 <= v < 256.0 for v in image)

    def test_database_records_shape(self):
        records = database_records(20, 8)
        assert len(records) == 20
        assert all(len(r) == 8 for r in records)
        assert all(0 <= v < 100 for r in records for v in r)

    def test_vertex_stream_homogeneous(self):
        verts = vertex_stream(10)
        assert len(verts) == 40
        assert all(verts[i * 4 + 3] == 1.0 for i in range(10))


class TestPublicApi:
    def test_top_level_exports(self):
        assert callable(repro.compile_source)
        assert callable(repro.compile_annotated)
        assert callable(repro.compile_static)
        assert repro.ALL_ON.complete_loop_unrolling
        assert not repro.ALL_OFF.complete_loop_unrolling
        assert repro.__version__

    def test_minimal_top_level_flow(self):
        module = repro.compile_source(
            "func f(x, n) { make_static(n); return x * n; }"
        )
        compiled = repro.compile_annotated(module)
        machine, runtime = compiled.make_machine()
        assert machine.run("f", 6, 7) == 42

    def test_config_without_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            repro.ALL_ON.without("frobnication")

    @pytest.mark.parametrize("name", [
        "faults", "degrade", "quarantine_after", "cache_capacity",
        "check_annotations", "lint",
    ])
    def test_config_without_rejects_non_switches(self, name):
        """Only Table 5's optimization switches can be turned off:
        ``without`` would otherwise write ``False`` into a str or int
        field."""
        with pytest.raises(ValueError, match=name):
            repro.ALL_ON.without("static_loads", name)

    def test_config_enabled_names(self):
        from repro.config import TABLE5_ABLATIONS
        names = repro.ALL_ON.enabled_names()
        assert names == TABLE5_ABLATIONS
        assert "check_annotations" not in names
        assert repro.ALL_OFF.enabled_names() == ()
        config = repro.ALL_ON.without("static_calls")
        assert config.enabled_names() == tuple(
            name for name in TABLE5_ABLATIONS if name != "static_calls")


class TestWorkloadCli:
    def test_cli_single_workload(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["query"]) == 0
        out = capsys.readouterr().out
        assert "query" in out
        assert "outputs verified: True" in out

    def test_cli_unknown_workload(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["nonsense"]) == 2


class TestEvalCliPieces:
    def test_dispatch_table_builder(self):
        from repro.evalharness.__main__ import build_dispatch_table
        from repro.evalharness.tables import run_all
        from repro.workloads import QUERY
        results = {"query": run_all(workloads=[QUERY])["query"]}
        table = build_dispatch_table(results)
        assert table.rows
        assert table.rows[0][1] == "cache_one_unchecked"
