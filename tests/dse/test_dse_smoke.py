"""CI smoke: the seeded `repro dse` search is byte-reproducible.

Runs the CLI twice — 16-point seeded random search on gcn-cora under
the analytical NoC backend — and asserts the two Pareto JSON reports
are byte-identical (the second run is served almost entirely from the
result cache, which must not leak into the report).  On failure the
report is left at ``$REPRO_DSE_REPORT`` (when set) so the CI job can
upload it as an artifact.
"""

import json
import os
import shutil

import pytest

from repro.cli import main


@pytest.fixture
def artifact_path(tmp_path):
    """Where the CI job looks for the failing report."""
    return os.environ.get(
        "REPRO_DSE_REPORT", str(tmp_path / "dse-smoke-report.json")
    )


class TestDseSmoke:
    def test_seeded_search_is_byte_identical_across_runs(
        self, tmp_path, capsys, artifact_path
    ):
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        argv = ["dse", "gcn-cora", "--driver", "random", "--points", "16",
                "--seed", "7", "--noc-backend", "analytical", "--jobs", "1",
                "--quiet"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        capsys.readouterr()
        first, second = out1.read_bytes(), out2.read_bytes()
        if first != second:  # pragma: no cover - failure diagnostics
            shutil.copy(out1, artifact_path)
            pytest.fail(
                f"dse reports differ across runs; first saved to "
                f"{artifact_path}"
            )
        doc = json.loads(first)
        assert doc["schema_version"] == 2
        assert doc["counts"]["evaluated"] == 16
        assert doc["counts"]["failed"] == 0
        assert doc["frontier"]

    def test_terminal_table_names_the_frontier(self, capsys):
        # Cache is warm from the run above; this exercises the table path.
        assert main(["dse", "gcn-cora", "--driver", "random", "--points",
                     "16", "--seed", "7", "--noc-backend", "analytical",
                     "--jobs", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier — gcn-cora" in out
        assert "hypervolume proxy" in out
