"""The committed CLI matrix (``tools/cli_matrix.py``) runs, and every
scenario exits with the code listed for it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py"


def load_matrix():
    spec = importlib.util.spec_from_file_location("cli_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scenario_exits_as_listed(tmp_path):
    matrix = load_matrix()
    codes = matrix.run_matrix(tmp_path)
    assert codes == {name: code for name, (_, code) in matrix.SCENARIOS.items()}
    for name, (argv, code) in matrix.SCENARIOS.items():
        assert (tmp_path / f"{name}.txt").read_text().endswith(f"exit={code}\n")
        # a configuration error writes no partial CSV
        wrote = argv[-1] == "--out" and code != matrix.CONFIG
        assert (tmp_path / f"{name}.csv").exists() == wrote
    # a tag ring that keeps no round scores Eve on no trial
    assert "eve_recovery_rate" not in (tmp_path / "tag_none_kept.txt").read_text()
    assert "trials=0\n" in (tmp_path / "attack_tag_none_kept.txt").read_text()
