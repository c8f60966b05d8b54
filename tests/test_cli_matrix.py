"""The committed CLI matrix (``tools/cli_matrix.py``) runs, and every
scenario exits with the code listed for it."""

from pathlib import Path

from session_records import load_script

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py"


def test_every_scenario_exits_as_listed(tmp_path):
    matrix = load_script(SCRIPT)
    codes = matrix.run_matrix(tmp_path)
    assert codes == {name: code for name, (_, code) in matrix.SCENARIOS.items()}
    for name, (argv, code) in matrix.SCENARIOS.items():
        assert (tmp_path / f"{name}.txt").read_text().endswith(f"exit={code}\n")
        # a configuration error writes no partial CSV
        wrote = argv[-1] == "--out" and code != matrix.CONFIG
        assert (tmp_path / f"{name}.csv").exists() == wrote
    # a tag ring that keeps no round scores Eve on no trial
    assert "eve_recovery_rate" not in (tmp_path / "tag_none_kept.txt").read_text()
    none_kept = (tmp_path / "attack_tag_none_kept.txt").read_text()
    assert "trials=0\n" in none_kept
    assert "sifted_bit_recovery_rate=nan\n" in none_kept and "std_error=nan\n" in none_kept
