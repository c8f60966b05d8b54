import subprocess
import sys
import time

import pytest

from sqss import cli
from sqss.adversary import Impersonate, NoAttack, PnsSplit, TagPhoton
from sqss.analysis import p_error_closed_form
from sqss.config import (
    ConfigError,
    SimConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)

FULL_CONFIG = """
# full example
receivers=3
mu=5.5
transmission=0.8
rounds=250
key_bits=0
adversary=pns
pns_channel=3
bs_ratio=0.5
parity_block=16
seed=123
dishonest_receiver=0
trace=false
"""


class TestParsing:
    def test_full_file(self):
        cfg = parse_config(FULL_CONFIG)
        assert cfg.receivers == 3
        assert cfg.mean_photons == 5.5
        assert cfg.transmission == 0.8
        assert cfg.rounds == 250
        assert cfg.adversary == "pns"
        assert cfg.pns_channel == 3
        assert cfg.bs_ratio == 0.5
        assert cfg.parity_block == 16
        assert cfg.seed == 123
        assert cfg.trace is False

    def test_defaults_when_empty(self):
        cfg = parse_config("# nothing but comments\n\n")
        assert cfg == SimConfig()

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("wavelength=1550\n")
        assert err.value.key == "wavelength"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("seed=1\nseed=2\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError) as err:
            parse_config("rounds=many\n")
        assert err.value.key == "rounds"

    def test_bool_spellings(self):
        assert parse_config("trace=true\n").trace is True
        assert parse_config("trace=1\n").trace is True
        assert parse_config("trace=no\n").trace is False
        with pytest.raises(ConfigError):
            parse_config("trace=maybe\n")

    def test_link_based_loss(self):
        cfg = parse_config("link.length_km=10\nlink.loss_db_per_km=0.2\n")
        cfg.validate()
        hops = cfg.hop_transmissions()
        assert len(hops) == 5
        assert hops[0] == pytest.approx(10 ** (-0.2))

    def test_round_trip(self):
        cfg = parse_config(FULL_CONFIG)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_with_link_loss(self):
        cfg = parse_config("link.length_km=25\nlink.loss_db_per_km=0.18\nseed=9\n")
        assert parse_config(serialize_config(cfg)) == cfg


class TestValidation:
    def test_defaults_validate(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "field,value,key",
        [
            ("receivers", 0, "receivers"),
            ("mean_photons", 0.0, "mu"),
            ("transmission", 1.5, "transmission"),
            ("transmission", 0.0, "transmission"),
            ("rounds", 0, "rounds"),
            ("target_key_bits", -1, "key_bits"),
            ("adversary", "quantum", "adversary"),
            ("pns_channel", 2, "pns_channel"),
            ("bs_ratio", 0.0, "bs_ratio"),
            ("bs_ratio", 1.2, "bs_ratio"),
            ("parity_block", -1, "parity_block"),
            ("seed", -1, "seed"),
            ("seed", 2**64, "seed"),
            ("dishonest_receiver", 5, "dishonest_receiver"),
        ],
    )
    def test_each_field_is_checked(self, field, value, key):
        cfg = SimConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.key == key

    def test_loss_specifications_are_exclusive(self):
        cfg = SimConfig(transmission=0.5, link_length_km=10.0, link_loss_db_per_km=0.2)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_link_fields_must_pair(self):
        cfg = SimConfig(link_length_km=10.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_pns_channel_must_fit_the_ring(self):
        cfg = SimConfig(receivers=1, adversary="pns", pns_channel=4)
        with pytest.raises(ConfigError):
            cfg.validate()
        SimConfig(receivers=2, adversary="pns", pns_channel=4).validate()

    def test_strategy_mapping(self):
        assert isinstance(SimConfig(adversary="none").strategy(), NoAttack)
        assert isinstance(SimConfig(adversary="tag").strategy(), TagPhoton)
        assert isinstance(SimConfig(adversary="impersonate").strategy(), Impersonate)
        pns = SimConfig(adversary="pns", pns_channel=3).strategy()
        assert isinstance(pns, PnsSplit) and pns.channel_index == 3

    def test_lossless_default_hops(self):
        assert SimConfig(receivers=2).hop_transmissions() == [1.0] * 5


class TestOverrides:
    def test_apply(self):
        cfg = SimConfig()
        out = apply_overrides(cfg, ["mu=3.5", "rounds=42"])
        assert out.mean_photons == 3.5
        assert out.rounds == 42
        assert cfg.rounds == 1000  # original untouched

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(SimConfig(), ["rounds"])
        with pytest.raises(ConfigError):
            apply_overrides(SimConfig(), ["no_such=1"])


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text(
        "receivers=2\nmu=6.0\nrounds=400\nparity_block=8\nseed=42\n", encoding="utf-8"
    )
    return path


class TestCliSimulate:
    def test_honest_run_reports_zero_qber(self, demo_config, capsys):
        code = cli.main(["simulate", "--config", str(demo_config)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_ACCEPT
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert report["qber"] == "0.0"
        assert report["verdict"] == "accept"
        assert report["alice_key_sha256"] == report["rec1_key_sha256"]

    def test_byte_identical_outputs(self, demo_config, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.main(["simulate", "--config", str(demo_config), "--out", str(out_a)])
        text_a = capsys.readouterr().out
        cli.main(["simulate", "--config", str(demo_config), "--out", str(out_b)])
        text_b = capsys.readouterr().out
        assert text_a == text_b
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_round_csv_round_trips(self, demo_config, tmp_path):
        out = tmp_path / "rounds.csv"
        cli.main(["simulate", "--config", str(demo_config), "--out", str(out), "--trace"])
        text = out.read_text(encoding="utf-8")
        records = cli.round_records_from_csv(text)
        assert cli.round_records_to_csv(records) == text
        assert records[0].trace is not None

    def test_impersonation_reports_qber_near_the_criterion(self, capsys):
        code = cli.main([
            "simulate",
            "--override", "adversary=impersonate",
            "--override", "transmission=0.5",
            "--override", "rounds=20000",
            "--override", "parity_block=0",
            "--seed", "77",
        ])
        out = capsys.readouterr().out
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        qber = float(report["qber"])
        assert abs(qber - 0.3) < 0.07
        assert code == cli.EXIT_ABORT_RETRY

    def test_dishonest_exit_code(self, capsys):
        code = cli.main([
            "simulate",
            "--override", "dishonest_receiver=1",
            "--override", "rounds=150",
            "--override", "parity_block=0",
            "--seed", "13",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_DISHONEST
        assert "flagged_receiver=1" in out

    def test_config_error_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mu=-2\n", encoding="utf-8")
        code = cli.main(["simulate", "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert "mu" in captured.err
        assert captured.out == ""  # no partial report

    def test_unreachable_key_bits_target_fails_fast(self):
        # The honest keep rate bounds every strategy, so a target it cannot
        # reach within the round cap is a configuration error up front.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sqss", "simulate",
             "--override", "key_bits=10", "--override", "transmission=1e-6"],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == cli.EXIT_CONFIG
        assert "key_bits" in proc.stderr
        assert proc.stdout == ""
        assert elapsed < 5.0

    def test_unwritable_output_path(self, demo_config, tmp_path, capsys):
        code = cli.main([
            "simulate", "--config", str(demo_config),
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err


class TestCliCurve:
    def test_default_grid_has_121_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.main(["curve", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "mu_t,p_e,p_error"
        assert len(lines) == 122

    def test_first_row_is_a_fair_coin(self, capsys):
        cli.main(["curve", "--start", "0", "--stop", "1", "--step", "0.5"])
        first = capsys.readouterr().out.strip().split("\n")[1]
        assert first == "0.0,0.0,0.5"

    def test_row_at_three_matches_the_working_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["curve", "--out", str(out)])
        points = cli.curve_points_from_csv(out.read_text(encoding="utf-8"))
        at_three = next(p for p in points if p.mu_t == 3.0)
        assert at_three.p_error == p_error_closed_form(6.0, 0.5)

    def test_csv_round_trips(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["curve", "--start", "0", "--stop", "4", "--step", "0.25", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        points = cli.curve_points_from_csv(text)
        assert cli.curve_points_to_csv(points) == text

    def test_bad_step_rejected(self, capsys):
        assert cli.main(["curve", "--step", "0"]) == cli.EXIT_CONFIG
        assert "step" in capsys.readouterr().err


class TestCliTable:
    def test_rows_are_permutations(self, capsys):
        assert cli.main(["table"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.strip().split("\n")[1:5]]
        for line in body:
            symbols = line.split()[1:]
            assert sorted(symbols) == sorted(["0", "pi/2", "pi/4", "-pi/4"])

    def test_top_left_entry_is_zero(self, capsys):
        cli.main(["table"])
        out = capsys.readouterr().out
        first_row = out.strip().split("\n")[1].split()
        assert first_row[0] == "0" and first_row[1] == "0"


class TestCliAttack:
    def test_unknown_strategy_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main(["attack", "teleport"])

    def test_tag_with_countermeasure(self, tmp_path, capsys):
        out = tmp_path / "attack.csv"
        code = cli.main([
            "attack", "tag",
            "--override", "bs_ratio=0.5",
            "--trials", "4000",
            "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        summary = cli.attack_summary_from_csv(out.read_text(encoding="utf-8"))
        assert summary.strategy == "tag"
        assert summary.reference == 0.5
        assert abs(summary.value - 0.5) < 3 * summary.std_error
        assert cli.attack_summary_to_csv(summary) == out.read_text(encoding="utf-8")

    def test_pns_accuracy_is_a_coin(self, capsys):
        code = cli.main([
            "attack", "pns",
            "--override", "transmission=0.5",
            "--trials", "4000",
            "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        value = float(report["bit_guess_accuracy"])
        assert abs(value - 0.5) < 3 * float(report["std_error"])

    def test_impersonate_matches_closed_form(self, capsys):
        code = cli.main([
            "attack", "impersonate",
            "--override", "transmission=0.5",
            "--trials", "20000",
            "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        value = float(report["induced_qber"])
        se = float(report["std_error"])
        assert report["reference"] == repr(p_error_closed_form(6.0, 0.5))
        assert abs(value - p_error_closed_form(6.0, 0.5)) < 3 * se

    @pytest.mark.parametrize(
        "extra", [[], ["--trials", "5000"], ["--trials", "0"]], ids=["default", "5000", "0"]
    )
    def test_impersonate_too_few_trials_fails_fast(self, extra):
        # The default config runs 1000 rounds, below the Monte Carlo's minimum.
        proc = subprocess.run(
            [sys.executable, "-m", "sqss", "attack", "impersonate", *extra],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert "trials" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
