import contextlib
import csv
import io
import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from session_records import load_script, recorded

from sqss import analysis, cli, protocol
from sqss.analysis import error_curve, p_error_closed_form
from sqss.config import (
    _MAX_MEAN_PHOTONS,
    MAX_RECEIVERS,
    MAX_ROUNDS,
    ConfigError,
    SimConfig,
    apply_overrides,
    load_config,
    parse_config,
)
from sqss.protocol import _run_round

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
        assert parse_config(FULL_CONFIG) == SimConfig(
            receivers=3, mean_photons=5.5, transmission=0.8, rounds=250, target_key_bits=0,
            adversary="pns", pns_channel=3, bs_ratio=0.5, parity_block=16, seed=123,
            dishonest_receiver=0, trace=False,
        )

    def test_defaults_when_empty(self):
        cfg = parse_config("# nothing but comments\n\n")
        assert cfg == SimConfig()

    def test_unknown_key(self):
        for err in raised_by_both("wavelength=1550"):
            assert (err.key, str(err)) == ("wavelength", "config key 'wavelength': unknown key")

    def test_duplicate_key(self):
        # a file names each key once; repeated overrides are last-wins
        with pytest.raises(ConfigError) as err:
            parse_config("seed=1\nseed=2\n")
        assert err.value.key == "seed"
        assert str(err.value) == "config key 'seed': duplicated on line 2"
        assert apply_overrides(SimConfig(), ["seed=1", "seed=2"]).seed == 2

    def test_line_without_equals(self):
        in_file, in_override = raised_by_both("just some words")
        assert in_file.key == in_override.key == "just some words"
        assert str(in_file).endswith(": line 1 is not a key=value pair")
        assert str(in_override).endswith(": override must look like key=value")

    def test_bad_value_type(self):
        for key, bad, kind in [("rounds", "many", "int"), ("mu", "bright", "float"),
                               ("trace", "maybe", "a boolean")]:
            for err in raised_by_both(f"{key}={bad}"):
                assert err.key == key
                assert str(err) == f"config key '{key}': expected {kind}, got '{bad}'"

    def test_bool_spellings(self):
        for raw, value in [("true", True), ("1", True), ("yes", True), ("TRUE", True),
                           ("false", False), ("0", False), ("no", False), ("No", False)]:
            read_file = parse_config(f"trace={raw}\n")
            read_override = apply_overrides(SimConfig(), [f"trace={raw}"])
            assert read_file.trace is read_override.trace is value, raw

    def test_link_based_loss(self):
        cfg = parse_config("link.length_km=10\nlink.loss_db_per_km=0.2\n")
        cfg.validate()
        hops = cfg.hop_transmissions()
        assert len(hops) == 5
        assert hops[0] == pytest.approx(10 ** (-0.2))


class TestValidation:
    def test_defaults_validate(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "field,value,key",
        [
            ("receivers", 0, "receivers"),
            ("receivers", MAX_RECEIVERS + 1, "receivers"),
            ("mean_photons", 0.0, "mu"),
            ("mean_photons", float("nan"), "mu"),
            ("mean_photons", float("inf"), "mu"),
            ("mean_photons", 1e20, "mu"),
            ("transmission", 1.5, "transmission"),
            ("transmission", 0.0, "transmission"),
            ("rounds", 0, "rounds"),
            ("rounds", 10**7 + 1, "rounds"),
            ("target_key_bits", -1, "key_bits"),
            ("adversary", "quantum", "adversary"),
            ("pns_channel", 2, "pns_channel"),
            ("bs_ratio", 0.0, "bs_ratio"),
            ("bs_ratio", 1.2, "bs_ratio"),
            ("parity_block", -1, "parity_block"),
            ("parity_block", 10**7 + 1, "parity_block"),
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

    def test_round_cap_is_inclusive(self):
        # target mode stops at the same 10^7 rounds
        assert MAX_ROUNDS == 10**7
        SimConfig(rounds=MAX_ROUNDS, parity_block=MAX_ROUNDS).validate()

    def test_largest_poisson_mean_is_accepted(self):
        # the bound on mu is exactly the largest mean a count can be drawn
        # from (an impersonator on a lossless ring counts the whole pulse)
        def draw_source(mu):
            config = SimConfig(receivers=1, mean_photons=mu, adversary="impersonate")
            _run_round(1, config, np.random.default_rng(0))

        SimConfig(mean_photons=_MAX_MEAN_PHOTONS).validate()
        draw_source(_MAX_MEAN_PHOTONS)
        beyond = math.nextafter(_MAX_MEAN_PHOTONS, math.inf)
        with pytest.raises(ConfigError):
            SimConfig(mean_photons=beyond).validate()
        with pytest.raises(ValueError):
            draw_source(beyond)

    def test_loss_specifications_are_exclusive(self):
        cfg = SimConfig(transmission=0.5, link_length_km=10.0, link_loss_db_per_km=0.2)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_link_fields_must_pair(self):
        cfg = SimConfig(link_length_km=10.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("length,loss", [(100_000.0, 0.2), (0.0, float("inf"))],
                             ids=["underflow", "nan"])
    def test_link_transmission_must_be_positive(self, length, loss):
        # 20,000 dB of loss underflows to a transmission of 0.0; 0 km times
        # an infinite loss is NaN
        cfg = SimConfig(link_length_km=length, link_loss_db_per_km=loss)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.key == "link.length_km"

    @pytest.mark.parametrize("length,loss,key", [
        (-10.0, 0.2, "link.length_km"),
        (-10.0, -0.2, "link.length_km"),  # their product is a transmission in (0, 1]
        (10.0, -0.2, "link.loss_db_per_km"),
    ], ids=["length", "both", "loss"])
    def test_link_fields_must_not_be_negative(self, length, loss, key):
        cfg = SimConfig(link_length_km=length, link_loss_db_per_km=loss)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.key == key

    def test_pns_channel_must_fit_the_ring(self):
        cfg = SimConfig(receivers=1, adversary="pns", pns_channel=4)
        with pytest.raises(ConfigError):
            cfg.validate()
        SimConfig(receivers=2, adversary="pns", pns_channel=4).validate()

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
        cfg = SimConfig()
        with pytest.raises(ConfigError) as err:
            apply_overrides(cfg, ["rounds=42", "rounds"])
        assert err.value.key == "rounds"
        assert cfg == SimConfig()  # the config it was given is untouched


ROUND_HEADER = [
    "index", "theta", "phis", "shuffles", "basis_choice", "bit", "key_angle", "rect_outcome",
    "diag_outcome", "status", "measured_angle", "decoded_angle", "decoded_bit", "trace",
]
OUTCOME_TEXT = {0: "angle:0", 1: "angle:1", 2: "angle:2", 3: "angle:3", 4: "vacuum", 5: "ambiguous"}
DISCARD_STATUS = {4: "vacuum_discard", 5: "ambiguous_discard"}


def assert_round_csv_matches(text, table):
    """Every field of a per-round CSV equals its ``RoundTable`` source exactly;
    returns the status column."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ROUND_HEADER
    assert len(rows) == len(table) + 1
    if table.trace_stages:  # (rounds, stages), folded from the rotation ledger
        polarizations = np.column_stack(list(protocol._polarizations(table)))
    for i, row in enumerate(rows[1:]):
        (index, theta, phis, shuffles, j, bit, key, rect, diag, status,
         measured, decoded, decoded_bit, trace) = row
        assert int(index) == i
        assert float(theta) == table.theta[i]
        assert [float(phi) for phi in phis.split(";")] == table.phis[i].tolist()
        assert [int(s) for s in shuffles.split(";")] == table.shuffles[i].tolist()
        assert int(j) == table.basis_choice[i] and int(bit) == table.bit[i]
        assert int(key) == 2 * int(bit) + int(j) - 1
        assert rect == OUTCOME_TEXT[table.rect[i]] and diag == OUTCOME_TEXT[table.diag[i]]
        code = int(table.sifted[i])
        if code < 4:
            assert status == "kept" and int(measured) == code
            assert int(decoded) == table.decoded[i] and int(decoded_bit) == table.decoded[i] // 2
        else:
            assert status == DISCARD_STATUS[code]
            assert measured == decoded == decoded_bit == ""
        hops = [hop.split(":") for hop in trace.split("|")] if trace else []
        assert [stage for stage, _, _ in hops] == list(table.trace_stages)
        assert [int(n) for _, n, _ in hops] == ([] if not hops else table.trace_photons[i].tolist())
        assert [float(pol) for _, _, pol in hops] == (
            [] if not hops else polarizations[i].tolist()
        )
    return [row[9] for row in rows[1:]]


def assert_fails_fast(args, key):
    """``sqss *args`` exits 64 naming config key ``key``, with no traceback
    and no partial report."""
    proc = subprocess.run(
        [sys.executable, "-m", "sqss", *args], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert f"'{key}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def raised_by_both(item):
    """The ConfigErrors ``item`` raises as a one-line file and as an override."""
    errors = []
    for read in (lambda: parse_config(item + "\n"), lambda: apply_overrides(SimConfig(), [item])):
        with pytest.raises(ConfigError) as err:
            read()
        errors.append(err.value)
    return errors


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

    @pytest.mark.parametrize("overrides", [
        ["receivers=3", "rounds=5000"],
        ["receivers=3", "adversary=pns", "transmission=0.9", "rounds=5000"],
        *(["receivers=5", "adversary=pns", f"pns_channel={c}", "transmission=0.9", "rounds=5000"]
          for c in (1, 3, 4)),
        # two chunks: Eve's second chunk follows the first chunk's records
        ["receivers=5", "adversary=pns", "pns_channel=3", "transmission=0.9", "rounds=70000"],
    ], ids=["honest_n3", "pns_n3", "pns_n5_c1", "pns_n5_c3", "pns_n5_c4", "pns_n5_c3_70k"])
    def test_records_do_not_move_the_report(self, overrides, tmp_path, capsys):
        # the records' draws come from a stream of their own, apart from Eve's
        args = ["simulate", "--seed", "12"] + [a for o in overrides for a in ("--override", o)]
        assert cli.main(args) == cli.EXIT_ACCEPT
        plain = capsys.readouterr().out
        assert cli.main([*args, "--out", str(tmp_path / "rounds.csv")]) == cli.EXIT_ACCEPT
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("config", [
        SimConfig(receivers=3, rounds=5000),
        SimConfig(receivers=3, transmission=0.8, bs_ratio=0.5, rounds=5000),
        *(SimConfig(receivers=5, adversary="pns", pns_channel=c, transmission=0.9, rounds=5000)
          for c in (1, 3, 4)),
        SimConfig(adversary="tag", bs_ratio=0.5, rounds=5000),
        SimConfig(adversary="impersonate", transmission=0.5, rounds=5000),
        SimConfig(receivers=3, dishonest_receiver=2, rounds=5000),
        SimConfig(target_key_bits=5000),
        # two chunks: the second chunk's physics follows the first's trace
        SimConfig(receivers=5, adversary="pns", pns_channel=3, transmission=0.9, rounds=70000),
    ], ids=["honest_n3", "lossy_split", "pns_n5_c1", "pns_n5_c3", "pns_n5_c4", "tag",
            "impersonate", "dishonest", "key_bits", "pns_n5_c3_70k"])
    def test_trace_does_not_move_the_session(self, config):
        # the trace is drawn behind each chunk from the records' stream, after the secrets
        config.seed = 12
        traced, _ = recorded(replace(config, trace=True))
        assert traced == recorded(config)[0] == protocol.run_session(config)

    def test_trace_does_not_move_the_report(self, tmp_path, capsys):
        # every traced scenario of the CLI matrix prints the report of its untraced twin
        matrix = load_script(Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py")
        sessions = [(argv, [a for a in argv if a != "--trace"])
                    for name, (argv, _) in matrix.SCENARIOS.items() if name.startswith("trace_")]
        text = matrix.CONFIG_FILES["config_file"]
        assert sessions and "trace = true\n" in text
        for k, body in enumerate((text, text.replace("trace = true\n", ""))):
            (tmp_path / f"{k}.cfg").write_text(body, encoding="utf-8")
        sessions.append([["simulate", "--config", str(tmp_path / f"{k}.cfg"), "--out"]
                         for k in (0, 1)])
        for traced, untraced in sessions:
            assert traced != untraced and traced[-1] == untraced[-1] == "--out"
            reports = []
            for argv in (traced, untraced):
                code = cli.main([*argv, str(tmp_path / "rounds.csv")])
                reports.append((code, capsys.readouterr().out))
            assert reports[0] == reports[1], traced

    def test_round_csv_round_trips(self, demo_config, tmp_path, capsys):
        sessions = [
            (["--config", str(demo_config), "--trace"], load_config(demo_config)),
            (["--override", "receivers=5", "--override", "transmission=0.9",
              "--override", "adversary=pns", "--override", "rounds=2000", "--seed", "4",
              "--trace"],
             SimConfig(receivers=5, transmission=0.9, adversary="pns", rounds=2000, seed=4)),
            (["--override", "dishonest_receiver=2", "--override", "receivers=3",
              "--override", "rounds=1000", "--seed", "6"],
             SimConfig(dishonest_receiver=2, receivers=3, rounds=1000, seed=6)),
            # the only one of the four that reads ambiguous arms
            (["--override", "adversary=impersonate", "--override", "rounds=1000",
              "--seed", "8", "--trace"],
             SimConfig(adversary="impersonate", rounds=1000, seed=8)),
        ]
        statuses = set()
        for k, (args, config) in enumerate(sessions):
            out = tmp_path / f"rounds{k}.csv"
            cli.main(["simulate", *args, "--out", str(out)])
            config.trace = "--trace" in args
            _, table = recorded(config)
            stages = 2 * config.receivers + 2 + (config.adversary == "impersonate")
            assert len(table.trace_stages) == (stages if config.trace else 0)
            statuses |= set(assert_round_csv_matches(out.read_text(encoding="utf-8"), table))
        capsys.readouterr()
        # discarded rows, whose fields are blank, are covered
        assert statuses == {"kept", "vacuum_discard", "ambiguous_discard"}

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

    @pytest.mark.parametrize(
        "rounds,mu", [("4", "1e-300"), ("1", "50")], ids=["none-kept", "none-survived"]
    )
    def test_empty_final_key_exit_code(self, rounds, mu, capsys):
        code = cli.main(["simulate", "--override", f"rounds={rounds}", "--override", f"mu={mu}"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_ABORT_RETRY
        assert "final_key_bits=0" in out and "verdict=abort_retry" in out

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

    def test_key_bits_reach_uses_the_honest_keep_rate(self, monkeypatch, capsys):
        # At N=2 the pulse crosses 2N + 1 = 5 hops of T=0.9 before Rec-1, so
        # 20,000 rounds keep about 16,598 bits; one hop fewer would reach 17,206.
        class RoundRan(Exception):
            pass

        def no_round(*_):
            raise RoundRan

        monkeypatch.setattr(protocol, "MAX_ROUNDS", 20_000)
        monkeypatch.setattr(protocol, "_run_round", no_round)
        reachable = 20_000 * -math.expm1(-6.0 * 0.9**5 / 2.0)
        ring = ["--override", "receivers=2", "--override", "mu=6",
                "--override", "transmission=0.9"]
        above = cli.main(["simulate", *ring, "--override", f"key_bits={math.floor(reachable) + 1}"])
        captured = capsys.readouterr()
        assert above == cli.EXIT_CONFIG
        assert "'key_bits'" in captured.err and "need more than 20000 rounds" in captured.err
        assert captured.out == ""
        below = SimConfig(mean_photons=6.0, transmission=0.9,
                          target_key_bits=math.floor(reachable))
        with pytest.raises(RoundRan):
            protocol.run_session(below)

    def test_key_bits_target_an_attack_puts_out_of_reach_fails_cleanly(self, monkeypatch,
                                                                       tmp_path, capsys):
        # The up-front check passes at the honest keep rate, which Eve's
        # skimmed photons lower: the round cap is hit mid-session, after
        # the rows of the chunks before it went to the CSV.
        monkeypatch.setattr(protocol, "MAX_ROUNDS", 20_000)
        out = tmp_path / "rounds.csv"
        code = cli.main(["simulate", "--override", "key_bits=140",
                         "--override", "transmission=0.3", "--override", "adversary=pns",
                         "--override", "pns_channel=1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert "'key_bits'" in captured.err and "20000 rounds" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_config_file_that_is_not_utf8_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"mu=\xff\n")
        code = cli.main(["simulate", "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert "'config'" in captured.err and str(bad) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args,key",
        [
            (["simulate", "--override", "mu=nan"], "mu"),
            (["simulate", "--override", "mu=inf"], "mu"),
            (["simulate", "--override", "mu=1e20"], "mu"),
            (["attack", "impersonate", "--override", "mu=nan"], "mu"),
            (["simulate", "--override", "link.length_km=100000",
              "--override", "link.loss_db_per_km=0.2"], "link.length_km"),
            # a gain: validation names the key before the link's transmission is computed
            (["simulate", "--override", "link.length_km=10",
              "--override", "link.loss_db_per_km=-0.2"], "link.loss_db_per_km"),
        ],
        ids=["mu-nan", "mu-inf", "mu-huge", "attack-mu-nan", "link-underflow", "link-gain"],
    )
    def test_non_finite_light_settings_fail_fast(self, args, key):
        assert_fails_fast(args, key)

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_split_share_that_underflows_fails_fast(self, trace):
        # Alice's box passes on hop N+1's share times bs_ratio, 0.5 * 5e-324 == 0,
        # which a traced ring would thin its count by
        args = ["simulate", "--override", "transmission=0.5", "--override", "bs_ratio=5e-324",
                "--override", "rounds=20"]
        assert_fails_fast(args + (["--trace"] if trace else []), "bs_ratio")

    @pytest.mark.parametrize(
        "args,row",
        [
            (["attack", "impersonate", "--override", "mu=1e16", "--trials", "10000"], -1),
            (["curve", "--start", "3e15", "--stop", "3e15"], 1),
        ],
        ids=["attack-mu", "curve-range"],
    )
    def test_bright_intercepted_mean_saturates(self, args, row):
        # past USD_SATURATION photons Eve's discrimination fails with 2^-53 and
        # her guess then flips half the bits; the walk, one draw per run of
        # equal success, at most 54, ends there at once
        proc = subprocess.run(
            [sys.executable, "-m", "sqss", *args], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        p_error = float(proc.stdout.strip().split("\n")[row].replace("=", ",").split(",")[-1])
        assert p_error == pytest.approx(2.0**-54)

    @pytest.mark.parametrize(
        "args,key",
        [
            (["simulate", "--override", "parity_block=99999999999999999999999"], "parity_block"),
            (["simulate", "--override", "rounds=100000000000000000000"], "rounds"),
            (["attack", "pns", "--trials", "100000000000000000000"], "trials"),
            (["attack", "tag", "--trials", str(10**7 + 1)], "trials"),
            (["attack", "impersonate", "--trials", str(2**63)], "trials"),
        ],
        ids=["parity_block", "rounds", "attack-pns-trials", "attack-tag-trials",
             "attack-impersonate-trials"],
    )
    def test_work_beyond_the_round_cap_fails_fast(self, args, key):
        # each would overflow or run for hours; the timeout guards a regression
        assert_fails_fast(args, key)

    @pytest.mark.parametrize("args", [
        ["simulate", "--override", f"receivers={MAX_RECEIVERS + 1}"],
        ["attack", "tag", "--override", "receivers=1000000000000000000000000000000"],
    ], ids=["simulate", "attack-tag"])
    def test_ring_beyond_the_receiver_cap_fails_fast(self, args):
        # a chunk of either ring would need gigabytes; validation stops it first
        assert_fails_fast(args, "receivers")

    def test_csv_memory_does_not_grow_with_the_chunks(self, tmp_path, monkeypatch, capsys):
        # Each chunk's rows are written as they come and the chunk is let go:
        # six chunks peak within 1.3% of one (1,722 against 1,700 KB here),
        # where a session that kept and joined them peaked 5.96 times as high.
        monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 2048)

        def peak(rounds):
            args = ["simulate", "--trace", "--override", "receivers=5",
                    "--override", f"rounds={rounds}", "--out", str(tmp_path / f"{rounds}.csv")]
            tracemalloc.start()
            try:
                assert cli.main(args) == cli.EXIT_ACCEPT
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # warm-up: first-call allocations
        one, six = peak(2048), peak(6 * 2048)
        capsys.readouterr()
        assert len((tmp_path / f"{6 * 2048}.csv").read_text().splitlines()) == 6 * 2048 + 1
        assert six < 1.2 * one, f"{six / one:.2f} times the one-chunk peak"

    def test_unwritable_output_path(self, demo_config, tmp_path, monkeypatch, capsys):
        # the CSV is opened before the first round, so no round may run
        def no_round(*_):
            raise AssertionError("a round ran")

        monkeypatch.setattr(protocol, "_run_round", no_round)
        code = cli.main([
            "simulate", "--config", str(demo_config),
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("trace", [["--trace"], ["--override", "trace=true"]],
                             ids=["flag", "config"])
    def test_trace_without_output_path_fails_fast(self, trace, monkeypatch, capsys):
        # the trace is only ever written to the per-round CSV, so without
        # --out no round may count the light for nothing
        def no_round(*_):
            raise AssertionError("a round ran")

        monkeypatch.setattr(protocol, "_run_round", no_round)
        code = cli.main(["simulate", *trace, "--override", "rounds=100000"])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "'trace'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("strategy", ["pns", "tag", "impersonate"])
    def test_attack_unwritable_output_path(self, strategy, tmp_path, monkeypatch, capsys):
        # attack opens its --out before the session or the Monte Carlo runs
        def no_work(*_):
            raise AssertionError("the attack ran")

        monkeypatch.setattr(protocol, "_run_round", no_work)
        monkeypatch.setattr(analysis, "monte_carlo_p_error", no_work)
        code = cli.main(["attack", strategy, "--trials", "20000",
                         "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""


# a `curve` flag: the edges of its checks, and any float
GRID_FLAG = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-9, 0.1, 1.0,
                     math.nextafter(1e5, 0.0), 1e5, math.nextafter(1e5, math.inf),
                     1e30, math.nan, math.inf, -math.inf]),
    st.floats(),
)


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
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        at_three = next(row for row in rows if float(row["mu_t"]) == 3.0)
        assert float(at_three["p_error"]) == p_error_closed_form(6.0, 0.5)

    def test_csv_round_trips(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["curve", "--start", "0", "--stop", "4", "--step", "0.25", "--out", str(out)])
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["mu_t", "p_e", "p_error"]
        points = error_curve([i * 0.25 for i in range(17)])
        assert len(rows) == len(points) + 1
        for row, point in zip(rows[1:], points):
            assert [float(v) for v in row] == [point.mu_t, point.p_e, point.p_error]

    def test_bad_step_rejected(self, capsys):
        assert cli.main(["curve", "--step", "0"]) == cli.EXIT_CONFIG
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [(["--stop", "inf"], "range"), (["--start", "nan"], "range"),
         (["--stop", "nan"], "range"), (["--step", "nan"], "step"), (["--step", "inf"], "step")],
        ids=["stop-inf", "start-nan", "stop-nan", "step-nan", "step-inf"],
    )
    def test_non_finite_grid_rejected(self, args, key, capsys):
        assert cli.main(["curve", *args]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,code",
        [([], 0), (["--step", "1e-300"], cli.EXIT_CONFIG),
         (["--stop", "1e5", "--step", "1"], cli.EXIT_CONFIG)],
        ids=["default", "tiny-step", "long-grid"],
    )
    def test_grid_work_is_bounded(self, args, code, capsys):
        assert cli.main(["curve", *args]) == code
        captured = capsys.readouterr()
        assert ("step" in captured.err) == (code == cli.EXIT_CONFIG)

    @pytest.mark.parametrize("stop", ["1e5", "1"])
    def test_grid_never_steps_past_stop(self, stop, capsys):
        # the last point of floor(span + 1e-9) + 1 lands 1e-9 past stop here,
        # at 1e5 as at 1
        assert cli.main(["curve", "--start", "1e-9", "--stop", stop, "--step", stop]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert float(rows[-1].split(",")[0]) == float(stop)

    @settings(max_examples=300, deadline=None)
    @given(GRID_FLAG, GRID_FLAG, GRID_FLAG)
    @example(1e-9, 1e5, 1e5)
    def test_any_grid_flags_print_or_name_the_flag(self, start, stop, step):
        out, err = io.StringIO(), io.StringIO()
        # "--flag=value" keeps argparse from reading "-inf" as a flag
        argv = ["curve", f"--start={start!r}", f"--stop={stop!r}", f"--step={step!r}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == cli.EXIT_CONFIG:
            assert "'range'" in err.getvalue() or "'step'" in err.getvalue()
            return
        assert code == 0
        mu_t = [float(row.split(",")[0]) for row in out.getvalue().strip().split("\n")[1:]]
        assert mu_t and all(0.0 <= value <= stop for value in mu_t)


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
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().split("\n"))
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["strategy", "trials", "metric", "value", "std_error", "reference"]
        assert len(rows) == 2
        strategy, trials, metric, value, std_error, reference = rows[1]
        assert strategy == report["strategy"] == "tag"
        assert int(trials) == int(report["trials"])
        assert metric == "sifted_bit_recovery_rate"
        assert float(value) == float(report[metric])
        assert float(std_error) == float(report["std_error"])
        assert float(reference) == float(report["reference"]) == 0.5
        assert abs(float(value) - 0.5) < 3 * float(std_error)

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

    def test_impersonate_trials_are_not_capped(self, capsys):
        # the Monte Carlo costs O(classes) whatever its trial count
        assert cli.main(["attack", "impersonate", "--trials", str(10**12)]) == cli.EXIT_ACCEPT
        assert f"trials={10**12}" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["pns", "tag"])
    def test_pns_and_tag_never_compress_a_key(self, strategy, monkeypatch, capsys):
        # the report reads only Eve's counts, so no key is reconciled or hashed
        def no_compress(*_):
            raise AssertionError("a key was compressed")

        monkeypatch.setattr(protocol, "toeplitz_compress", no_compress)
        argv = ["attack", strategy, "--override", "bs_ratio=0.5", "--trials", "4000"]
        assert cli.main(argv) == cli.EXIT_ACCEPT
        assert f"strategy={strategy}" in capsys.readouterr().out

    def test_pns_ignores_trace(self, capsys):
        # attack writes no per-round CSV, so trace must not move its figures
        argv = ["attack", "pns", "--seed", "5", "--trials", "20000",
                "--override", "receivers=5", "--override", "transmission=0.9"]
        assert cli.main(argv) == cli.EXIT_ACCEPT
        plain = capsys.readouterr().out
        assert cli.main([*argv, "--override", "trace=true"]) == cli.EXIT_ACCEPT
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("strategy", ["pns", "tag"])
    def test_zero_trials_names_trials(self, strategy, capsys):
        assert cli.main(["attack", strategy, "--trials", "0"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "trials" in err and "'rounds'" not in err
