"""Run a fixed matrix of ``sqss`` command lines and write every output to a directory.

Usage: ``PYTHONPATH=<checkout>/src python tools/cli_matrix.py OUTDIR``

Each scenario runs in-process through ``sqss.cli.main`` and leaves
``OUTDIR/<name>.txt``, its stdout and stderr followed by its exit code,
plus ``OUTDIR/<name>.csv`` where the scenario writes ``--out``. A
scenario listed in ``CONFIG_FILES`` first writes its file to
``OUTDIR/<name>.cfg`` and reads it with ``--config``. The
``sqss`` package is whichever one ``PYTHONPATH`` puts first, so two
checkouts run into two directories compare with ``diff -r``: the same
seed and configuration must give byte-identical output. Exits 1 when a
scenario's exit code is not the one listed for it.

To compare a change with its parent commit, export the parent beside
it and run each checkout's own copy of this script, on its own ``src``,
into its own directory. ``git archive`` writes nothing under ``.git``,
so a run that is killed leaves no worktree registered there
(``tools/bench_pairs.py`` exports its reference the same way)::

    mkdir ../parent && git archive <parent-commit> | tar -x -C ../parent
    (cd ../parent && PYTHONPATH=src python tools/cli_matrix.py /tmp/matrix-parent)
    PYTHONPATH=src python tools/cli_matrix.py /tmp/matrix-change
    diff -r /tmp/matrix-parent /tmp/matrix-change

Never run a newer matrix against older code: a scenario that the newer
code runs may fail or exhaust memory on the older. Code that kept every
round of a traced or recorded session until the end holds a table and
its CSV text in memory at once, so the matrix's largest ``--out``
sessions (``records_70k``, ``trace_70k`` and ``pns_n5_c3_70k``, two
chunks each) stay small enough for it; a traced 150-receiver session of
10^7 rounds would need tens of GB there. ``curve_stop_edge`` crashes
on code whose curve grid can step past ``--stop``, and
``attack_impersonate_bright`` exits 64 on code that bounds mu*T.
The config-file scenarios (``config_*``), ``override_no_equals``,
``attack_tag_zero_trials`` and ``attack_impersonate_9999_trials`` use
only what the code before them already had, so a matrix with them
still runs on that code; only the pns/tag ``--trials`` message in
``attack_tag_zero_trials`` differs there.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from sqss.cli import main

ACCEPT, ABORT, DISHONEST, CONFIG = 0, 2, 3, 64


def _simulate(*overrides: str, trace: bool = False, out: bool = True) -> list[str]:
    args = ["simulate", "--seed", "5"]
    for item in overrides:
        args += ["--override", item]
    return args + (["--trace"] if trace else []) + (["--out"] if out else [])


# name -> (argv, expected exit code); a trailing "--out" gets the scenario's CSV path
SCENARIOS: dict[str, tuple[list[str], int]] = {
    "honest": (_simulate("rounds=2000"), ACCEPT),
    "n5_t09": (_simulate("receivers=5", "transmission=0.9", "rounds=2000"), ACCEPT),
    "link": (_simulate("link.length_km=5", "link.loss_db_per_km=0.2", "rounds=2000"), ACCEPT),
    "pns_c1": (_simulate("adversary=pns", "pns_channel=1", "transmission=0.9",
                         "rounds=2000"), ACCEPT),
    "pns_c3": (_simulate("adversary=pns", "pns_channel=3", "transmission=0.9",
                         "rounds=2000"), ACCEPT),
    "pns_c4": (_simulate("adversary=pns", "pns_channel=4", "transmission=0.9",
                         "rounds=2000"), ACCEPT),
    "pns_n5_c4": (_simulate("receivers=5", "adversary=pns", "pns_channel=4",
                            "transmission=0.9", "rounds=2000"), ACCEPT),
    "pns_n1_c3": (_simulate("receivers=1", "adversary=pns", "pns_channel=3",
                            "transmission=0.9", "rounds=2000"), ACCEPT),
    # Eve's fold reads theta alone, whatever the width; 301 lossy hops leave no key
    "pns_n150_c1": (_simulate("receivers=150", "adversary=pns", "pns_channel=1",
                              "transmission=0.9", "rounds=2000", out=False), ABORT),
    # two chunks: Eve's part of the secrets runs on across the boundary, past the records'
    "pns_n5_c3_70k": (_simulate("receivers=5", "adversary=pns", "pns_channel=3",
                                "transmission=0.9", "rounds=70000"), ACCEPT),
    "tag": (_simulate("adversary=tag", "bs_ratio=0.5", "rounds=2000"), ACCEPT),
    "tag_t08": (_simulate("adversary=tag", "bs_ratio=0.5", "transmission=0.8",
                          "rounds=2000"), ACCEPT),
    # a ring that keeps no round scores Eve on no trial: no rate line, and no key
    "tag_none_kept": (_simulate("adversary=tag", "bs_ratio=0.5", "mu=1e-9", "rounds=1000",
                                out=False), ABORT),
    "impersonate": (_simulate("adversary=impersonate", "transmission=0.5",
                              "rounds=2000"), ABORT),
    # two chunks with no records: sifting reads the split arm of Eve's odd offsets in each
    "impersonate_70k": (_simulate("adversary=impersonate", "transmission=0.5", "rounds=70000",
                                  out=False), ABORT),
    "dishonest": (_simulate("receivers=3", "dishonest_receiver=2", "rounds=2000"), DISHONEST),
    # two chunks: the liar's corruption of the first is drawn before the second's physics
    "dishonest_70k": (_simulate("receivers=3", "dishonest_receiver=2", "rounds=70000", out=False),
                      DISHONEST),
    "key_bits": (_simulate("key_bits=5000"), ACCEPT),
    # the target cut on a session whose other arm is never ranked
    "pns_c1_key_bits": (_simulate("adversary=pns", "pns_channel=1", "transmission=0.9",
                                  "key_bits=3000", out=False), ACCEPT),
    "honest_n150": (_simulate("receivers=150", "rounds=500"), ACCEPT),
    "rounds_200k": (_simulate("rounds=200000", out=False), ACCEPT),
    # two chunks each: row indices and every record run on across the chunk boundary
    "records_70k": (_simulate("receivers=2", "rounds=70000"), ACCEPT),
    "trace_70k": (_simulate("rounds=70000", trace=True), ACCEPT),
    "trace_honest": (_simulate("rounds=500", trace=True), ACCEPT),
    "trace_lossy_split": (_simulate("receivers=3", "transmission=0.8", "bs_ratio=0.5",
                                    "rounds=500", trace=True), ACCEPT),
    "trace_pns_c3": (_simulate("adversary=pns", "pns_channel=3", "transmission=0.9",
                               "rounds=500", trace=True), ACCEPT),
    "trace_pns_n3_c1": (_simulate("receivers=3", "adversary=pns", "pns_channel=1",
                                  "transmission=0.9", "rounds=500", trace=True), ACCEPT),
    "trace_pns_n5_c4": (_simulate("receivers=5", "adversary=pns", "pns_channel=4",
                                  "transmission=0.9", "rounds=500", trace=True), ACCEPT),
    "trace_impersonate": (_simulate("adversary=impersonate", "transmission=0.5",
                                    "rounds=2000", trace=True), ABORT),
    "trace_tag": (_simulate("adversary=tag", "bs_ratio=0.5", "rounds=500", trace=True), ACCEPT),
    # the trace's sampler at the far end of the means: every photon reaches a detector
    "trace_pns_bright": (_simulate("mu=1e15", "adversary=pns", "pns_channel=3", "rounds=500",
                                   trace=True), ACCEPT),
    "attack_pns": (["attack", "pns", "--seed", "5", "--trials", "20000", "--out"], ACCEPT),
    "attack_tag": (["attack", "tag", "--seed", "5", "--override", "bs_ratio=0.5",
                    "--trials", "20000", "--out"], ACCEPT),
    "attack_impersonate": (["attack", "impersonate", "--seed", "5", "--override",
                            "transmission=0.5", "--trials", "1000000", "--out"], ACCEPT),
    "attack_tag_none_kept": (["attack", "tag", "--seed", "5", "--override", "bs_ratio=0.5",
                              "--override", "mu=1e-9", "--trials", "1000", "--out"], ACCEPT),
    # past Eve's saturation class: the class walk ends there
    "attack_impersonate_bright": (["attack", "impersonate", "--seed", "5", "--override", "mu=1e16",
                                   "--trials", "10000", "--out"], ACCEPT),
    "table": (["table"], ACCEPT),
    "curve": (["curve", "--stop", "6", "--step", "0.5", "--out"], ACCEPT),
    "curve_tail": (["curve", "--start", "80", "--stop", "100", "--step", "0.25", "--out"], ACCEPT),
    # the grid's 1e-9 slack reaches past stop
    "curve_stop_edge": (["curve", "--start", "1e-9", "--stop", "1e5", "--step", "1e5", "--out"],
                        ACCEPT),
    "bad_receivers": (_simulate("receivers=0"), CONFIG),
    "override_no_equals": (_simulate("rounds"), CONFIG),
    "attack_tag_zero_trials": (["attack", "tag", "--trials", "0", "--out"], CONFIG),
    "attack_impersonate_9999_trials": (["attack", "impersonate", "--trials", "9999", "--out"],
                                       CONFIG),
    "config_file": (["simulate", "--out"], ACCEPT),
    "config_unknown_key": (["simulate", "--out"], CONFIG),
    "config_duplicated_key": (["simulate", "--out"], CONFIG),
}
# name -> the config file a scenario reads: OUTDIR/<name>.cfg, given as --config
CONFIG_FILES: dict[str, str] = {
    "config_file": ("# a traced N=3 session\nreceivers = 3\n\n  rounds=500\nseed = 5\n"
                    "transmission= 0.9\ntrace = true\n"),
    "config_unknown_key": "rounds=500\nwavelength=1550\n",
    "config_duplicated_key": "rounds=500\nseed=5\nrounds=600\n",
}


def run_matrix(outdir: Path) -> dict[str, int]:
    """Run every scenario into ``outdir``; returns each scenario's exit code."""
    outdir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, (argv, _) in SCENARIOS.items():
        if name in CONFIG_FILES:
            config = outdir / f"{name}.cfg"
            config.write_text(CONFIG_FILES[name], encoding="utf-8")
            argv = [argv[0], "--config", str(config), *argv[1:]]
        if argv[-1] == "--out":
            argv = [*argv, str(outdir / f"{name}.csv")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes[name] = main(argv)
        text = f"{stdout.getvalue()}{stderr.getvalue()}exit={codes[name]}\n"
        (outdir / f"{name}.txt").write_text(text, encoding="utf-8")
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    codes = run_matrix(Path(sys.argv[1]))
    wrong = {name: code for name, code in codes.items() if code != SCENARIOS[name][1]}
    for name, code in codes.items():
        print(f"{name}: exit {code}" + (" (unexpected)" if name in wrong else ""))
    sys.exit(1 if wrong else 0)
