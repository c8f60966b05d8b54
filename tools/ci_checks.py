"""The checks CI runs beyond tier-1 and the CLI matrix: ``python3 tools/ci_checks.py``.

Each row of ``BOUNDS`` and ``SMOKE`` runs the checkout's ``src`` in a process of its
own, so its max RSS is its own. Prints each row's values against their bounds on one
line, and exits 1 if any row failed."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def session(**config) -> dict:
    """A 10^7-round session of this config at seed 3: its verdict, wall time and max RSS."""
    from sqss import SimConfig, run_session
    start = time.perf_counter()
    verdict = run_session(SimConfig(rounds=10**7, seed=3, **config)).verdict.kind.value
    return {"verdict": verdict, "wall_s": time.perf_counter() - start,
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}  # KiB


def walk(mu: str) -> dict:
    """``sqss attack impersonate`` at this mu: exit code and wall time, start-up included."""
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "sqss", "attack", "impersonate", "--override",
                           f"mu={mu}", "--trials", "10000"], cwd=ROOT / "src",
                          stdout=subprocess.DEVNULL).returncode
    return {"exit": code, "wall_s": time.perf_counter() - start}


def csv(rounds: int) -> dict:
    """``sqss simulate --out`` at this many rounds: exit code, CSV lines and max RSS."""
    from sqss.cli import main
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "r.csv")
        code = main(["simulate", "--override", f"rounds={rounds}", "--out", path])
        with open(path, encoding="utf-8") as rows:
            lines = sum(1 for _ in rows)
    return {"exit": code, "lines": lines,
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


# name -> (what the row runs, its arguments, values it must equal, values it must stay below).
BOUNDS = {
    # measured 447-461 MB and 1.5-2.6 s on a 2-vCPU host
    "honest 10^7": (session, {}, {"verdict": "accept"}, {"max_rss_mb": 600, "wall_s": 60}),
    # measured 282-288 MB and 1.2-2.2 s on a 2-vCPU host
    "pns 10^7": (session, dict(receivers=5, transmission=0.9, adversary="pns", pns_channel=1),
                 {"verdict": "accept"}, {"max_rss_mb": 380, "wall_s": 60}),
    # measured 70-73 MB and 1.0-1.4 s on a 2-vCPU host, a pool worker taking about 1 MB
    "impersonate 10^7": (session, dict(transmission=0.5, adversary="impersonate"),
                         {"verdict": "abort_retry"}, {"max_rss_mb": 95, "wall_s": 60}),
    # the walk ends at adversary.USD_SATURATION at any mu*T: 0.2-0.3 s on a 2-vCPU host
    "MC walk mu=1e5": (walk, dict(mu="100000"), {"exit": 0}, {"wall_s": 10}),
    "MC walk mu=9.2e18": (walk, dict(mu="9.2e18"), {"exit": 0}, {"wall_s": 10}),
    # measured 80-115 MB on a 2-vCPU host; a session that kept its table took 607 MB
    "CSV 10^6": (csv, dict(rounds=10**6), {"exit": 0, "lines": 10**6 + 1}, {"max_rss_mb": 200}),
}

# (workload, traced) -> (metrics that must not be None, metrics that must not be 0 or None).
# A wrapped layer that is never called reads 0.0, not None: every pns chunk calls
# pns_intercept, every Monte Carlo batch monte_carlo_p_error and impersonate_round.
SMOKE = {
    ("pns_n5_lossy", 1): (
        ("protocol.round.us_per_round", "channel.us_per_round", "optics.us_per_round",
         "protocol.sift.us_per_round", "protocol.decode.us_per_kept",
         "protocol.reconcile.us_per_bit", "protocol.toeplitz.us_per_bit",
         "protocol.digest.us_per_bit", "adversary.score.us_per_round",
         "adversary.intercept.us_per_round"), ("adversary.intercept.calls_per_round",)),
    ("keybits_n2", 0): ((), ()),
    ("pns_n5_lossy", 0): ((), ()),
    ("mc_impersonate", 1): ((), ("analysis.mc.us_per_trial", "adversary.usd.us_per_trial")),
    ("mc_impersonate", 0): ((), ()),
}


def judge(measured: dict, equal: dict, below: dict, present=(), nonzero=()) -> tuple[str, list]:
    """A row's measured values against its bounds as one line, and the names that miss."""
    get = measured.get
    missed = ([k for k, v in equal.items() if get(k) != v]
              + [k for k, v in below.items() if not get(k) < v]
              + [k for k in present if get(k) is None] + [k for k in nonzero if not get(k)])
    shown = ([f"{k}={get(k)!r} (== {v!r})" for k, v in equal.items()]
             + [f"{k}={get(k):.3g} (< {v})" for k, v in below.items()]
             + [f"{sum(get(k) is not None for k in present)}/{len(present)} set"] * bool(present)
             + [f"{k}={get(k)!r:.8} (!= 0)" for k in nonzero])
    return " ".join(shown), missed


def check_smoke(key: tuple, last_line: str, code: int = 0) -> tuple[str, list]:
    """``judge`` a smoke run's exit code and last printed line against ``SMOKE[key]``."""
    try:
        line = json.loads(last_line)
    except json.JSONDecodeError:
        line = {"failed": "last line is not JSON"}
    measured = {k: m.get("value") for k, m in line.get("metrics", {}).items()}
    return judge({**measured, "failed": line.get("failed"), "exit": code},
                 {"exit": 0, "failed": 0}, {}, *SMOKE[key])


def _bounded(run, kwargs: dict, equal: dict, below: dict) -> tuple[str, list]:
    with get_context("spawn").Pool(1) as pool:
        return judge(pool.apply(run, (), kwargs), equal, below)


def _smoke(workload: str, traced: int) -> tuple[str, list]:
    done = subprocess.run([sys.executable, ROOT / "perfbench" / "run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(traced)],
                          stdout=subprocess.PIPE, text=True)
    return check_smoke((workload, traced), (done.stdout.splitlines() or [""])[-1], done.returncode)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the spawned rows start from this path
    failed = False
    for name, check, args in ([(name, _bounded, row) for name, row in BOUNDS.items()]
                              + [(f"smoke {w} trace={t}", _smoke, (w, t)) for w, t in SMOKE]):
        try:
            shown, missed = check(*args)
        except Exception as exc:  # report the row and go on to the next
            shown, missed = f"{type(exc).__name__}: {exc}", ["error"]
        failed |= bool(missed)
        print(f"{'FAIL' if missed else 'ok  '} {name}: {shown}"
              + (f"; missed {', '.join(missed)}" if missed else ""), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
