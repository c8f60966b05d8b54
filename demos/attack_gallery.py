"""Run each adversary strategy and show what Eve gets out of it.

Three attacks, three fates:

* tag photon: total break until Alice splits her pulse, after which
  Eve's tag ends up in the discarded half of the light half the time
  and her recovery rate collapses to a coin flip;
* photon number splitting: Eve banks a photon per bright pulse, but the
  continuous hiding rotations leave her stored photons uniformly
  polarized, so measuring them tells her nothing about the key;
* impersonation: Eve needs unambiguous discrimination of the key state
  to answer Alice's checks, and whenever discrimination fails she
  guesses, which shows up as errors the parties can see.
"""

from sqss import SimConfig, run_session

ROUNDS = 50_000


def banner(title: str) -> None:
    print()
    print(title)
    print("=" * len(title))


def main() -> None:
    banner("tag photon, no countermeasure")
    result = run_session(
        SimConfig(receivers=2, rounds=ROUNDS, adversary="tag", seed=1)
    )
    eve = result.eve_summary
    print(f"  Eve recovers {eve.rate:.4f} of the sifted key")
    print(f"  honest parties see QBER = {result.qber} (nothing to notice)")

    banner("tag photon, Alice splits 50:50 before storing")
    result = run_session(
        SimConfig(receivers=2, rounds=ROUNDS, adversary="tag", bs_ratio=0.5, seed=2)
    )
    eve = result.eve_summary
    print(f"  Eve recovers {eve.rate:.4f} of the sifted key")
    print("  her tag only survives in the half Alice keeps")

    banner("photon number splitting on the first link")
    result = run_session(
        SimConfig(
            receivers=2,
            transmission=0.7,
            rounds=ROUNDS,
            adversary="pns",
            pns_channel=1,
            seed=3,
        )
    )
    eve = result.eve_summary
    print(f"  photons stored: {eve.events} of {eve.trials} rounds")
    print(f"  bit guess accuracy after all announcements: {eve.rate:.4f}")
    print(f"  honest QBER = {result.qber}")

    banner("impersonation of Alice")
    result = run_session(
        SimConfig(receivers=2, transmission=0.5, rounds=ROUNDS, adversary="impersonate", seed=4)
    )
    eve = result.eve_summary
    print(f"  Eve's discrimination succeeds on {eve.rate:.4f} of rounds")
    print(f"  induced QBER = {result.qber:.4f} (honest runs give exactly 0)")
    print(f"  session verdict: {result.verdict.kind.value}")


if __name__ == "__main__":
    main()
