"""Key yield on a lossy fiber ring.

Sweeps the per-link fiber length and compares the observed discard
fraction against the Poisson vacuum prediction exp(-mu_final / 2),
where mu_final is the mean photon number surviving all 2N+1 hops and
``transmission(length_km, loss_db_per_km)`` gives one hop's share.
"""

import math

from sqss import SimConfig, run_session, transmission


def main() -> None:
    receivers = 2
    mu = 6.0
    loss_db_per_km = 0.2
    rounds = 20_000

    print(f"N = {receivers} receivers, mu = {mu}, fiber loss {loss_db_per_km} dB/km")
    print(f"{rounds} rounds per point")
    print()
    header = (
        f"{'km/link':>8} {'T/link':>8} {'mu_final':>9} "
        f"{'predicted':>10} {'observed':>9} {'kept':>6} {'key bits':>9}"
    )
    print(header)
    print("-" * len(header))

    for length in (0.0, 5.0, 10.0, 20.0, 40.0):
        link_t = transmission(length, loss_db_per_km)
        hops = 2 * receivers + 1
        mu_final = mu * link_t**hops
        predicted = math.exp(-mu_final / 2)

        config = SimConfig(
            receivers=receivers,
            mean_photons=mu,
            link_length_km=length,
            link_loss_db_per_km=loss_db_per_km,
            rounds=rounds,
            seed=int(length) + 1,
        )
        result = run_session(config)
        print(
            f"{length:8.1f} {link_t:8.4f} {mu_final:9.4f} "
            f"{predicted:10.4f} {result.discard_fraction:9.4f} "
            f"{result.kept_rounds:6d} {len(result.alice_final_key):9d}"
        )

    print()
    print("every kept round still decodes perfectly; loss only costs yield:")
    config = SimConfig(
        receivers=receivers,
        mean_photons=mu,
        link_length_km=40.0,
        link_loss_db_per_km=loss_db_per_km,
        rounds=rounds,
        seed=99,
    )
    result = run_session(config)
    print(
        f"  40 km links: QBER = {result.qber}, verdict = {result.verdict.kind.value},"
        f" all receiver keys equal Alice's ="
        f" {all(k == result.alice_final_key for k in result.receiver_final_keys)}"
    )


if __name__ == "__main__":
    main()
