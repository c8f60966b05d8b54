"""Walk through one kept round of the protocol, stage by stage.

Runs a short traced session, picks the first kept round, and narrates
what happened to the pulse on its way around the ring: the hiding
rotations applied by Alice and both receivers on the forward path, the
key rotation Alice applies when the pulse comes back through her lab,
the unwinding on the backward path, and finally Rec-1's measurement and
the cooperative decode.
"""

import math

from sqss import DecisionAngle, SiftStatus, SimConfig, run_session


def degrees(radians: float) -> str:
    return f"{math.degrees(radians):7.2f} deg"


def main() -> None:
    config = SimConfig(receivers=2, rounds=20, parity_block=0, seed=5, trace=True)
    result = run_session(config)
    record = next(r for r in result.records if r.status is SiftStatus.KEPT)

    print(f"round {record.index} of {config.rounds} (first kept round)")
    print()
    print("secrets drawn this round:")
    print(f"  Alice hiding angle   theta = {degrees(record.theta)}")
    for i, (phi, s) in enumerate(zip(record.phis, record.shuffles), start=1):
        shuffle = DecisionAngle(s)
        print(
            f"  Rec-{i} hiding angle  phi_{i} = {degrees(phi)},"
            f"  shuffle s_{i} = {shuffle.label}"
        )
    key = DecisionAngle(record.key_angle)
    print(f"  Alice's bit = {record.bit}, basis choice j = {record.basis_choice}")
    print(f"  encoded key angle k = {key.label}")
    print()

    print("pulse polarization along the ring:")
    for snap in record.trace:
        print(
            f"  {snap.stage:<16} photons {snap.photons:3d}"
            f"  polarization {degrees(snap.polarization)}"
        )
    print()

    print("measurement at Rec-1:")
    print(f"  rectilinear arm: {record.rect_outcome}")
    print(f"  diagonal arm:    {record.diag_outcome}")
    measured = DecisionAngle(record.measured_angle)
    print(f"  sifted arm reads l = {measured.label}")
    print()

    decoded = DecisionAngle(record.decoded_angle)
    print("cooperative decode:")
    print(f"  Rec-1 announces d_1 = l - s_1, the others announce their shuffles")
    print(f"  recovered key angle = {decoded.label} (sent: {key.label})")
    print(f"  recovered bit = {record.decoded_bit} (sent: {record.bit})")


if __name__ == "__main__":
    main()
