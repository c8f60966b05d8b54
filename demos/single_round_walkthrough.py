"""Walk through one kept round of the protocol, stage by stage.

Runs a short traced session with records, picks the first kept round,
and narrates what happened to the pulse on its way around the ring: the
hiding rotations applied by Alice and both receivers on the forward
path, the key rotation Alice applies when the pulse comes back through
her lab, the unwinding on the backward path, and finally Rec-1's
measurement and the cooperative decode. Every discrete angle is an int of quarter turns
of pi/4, printed through ``ANGLE_LABELS``.
"""

import math

from sqss import SimConfig, run_session
from sqss.optics import ANGLE_LABELS
from sqss.protocol import _polarizations


def degrees(radians: float) -> str:
    return f"{math.degrees(radians):7.2f} deg"


def outcome(code: int) -> str:
    """An arm's outcome code in words: the angle it read, vacuum or ambiguous."""
    return f"angle {ANGLE_LABELS[code]}" if code < 4 else ("vacuum", "ambiguous")[code - 4]


def main() -> None:
    config = SimConfig(receivers=2, rounds=20, parity_block=0, seed=5, trace=True)
    chunks = []  # the session hands its records over chunk by chunk: here one
    run_session(config, chunks.append)
    (table,) = chunks
    i = int((table.sifted < 4).argmax())  # codes 0..3 are angles: the kept rounds
    bit, j = int(table.bit[i]), int(table.basis_choice[i])

    print(f"round {i} of {config.rounds} (first kept round)")
    print()
    print("secrets drawn this round:")
    print(f"  Alice hiding angle   theta = {degrees(table.theta[i])}")
    for r, (phi, s) in enumerate(zip(table.phis[i], table.shuffles[i]), start=1):
        print(
            f"  Rec-{r} hiding angle  phi_{r} = {degrees(phi)},"
            f"  shuffle s_{r} = {ANGLE_LABELS[s]}"
        )
    key = 2 * bit + j - 1
    print(f"  Alice's bit = {bit}, basis choice j = {j}")
    print(f"  encoded key angle k = {ANGLE_LABELS[key]}")
    print()

    print("pulse polarization along the ring:")
    for stage, photons, polarization in zip(
        table.trace_stages, table.trace_photons[i], _polarizations(table)
    ):
        print(f"  {stage:<16} photons {photons:3d}  polarization {degrees(polarization[i])}")
    print()

    print("measurement at Rec-1:")
    print(f"  rectilinear arm: {outcome(table.rect[i])}")
    print(f"  diagonal arm:    {outcome(table.diag[i])}")
    print(f"  sifted arm reads l = {ANGLE_LABELS[table.sifted[i]]}")
    print()

    decoded = int(table.decoded[i])
    print("cooperative decode:")
    print(f"  Rec-1 announces d_1 = l - s_1, the others announce their shuffles")
    print(f"  recovered key angle = {ANGLE_LABELS[decoded]} (sent: {ANGLE_LABELS[key]})")
    print(f"  recovered bit = {decoded // 2} (sent: {bit})")


if __name__ == "__main__":
    main()
