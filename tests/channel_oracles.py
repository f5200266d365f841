"""Dense channel oracles that the tests check the library against; no
subcommand needs them."""

import math

import numpy as np

from risbeam.channel import ArrayGeometry, PathSet, SteeringConvention, steering_matrix


def time_domain_channel(paths: PathSet, tx_geometry: ArrayGeometry, rx_geometry: ArrayGeometry,
                        num_subcarriers: int,
                        rx_convention: SteeringConvention = "arrival_cos_neg",
                        tx_convention: SteeringConvention = "departure_sin_neg") -> np.ndarray:
    """Tapped impulse response, shape (num_subcarriers, N_rx, N_tx).

    With a rectangular pulse of one sample period, each path lands entirely
    on its integer delay tap. The DFT of this array over the first axis
    reproduces ``assemble_channel`` at every subcarrier.
    """
    if paths.gains.ndim != 1:
        raise ValueError("time_domain_channel takes a single draw, not a batch")
    if np.any(paths.tap_indices >= num_subcarriers):
        raise ValueError("delay taps must be below the subcarrier count")
    arrival = steering_matrix(rx_geometry, paths.arrival_angles, rx_convention)
    departure = steering_matrix(tx_geometry, paths.departure_angles, tx_convention)
    scale = math.sqrt(tx_geometry.num_elements * rx_geometry.num_elements)
    out = np.zeros((num_subcarriers, rx_geometry.num_elements, tx_geometry.num_elements),
                   dtype=complex)
    for gain, tap, a, b in zip(paths.gains, paths.tap_indices,
                               arrival.T, departure.T):
        out[tap] += scale * gain * np.outer(a, b.conj())
    return out
