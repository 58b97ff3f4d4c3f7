"""High-dimensional BB84 over rotation-invariant photon spatial modes.

The package is organized along the signal path:

* :mod:`oamqkd.modes` — physical HG/LG beam modes and quadrature checks.
* :mod:`oamqkd.states` — logical qudit states, MUB families, Born sampling.
* :mod:`oamqkd.devices` — sorter cascade, MODAN + Fourier chain.
* :mod:`oamqkd.channel` — rotations, Gouy dephasing, loss, eavesdropping.
* :mod:`oamqkd.streams` — many per-round PRNG substreams at once, as columns.
* :mod:`oamqkd.protocol` — the Monte-Carlo session engine.
* :mod:`oamqkd.cli` — JSON-config experiment runner.
"""

from .channel import (
    ChannelSpec,
    Eve,
    EveStrategy,
    FrequencyShift,
    Gouy,
    Loss,
    RandomRotation,
    Rotation,
    TimeVaryingRotation,
)
from .devices import DeviceConfig
from .exceptions import (
    ConfigInvalid,
    DimensionMismatch,
    GridTooCoarse,
    IndexOutOfRange,
    UnsupportedDimension,
)
from .modes import (
    BeamGeometry,
    ModeFamily,
    ModeLabel,
    SpatialGrid,
    beam_params,
    default_geometry,
    eval_mode,
    hermite_poly,
    laguerre_poly,
    mode_field,
    overlap,
    reference_grid,
)
from .protocol import (
    RoundRecord,
    SessionConfig,
    SessionStats,
    Transcript,
    estimate_qber,
    run_session,
    sift,
)
from .states import (
    Basis,
    MubFamily,
    PureState,
    born_probabilities,
    build_mub_family,
    make_b1_state,
    make_b2_state,
)

__version__ = "0.1.0"
