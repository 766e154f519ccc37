"""Registered traffic / mobility / channel presets (the non-policy zoo).

Each entry registers an existing config dataclass with a named bundle of
defaults, so scenario specs (and the ``--scenario-spec`` CLI) can say
``traffic = {name = "web-video"}`` instead of spelling out five Pareto
parameters — and can still override any individual field, because
:meth:`repro.registry.Registration.build` merges spec kwargs over the
preset's defaults and validates them against the dataclass signature.

Traffic mixes (kind ``"traffic"``)
    ``default``    — the library default WWW mix (:class:`TrafficConfig`).
    ``paper-www``  — the heavier mix the paper-style experiments use
                     (matches :func:`repro.experiments.common.paper_traffic`).
    ``web-video``  — a web/video-skewed mix: short reading times, a heavy
                     Pareto tail up to 6 Mbit (streaming bursts) and a
                     strongly forward-dominated direction split.

Mobility models (kind ``"mobility"``)
    ``random-direction`` — the default 3–50 km/h random-direction model.
    ``pedestrian``       — 1.8–5.4 km/h, long direction epochs.
    ``vehicular``        — 30–90 km/h, short direction epochs.

Channel profiles (kind ``"channel"``)
    ``default``     — the cdma2000 SR1 macro-cell radio configuration.
    ``dense-urban`` — small cells, heavier shadowing and lower downlink
                      orthogonality (dense-urban canyon).
"""

from __future__ import annotations

from repro.config import RadioConfig
from repro.registry import registry
from repro.simulation.scenario import MobilityConfig, TrafficConfig

__all__: list = []

# -- traffic mixes --------------------------------------------------------------
registry.add(
    "traffic",
    "default",
    TrafficConfig,
    summary="Library default WWW packet-call mix",
)
registry.add(
    "traffic",
    "paper-www",
    TrafficConfig,
    defaults=dict(
        mean_reading_time_s=2.0,
        packet_call_shape=1.8,
        packet_call_min_bits=32_000.0,
        packet_call_max_bits=2_000_000.0,
        forward_fraction=0.7,
    ),
    summary="The paper experiments' heavier WWW mix (paper_traffic)",
)
registry.add(
    "traffic",
    "web-video",
    TrafficConfig,
    defaults=dict(
        mean_reading_time_s=1.5,
        packet_call_shape=1.2,
        packet_call_min_bits=48_000.0,
        packet_call_max_bits=6_000_000.0,
        forward_fraction=0.85,
    ),
    summary="Web/video-skewed mix: heavy forward tail, short reading times",
)

# -- mobility models ------------------------------------------------------------
registry.add(
    "mobility",
    "random-direction",
    MobilityConfig,
    summary="Default random-direction model, 3-50 km/h",
)
registry.add(
    "mobility",
    "pedestrian",
    MobilityConfig,
    defaults=dict(speed_range_m_s=(0.5, 1.5), mean_epoch_s=40.0),
    summary="Pedestrian speeds (1.8-5.4 km/h), long direction epochs",
)
registry.add(
    "mobility",
    "vehicular",
    MobilityConfig,
    defaults=dict(speed_range_m_s=(8.3, 25.0), mean_epoch_s=8.0),
    summary="Vehicular speeds (30-90 km/h), short direction epochs",
)

# -- channel / radio profiles ---------------------------------------------------
registry.add(
    "channel",
    "default",
    RadioConfig,
    summary="cdma2000 SR1 macro-cell radio profile (the paper's)",
)
registry.add(
    "channel",
    "dense-urban",
    RadioConfig,
    defaults=dict(
        cell_radius_m=500.0,
        shadowing_std_db=10.0,
        shadowing_site_correlation=0.3,
        orthogonality_factor=0.4,
    ),
    summary="Dense-urban small cells: heavy shadowing, low orthogonality",
)
