"""Initial-data constructors: smooth families for verification runs and
the rough (low-regularity) families the well-posedness experiments target.

All constructors return a :class:`~thermoelast1d.state.State` at t = 0 with
boundary-compatible nodal samples.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .grid import Grid
from .state import State, make_state


def equilibrium(grid: Grid, theta_bar: float = 1.0) -> State:
    n = grid.n_nodes
    if theta_bar < 0.0:
        raise ContractError(f"equilibrium temperature must be >= 0, got {theta_bar}")
    return make_state(0.0, np.zeros(n), np.zeros(n), np.full(n, float(theta_bar)))


def standing_wave(
    grid: Grid,
    amplitude: float = 0.3,
    mode: int = 1,
    v_amplitude: float = 0.0,
    v_mode: int = 1,
    theta_base: float = 1.0,
    theta_amplitude: float = 0.0,
    theta_mode: int = 1,
) -> State:
    """u0 = A sin(m pi x^), v0 = Av sin(mv pi x^), Theta0 = base + B cos(k pi x^)
    with x^ the coordinate normalized to [0, 1]; all boundary compatible."""
    xh = (grid.nodes - grid.a) / grid.length
    u0 = amplitude * np.sin(mode * np.pi * xh)
    v0 = v_amplitude * np.sin(v_mode * np.pi * xh)
    th0 = theta_base + theta_amplitude * np.cos(theta_mode * np.pi * xh)
    if th0.min() < 0.0:
        raise ContractError("standing_wave produced a negative initial temperature")
    return make_state(0.0, v0, u0, th0)


def random_smooth(
    grid: Grid,
    seed: int = 0,
    u_amplitude: float = 0.2,
    v_amplitude: float = 0.2,
    theta_floor: float = 0.5,
    theta_amplitude: float = 0.3,
    n_modes: int = 4,
) -> State:
    """Seeded smooth data: low sine modes for u and v, and a temperature
    theta_floor + (random trig)^2 >= theta_floor."""
    rng = np.random.default_rng(seed)
    xh = (grid.nodes - grid.a) / grid.length
    u0 = np.zeros_like(xh)
    v0 = np.zeros_like(xh)
    z = np.zeros_like(xh)
    for k in range(1, n_modes + 1):
        u0 += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * xh) / k
        v0 += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * xh) / k
        z += rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * xh) / k
    u0 *= u_amplitude
    v0 *= v_amplitude
    th0 = theta_floor + theta_amplitude * z ** 2
    return make_state(0.0, v0, u0, th0)


def step_strain(
    grid: Grid,
    jump: float | None = None,
    height: float | None = None,
    v_amplitude: float = 0.0,
    theta_bar: float = 1.0,
) -> State:
    """Tent displacement: continuous, piecewise linear, with a strain jump
    at ``jump``; bounded discontinuous velocity (square pulse) when
    ``v_amplitude`` is nonzero; constant temperature.

    Defaults reproduce the unit tent u0 = min(x - a, b - x) scaled so the
    left slope is height/(jump - a).
    """
    a, b = grid.a, grid.b
    p = 0.5 * (a + b) if jump is None else float(jump)
    if not (a < p < b):
        raise ContractError(f"strain jump must lie inside ({a}, {b}), got {p}")
    if height is None:
        height = min(p - a, b - p)  # unit slopes at the default
    x = grid.nodes
    u0 = height * np.minimum((x - a) / (p - a), (b - x) / (b - p))
    v0 = v_amplitude * np.sign(x - p)
    th0 = np.full_like(x, float(theta_bar))
    if theta_bar < 0.0:
        raise ContractError(f"theta must be >= 0, got {theta_bar}")
    return make_state(0.0, v0, u0, th0)


def sawtooth_strain(
    grid: Grid,
    teeth: int = 4,
    amplitude: float = 0.1,
    theta_bar: float = 1.0,
) -> State:
    """Zigzag displacement with ``teeth`` tents of height ``amplitude``;
    the strain magnitude is amplitude * 2 * teeth / width on every segment."""
    if teeth < 1:
        raise ContractError(f"teeth must be >= 1, got {teeth}")
    if theta_bar < 0.0:
        raise ContractError(f"theta must be >= 0, got {theta_bar}")
    x = grid.nodes
    xh = (x - grid.a) / grid.length
    # tents of height `amplitude` anchored at zero between teeth
    u0 = amplitude * (1.0 - 2.0 * np.abs(((xh * teeth) % 1.0) - 0.5))
    th0 = np.full_like(x, float(theta_bar))
    return make_state(0.0, np.zeros_like(x), u0, th0)


def random_l2_theta(
    grid: Grid,
    seed: int = 0,
    amplitude: float = 1.0,
    theta_base: float = 0.0,
) -> State:
    """Nonnegative rough temperature: base + amplitude * uniform noise."""
    if amplitude < 0.0 or theta_base < 0.0:
        raise ContractError("negative temperature sample requested")
    rng = np.random.default_rng(seed)
    x = grid.nodes
    th0 = theta_base + amplitude * rng.uniform(0.0, 1.0, size=x.shape)
    return make_state(0.0, np.zeros_like(x), np.zeros_like(x), th0)


ROUGH_KINDS = ("step_strain", "sawtooth_strain", "random_L2_theta")


def prepare_rough_data(kind: str, grid: Grid, **params) -> State:
    """Rough initial data by family name (see ROUGH_KINDS)."""
    if kind == "step_strain":
        return step_strain(grid, **params)
    if kind == "sawtooth_strain":
        return sawtooth_strain(grid, **params)
    if kind == "random_L2_theta":
        return random_l2_theta(grid, **params)
    raise ContractError(f"unknown rough-data kind {kind!r}; have {ROUGH_KINDS}")
