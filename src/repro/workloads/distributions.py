"""Concrete input-color distributions.

Every function returns a list of ``n`` input colors in ``[0, k-1]`` and, where
meaningful, guarantees a *unique* relative majority (the paper's standing
assumption outside the tie-handling extension).  All randomness flows through
an explicit seed / RNG argument.
"""

from __future__ import annotations

from collections import Counter

from repro.utils.rng import RngLike, make_rng


def _validate(num_agents: int, num_colors: int) -> None:
    if num_agents < 2:
        raise ValueError(f"need at least two agents, got {num_agents}")
    if num_colors < 1:
        raise ValueError(f"need at least one color, got {num_colors}")


def _shuffled(colors: list[int], rng_like: RngLike) -> list[int]:
    rng = make_rng(rng_like)
    rng.shuffle(colors)
    return colors


def planted_majority(
    num_agents: int,
    num_colors: int,
    majority_color: int = 0,
    margin: int = 1,
    seed: RngLike = None,
) -> list[int]:
    """An input where ``majority_color`` wins by at least ``margin`` agents.

    The remaining agents are spread as evenly as possible over the other
    colors (never exceeding ``majority_count - 1`` per color), so the planted
    color is the unique relative majority by construction.

    Raises:
        ValueError: if the requested margin cannot be realized with ``n`` agents.
    """
    _validate(num_agents, num_colors)
    if not 0 <= majority_color < num_colors:
        raise ValueError(f"majority color {majority_color} out of range")
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if num_colors == 1:
        return [majority_color] * num_agents

    others = [color for color in range(num_colors) if color != majority_color]
    # Smallest majority count m such that the rest can be spread under m - margin + ... :
    # give the majority ceil((n + margin*(k-1)) / k) agents, clamped to [margin, n].
    majority_count = max(margin, -(-(num_agents + margin * (num_colors - 1)) // num_colors))
    majority_count = min(majority_count, num_agents)
    rest = num_agents - majority_count
    cap = majority_count - margin
    if cap * len(others) < rest:
        raise ValueError(
            f"cannot plant a majority with margin {margin}: {num_agents} agents, "
            f"{num_colors} colors"
        )
    # Deal the rest round-robin over the other colors; no color exceeds
    # ceil(rest / len(others)) <= cap agents, so the cap never binds.
    rounds = rest // len(others)
    colors = [majority_color] * majority_count + others * rounds
    colors += others[: rest - rounds * len(others)]
    return _shuffled(colors, seed)


def uniform_random_colors(
    num_agents: int,
    num_colors: int,
    seed: RngLike = None,
    require_unique_majority: bool = False,
    max_attempts: int = 1_000,
) -> list[int]:
    """Each agent's color drawn independently and uniformly from ``[0, k-1]``.

    With ``require_unique_majority`` the draw is repeated (up to
    ``max_attempts`` times) until a unique relative majority exists.
    """
    _validate(num_agents, num_colors)
    rng = make_rng(seed)
    for _ in range(max_attempts):
        colors = [rng.randrange(num_colors) for _ in range(num_agents)]
        if not require_unique_majority:
            return colors
        counts = Counter(colors)
        top = max(counts.values())
        if sum(1 for value in counts.values() if value == top) == 1:
            return colors
    raise RuntimeError("failed to draw an input with a unique majority")


def zipf_colors(
    num_agents: int,
    num_colors: int,
    exponent: float = 1.2,
    seed: RngLike = None,
) -> list[int]:
    """Colors drawn from a Zipf-like distribution (color ``c`` ∝ ``1/(c+1)^exponent``).

    Models the skewed opinion distributions of the social-dynamics
    applications cited in the paper's introduction; color 0 is the most
    likely, so large populations almost always have a unique majority.
    """
    _validate(num_agents, num_colors)
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    rng = make_rng(seed)
    weights = [1.0 / (color + 1) ** exponent for color in range(num_colors)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    colors = []
    for _ in range(num_agents):
        draw = rng.random()
        for color, bound in enumerate(cumulative):
            if draw <= bound:
                colors.append(color)
                break
        else:  # numerical edge case
            colors.append(num_colors - 1)
    return colors


def near_tie(
    num_agents: int,
    num_colors: int,
    majority_color: int = 0,
    seed: RngLike = None,
) -> list[int]:
    """The hardest non-tied input: the majority wins by exactly one agent.

    The other colors receive ``majority_count - 1`` agents each where
    possible; leftover agents go to the later colors one by one (never
    reaching the majority count).
    """
    _validate(num_agents, num_colors)
    if not 0 <= majority_color < num_colors:
        raise ValueError(f"majority color {majority_color} out of range")
    if num_colors == 1:
        return [majority_color] * num_agents
    others = [color for color in range(num_colors) if color != majority_color]
    # Smallest majority count whose cap (count - 1 per other color) fits the rest.
    majority_count = max(2, num_agents // num_colors + 1)
    while (majority_count - 1) * len(others) < num_agents - majority_count:
        majority_count += 1
    majority_count = min(majority_count, num_agents)
    colors = [majority_color] * majority_count
    remaining = num_agents - majority_count
    cap = majority_count - 1
    counts = {color: 0 for color in others}
    index = 0
    while remaining > 0:
        color = others[index % len(others)]
        if counts[color] < cap:
            colors.append(color)
            counts[color] += 1
            remaining -= 1
        index += 1
    return _shuffled(colors, seed)


def exact_tie(
    num_agents: int,
    num_colors: int = 2,
    tied_colors: tuple[int, int] = (0, 1),
    seed: RngLike = None,
) -> list[int]:
    """An input where two colors are exactly tied at the top.

    The two tied colors split ``n`` (rounded down to an even split) and any
    remaining agents take strictly smaller counts of the other colors.  Used
    by the tie-handling experiments (E7) and the negative tests of
    ``predicted_majority``.
    """
    _validate(num_agents, num_colors)
    first, second = tied_colors
    for color in tied_colors:
        if not 0 <= color < num_colors:
            raise ValueError(f"tied color {color} out of range")
    if first == second:
        raise ValueError("the two tied colors must differ")
    if num_agents < 4:
        raise ValueError("an exact tie with strictly smaller minorities needs at least 4 agents")
    others = [color for color in range(num_colors) if color not in tied_colors]
    # Smallest tied count whose cap (count - 1 per other color) fits the rest.
    top = max(2, (num_agents - len(others)) // 2)
    while 2 * top + (top - 1) * len(others) < num_agents:
        top += 1
    colors = [first] * top + [second] * top
    remaining = num_agents - len(colors)
    if remaining < 0:
        raise ValueError(
            f"cannot build an exact two-way tie with n={num_agents} agents and k={num_colors}"
        )
    counts = {color: 0 for color in others}
    index = 0
    while remaining > 0:
        color = others[index % len(others)]
        if counts[color] < top - 1:
            colors.append(color)
            counts[color] += 1
            remaining -= 1
        index += 1
    return _shuffled(colors, seed)


def decisive_isolation(
    num_agents: int,
    num_colors: int = 2,
    seed: RngLike = None,
) -> list[int]:
    """The E8 negative-control input: isolating the low indices flips the majority.

    Color 0 holds ``n // 2 + 1`` agents (the true majority) at the *low*
    indices and color 1 holds the rest, so isolating the first
    :func:`decisive_isolation_set` agents leaves a visible sub-population in
    which color 1 is the plurality — any protocol must then answer
    incorrectly under the unfair isolating schedule.  The assignment is
    deliberately **not** shuffled (``seed`` is accepted for registry
    uniformity and ignored): the isolation set is defined by index.
    """
    _validate(num_agents, num_colors)
    if num_colors < 2:
        raise ValueError("the decisive-isolation workload needs at least two colors")
    if num_agents < 7:
        raise ValueError("need at least 7 agents for a decisive isolation scenario")
    majority_count = num_agents // 2 + 1
    return [0] * majority_count + [1] * (num_agents - majority_count)


def decisive_isolation_set(num_agents: int) -> list[int]:
    """The agent indices to isolate so that :func:`decisive_isolation` flips.

    Isolates enough color-0 agents (they occupy the low indices) that the
    interacting sub-population has more color-1 than color-0 supporters.
    """
    if num_agents < 7:
        raise ValueError("need at least 7 agents for a decisive isolation scenario")
    majority_count = num_agents // 2 + 1
    minority_count = num_agents - majority_count
    return list(range(majority_count - minority_count + 1))


def adversarial_two_block(
    num_agents: int,
    num_colors: int,
    seed: RngLike = None,
) -> list[int]:
    """The classic failure case of naive cancellation: one plurality, many spoilers.

    Color 0 holds just over ``n/2`` of the agents *minus* one per spoiler
    color, so it is in relative majority but can be out-cancelled by the
    coalition of the other colors — the workload on which
    :class:`~repro.protocols.cancellation_plurality.CancellationPluralityProtocol`
    shows its error rate while Circles stays correct (experiment E6).
    """
    _validate(num_agents, num_colors)
    if num_colors < 3:
        raise ValueError("the adversarial two-block workload needs at least three colors")
    spoilers = num_colors - 1
    majority_count = max(2, num_agents // 2 - spoilers // 2)
    per_spoiler = (num_agents - majority_count) // spoilers
    per_spoiler = min(per_spoiler, majority_count - 1)
    colors = [0] * majority_count
    for color in range(1, num_colors):
        colors.extend([color] * per_spoiler)
    while len(colors) < num_agents:
        colors.append(0)
    return _shuffled(colors[:num_agents], seed)
