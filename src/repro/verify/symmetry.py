"""Color-permutation symmetry detection on compiled transition tables.

A permutation ``π`` of the input colors is a *symmetry* of a protocol when
some bijection ``σ`` of the compiled state space satisfies

* ``σ(initial(c)) = initial(π(c))`` for every color ``c``,
* ``δ(σp, σq) = (σa, σb)`` whenever ``δ(p, q) = (a, b)`` (with matching
  compiled ``changed`` bits), and
* ``output(σs) = π(output(s))``, where ``π`` acts as the identity on output
  values outside ``[0, k)`` (sentinels like the tie-report's ``k``).

Because the compiled space is the δ-closure of the initial states, ``σ`` —
if it exists — is *uniquely determined*: seed it on the initial states and
propagate through the transition table; any conflict refutes ``π``.  The
resulting subgroup of ``S_k`` is reported as explicit permutations plus a
minimal generating subset, and is the prerequisite for the ROADMAP's
symmetry-quotiented exact analysis (orbits of ``σ`` quotient the
configuration chain).

Search is exhaustive over ``S_k`` (``k! ≤ 120`` at the default cap) and the
result is cached per ``compile_signature()`` alongside the compiled table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compile.compiled import CompiledProtocol

#: ``k! ≤ 120`` permutations at the default cap keeps the exhaustive search
#: instant; larger ``k`` reports an honest "not searched".
DEFAULT_MAX_SYMMETRY_COLORS = 5

#: (compile_signature, states tuple) -> certificate, mirroring the compiled
#: table's signature cache so sweeps and test matrices search once.
_SYMMETRY_CACHE: dict[tuple, "SymmetryCertificate"] = {}

#: Same keying as :data:`_SYMMETRY_CACHE`, for the state-level actions the
#: quotient chain consumes (certificate + one σ per permutation).
_ACTION_CACHE: dict[tuple, "SymmetryActions"] = {}


@dataclass(frozen=True)
class SymmetryCertificate:
    """The color-permutation subgroup fixing δ and the output map.

    ``permutations`` always contains the identity and is sorted
    lexicographically; ``generators`` is a minimal generating subset in the
    same order.  ``searched`` is False when ``k`` exceeded the search cap,
    in which case only the identity is reported.
    """

    num_colors: int
    searched: bool
    permutations: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.permutations)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


@dataclass(frozen=True)
class SymmetryAction:
    """One symmetry with its state-level realization on the compiled table.

    ``state_map[code]`` is the compiled code of ``σ(state)``; the map is the
    *unique* δ-equivariant bijection realizing ``color_permutation`` (see the
    module docstring), so actions compose exactly as the permutations do.
    """

    color_permutation: tuple[int, ...]
    state_map: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return all(i == c for i, c in enumerate(self.color_permutation))


@dataclass(frozen=True)
class SymmetryActions:
    """The full symmetry group with state-level actions, plus its certificate."""

    certificate: SymmetryCertificate
    actions: tuple[SymmetryAction, ...]


def _state_bijection(
    compiled: "CompiledProtocol", perm: tuple[int, ...]
) -> dict[int, int] | None:
    """The unique δ-equivariant state map realizing ``perm``, or None.

    Requires the compiled space to be seeded from all ``k`` colors (the
    verifier compiles with ``colors=None``, which guarantees it).
    """
    protocol = compiled.protocol
    index = compiled.index
    num_states = compiled.num_states
    sigma: dict[int, int] = {}
    queue: list[int] = []

    def assign(source: int, target: int) -> bool:
        known = sigma.get(source)
        if known is not None:
            return known == target
        sigma[source] = target
        queue.append(source)
        return True

    for color in range(protocol.num_colors):
        source = index.get(protocol.initial_state(color))
        target = index.get(protocol.initial_state(perm[color]))
        if source is None or target is None:
            return None
        if not assign(source, target):
            return None

    processed: list[int] = []
    while queue:
        new = queue.pop()
        processed.append(new)
        for other in processed:
            for p, q in ((new, other), (other, new)):
                a, b, changed = compiled.transition_codes(p, q)
                a2, b2, changed2 = compiled.transition_codes(sigma[p], sigma[q])
                if changed != changed2:
                    return None
                if not assign(a, a2) or not assign(b, b2):
                    return None

    if len(sigma) != num_states:
        return None
    if len(set(sigma.values())) != num_states:
        return None
    return sigma


def _respects_outputs(
    compiled: "CompiledProtocol", perm: tuple[int, ...], sigma: dict[int, int]
) -> bool:
    k = len(perm)
    outputs = compiled.outputs
    for code in range(compiled.num_states):
        out = outputs[code]
        expected = perm[out] if 0 <= out < k else out
        if outputs[sigma[code]] != expected:
            return False
    return True


def _compose(
    first: tuple[int, ...], second: tuple[int, ...]
) -> tuple[int, ...]:
    """``first ∘ second`` (apply ``second``, then ``first``)."""
    return tuple(first[value] for value in second)


def _closure(
    generators: list[tuple[int, ...]], identity: tuple[int, ...]
) -> set[tuple[int, ...]]:
    group = {identity}
    frontier = [identity]
    while frontier:
        element = frontier.pop()
        for generator in generators:
            product = _compose(generator, element)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def _minimal_generators(
    permutations: list[tuple[int, ...]], identity: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    generators: list[tuple[int, ...]] = []
    generated = {identity}
    for perm in permutations:
        if perm in generated:
            continue
        generators.append(perm)
        generated = _closure(generators, identity)
    return tuple(generators)


def color_symmetries(
    compiled: "CompiledProtocol",
    max_colors: int = DEFAULT_MAX_SYMMETRY_COLORS,
) -> SymmetryCertificate:
    """Detect the full color-symmetry subgroup of a compiled protocol."""
    protocol = compiled.protocol
    k = protocol.num_colors
    identity = tuple(range(k))
    if k > max_colors:
        return SymmetryCertificate(k, False, (identity,), ())

    signature = protocol.compile_signature()
    cache_key = None
    if signature is not None:
        cache_key = (signature, compiled.states)
        cached = _SYMMETRY_CACHE.get(cache_key)
        if cached is not None:
            return cached

    found: list[tuple[int, ...]] = []
    for perm in _all_permutations(range(k)):
        sigma = _state_bijection(compiled, perm)
        if sigma is None:
            continue
        if _respects_outputs(compiled, perm, sigma):
            found.append(perm)

    certificate = SymmetryCertificate(
        k,
        True,
        tuple(found),
        _minimal_generators([p for p in found if p != identity], identity),
    )
    if cache_key is not None:
        _SYMMETRY_CACHE[cache_key] = certificate
    return certificate


def symmetry_actions(
    compiled: "CompiledProtocol",
    max_colors: int = DEFAULT_MAX_SYMMETRY_COLORS,
) -> SymmetryActions:
    """The symmetry group with its state-level σ maps, cached like the certificate.

    The consumer is :class:`repro.exact.quotient.QuotientChain`, which folds
    configuration space by (a subgroup of) these actions; caching per
    ``compile_signature()`` means a sweep over many populations of one
    protocol pays for the σ search once.
    """
    signature = compiled.protocol.compile_signature()
    cache_key = None
    if signature is not None:
        cache_key = (signature, compiled.states)
        cached = _ACTION_CACHE.get(cache_key)
        if cached is not None and cached.certificate.searched:
            return cached

    certificate = color_symmetries(compiled, max_colors)
    identity_map = tuple(range(compiled.num_states))
    actions: list[SymmetryAction] = []
    for perm in certificate.permutations:
        if all(i == c for i, c in enumerate(perm)):
            actions.append(SymmetryAction(perm, identity_map))
            continue
        sigma = _state_bijection(compiled, perm)
        if sigma is None:  # pragma: no cover - certified perms always realize
            raise RuntimeError(f"certified symmetry {perm} lost its state bijection")
        actions.append(
            SymmetryAction(perm, tuple(sigma[code] for code in range(compiled.num_states)))
        )
    result = SymmetryActions(certificate, tuple(actions))
    if cache_key is not None and certificate.searched:
        _ACTION_CACHE[cache_key] = result
    return result
