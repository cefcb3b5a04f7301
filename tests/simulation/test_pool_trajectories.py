"""Pinned trajectories of the batch engine's pool regimes below the kernel gate.

The dense and sparse regimes and their regime decisions are bookkeeping
around one fixed RNG stream: none of them may move a draw, a regime switch, a
check boundary or a record.  Each case runs one seeded engine through three
``run`` calls:

1. a budget that ends inside a check window, under a criterion that never
   holds (so every boundary is checked and the budget is used up);
2. a budget without a criterion;
3. a run to the protocol's default criterion.

Round-trip cases force the regime of each call through the monkeypatched
thresholds: sparse, then dense, then sparse again.

The case's digest covers, at every check boundary, the step, the regime, the
changed-interaction count and the count vector; the return value and the
counters of every run; the Circles ket-exchange count and its
``EnergyObserver(record="check")`` series; and ``_rng.getstate()`` at the
end.  The digests were re-pinned at record epoch 7, when the sparse regime
began to carry its geometric skip across windows.  Every moved case agreed
draw for draw with the engine before it up to the end of its first sparse
window whose skip overran the window, where that engine drew again and this
one carries the remainder.
"""

import hashlib

import pytest

import repro.simulation.batch_engine as batch_engine
from repro.core.circles import CirclesProtocol
from repro.protocols.tournament_plurality import TournamentPluralityProtocol
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import OutputConsensus
from repro.simulation.observers import EnergyObserver, KetExchangeObserver, Observer

PROTOCOLS = {"circles": CirclesProtocol, "tournament-plurality": TournamentPluralityProtocol}
POPULATIONS = (16, 64, 300)
#: Check intervals as functions of n: below, at and above the n-interaction
#: window that the pool regimes advance in.
INTERVALS = {
    "1": lambda n: 1,
    "7": lambda n: 7,
    "n-1": lambda n: n - 1,
    "n": lambda n: n,
    "n+1": lambda n: n + 1,
    "3n": lambda n: 3 * n,
}
ALWAYS = float("inf")
NEVER = -1.0
#: ``(SPARSE_ENTER_LOAD, SPARSE_LEAVE_LOAD)`` per run of a round-trip case.
ROUND_TRIP = ((ALWAYS, ALWAYS), (NEVER, NEVER), (ALWAYS, ALWAYS))


class BoundaryRecorder(Observer):
    """Keeps ``(steps, regime, changed, counts)`` at every check boundary."""

    name = "boundary-recorder"

    def __init__(self) -> None:
        self.boundaries: list[tuple] = []

    def on_check(self, engine) -> None:
        self.boundaries.append(
            (
                engine.steps_taken,
                engine.regime,
                engine.interactions_changed,
                tuple(engine.count_vector()),
            )
        )


def near_tied_colors(n: int) -> list[int]:
    """A planted 0-majority two agents ahead of color 1."""
    first = n // 3 + 2
    second = n // 3
    return [0] * first + [1] * second + [2] * (n - first - second)


def trajectory(protocol_name: str, n: int, interval_name: str, force=None) -> str:
    """The sha256 of one case's trajectory (see the module docstring).

    ``force(enter, leave)``, when given, sets the regime thresholds before
    each run to the matching pair of :data:`ROUND_TRIP`.
    """
    phases = iter(ROUND_TRIP)

    def phase() -> None:
        if force is not None:
            force(*next(phases))

    protocol = PROTOCOLS[protocol_name](3)
    interval = INTERVALS[interval_name](n)
    seed = 1_000 * n + interval
    engine = BatchConfigurationSimulation.from_colors(protocol, near_tied_colors(n), seed=seed)
    recorder = engine.add_observer(BoundaryRecorder())
    circles = protocol_name == "circles"
    if circles:
        kets = engine.add_observer(KetExchangeObserver())
        energy = engine.add_observer(EnergyObserver(record="check"))
    runs = []
    never = OutputConsensus(target=1)  # the planted majority is color 0
    budget = 12 * n + interval // 2 + 3
    phase()
    runs.append(engine.run(budget, criterion=never, check_interval=interval))
    runs.append((engine.steps_taken, engine.interactions_changed, engine.regime))
    phase()
    runs.append(engine.run(5 * n + 1))
    runs.append((engine.steps_taken, engine.interactions_changed, engine.regime))
    phase()
    runs.append(
        engine.run(400 * n * n, criterion=protocol.default_criterion(), check_interval=interval)
    )
    runs.append((engine.steps_taken, engine.interactions_changed, engine.regime))
    observed = [recorder.boundaries, runs, engine._rng.getstate()]
    if circles:
        observed += [kets.exchanges, energy.samples]
    return hashlib.sha256(repr(observed).encode()).hexdigest()


PINNED = {
    "circles/n=16/interval=1": (
        "e379f8fe5d2bfc7f2b53b13cfa18ef50"
        "143b6629f3b5b8a0d96e66e543ee445b"
    ),
    "circles/n=16/interval=7": (
        "5402add8b0603928880bd6ca7f52da17"
        "4f40a839229c26c7ad29de5cc074a6c0"
    ),
    "circles/n=16/interval=n-1": (
        "f0e48ee62057ab8f4d79b022ed135b70"
        "8c7873db3f70beeb97178fd460f0162b"
    ),
    "circles/n=16/interval=n": (
        "a3fc0c6a76f115ca1f74aae83f2d7e77"
        "ed2bee61219973aa2ed58b216b4a7802"
    ),
    "circles/n=16/interval=n+1": (
        "7efa1b1c0e43c693c6f8853c87f74a93"
        "dcbc2e623481a7b7279e33516e23a10b"
    ),
    "circles/n=16/interval=3n": (
        "9eef9f99394afe77fcba6f8ba8451afb"
        "00f020101feb58301142b73af87a5a38"
    ),
    "circles/n=64/interval=1": (
        "4a6c6f0f76acc1e917cec3745f8245cd"
        "00a2210af4a8e79cac6b654fb477d97a"
    ),
    "circles/n=64/interval=7": (
        "d1d0911bbf347371f4f0282b475817fd"
        "2753fdd66e145adf788593edca02d49c"
    ),
    "circles/n=64/interval=n-1": (
        "9f210557c2a1f64e6931b98ca25f9c64"
        "277da8246606c5fb1623686e32b7b44a"
    ),
    "circles/n=64/interval=n": (
        "f6b9b51e0877bb5d60d90819d47b641a"
        "253fc33e108e75e5b5e309f9abb09049"
    ),
    "circles/n=64/interval=n+1": (
        "3b3a235563c97df8c85d48b4eaab5b3f"
        "f1c411792ae24ccb55527ffad706aa3f"
    ),
    "circles/n=64/interval=3n": (
        "14375e6154420e2fdd035e6afc1b3cd0"
        "64be6cb4f0dd6a99b936f95e4029622f"
    ),
    "circles/n=300/interval=1": (
        "7c8cd7860a93b05f701cb6ea333c4528"
        "f1de23ce7bf76256004a3bc102039d8d"
    ),
    "circles/n=300/interval=7": (
        "cfd34f5cb31d2239e4986d0179d24119"
        "80691f7d9f9faa0a8fa85781f3b8ff29"
    ),
    "circles/n=300/interval=n-1": (
        "cacd09ccbf97eb483b808ccd9cf578fd"
        "f8848f86cea48796319d52f3914f3d7d"
    ),
    "circles/n=300/interval=n": (
        "fa1319f8a4e46538e45dbaa59affcc5e"
        "4e1f5839b72115373856497b96a431f0"
    ),
    "circles/n=300/interval=n+1": (
        "6857892a299704cfd2789a21c54b0c8d"
        "970a3c73f6f30023cb306fddaee566e4"
    ),
    "circles/n=300/interval=3n": (
        "919853c381468e4a64e75e18b231c7c1"
        "277020e4ddbe0ca1129a578b87dfccbd"
    ),
    "tournament-plurality/n=16/interval=1": (
        "58307ba05dc6f1d1dfb3e6860bcf43e8"
        "f1006264eae1cc680d09e4e5ece479c9"
    ),
    "tournament-plurality/n=16/interval=7": (
        "ce75f9372c9b43a458d25428aff6d5b5"
        "b84b7a4013364f78210e655d0386f833"
    ),
    "tournament-plurality/n=16/interval=n-1": (
        "af034171294d33d6c72b22271deabdff"
        "0f2b2cdc7f7819a1f2be88afd59d7d58"
    ),
    "tournament-plurality/n=16/interval=n": (
        "e8146ee3dde925d11589da00643368c4"
        "a3abcf501faadfd3eb002b781f7df609"
    ),
    "tournament-plurality/n=16/interval=n+1": (
        "44f163fcded6734404fa3eef66badfe8"
        "b0654bd0786fa01261dbfd90d17de37d"
    ),
    "tournament-plurality/n=16/interval=3n": (
        "e2ad59592ff1c4982cdfaf2e178915bd"
        "3c4afcaf50954b5071222ff9806eac76"
    ),
    "tournament-plurality/n=64/interval=1": (
        "47052fb416e4e4d68502bce6791b03e4"
        "520f4b0187fda5d067d83246034548c7"
    ),
    "tournament-plurality/n=64/interval=7": (
        "8f47bc146f62b2b3806b36b4fd0ee75a"
        "55b07de0f9d3b619e966ad28d2f71fe5"
    ),
    "tournament-plurality/n=64/interval=n-1": (
        "049595272956d225a75601e72bc99628"
        "cb7a40abaacbd8beca24e2bc46ba1998"
    ),
    "tournament-plurality/n=64/interval=n": (
        "676004c0deeeff50c580e4ba3e82055b"
        "d04d10ba45ab33bbf7d808e89c8578cb"
    ),
    "tournament-plurality/n=64/interval=n+1": (
        "abf87aeaa2edc6edd68ab5255043d592"
        "9b2401650b496e6d0e32fbb7c81a4105"
    ),
    "tournament-plurality/n=64/interval=3n": (
        "51de907499fb56f08e9a213f792ff9e6"
        "6fb7edb8c3dda646c4737cb649222d5a"
    ),
    "tournament-plurality/n=300/interval=1": (
        "9e6b29ce44acc32aba3939fa9df5bc67"
        "2a989ddd9725683d527d8549c2b1b78c"
    ),
    "tournament-plurality/n=300/interval=7": (
        "48d1c6e511d40d0f32de70be60738b9c"
        "c7b7367ba171a196fba9030a7aaad5ad"
    ),
    "tournament-plurality/n=300/interval=n-1": (
        "406d94495688c9bbf7dce866cfc383a7"
        "6260cc9a5f0c61f363e8972f5f3710fe"
    ),
    "tournament-plurality/n=300/interval=n": (
        "74fc0ff4fd0a057df9fe8002a6ddc34a"
        "b0e8660d0ad1493d5c03ca22a14e45dd"
    ),
    "tournament-plurality/n=300/interval=n+1": (
        "0be6f98b2acdc0e26067f182f49fb817"
        "39bf8e71fd6a5ef887b52c3679d979f0"
    ),
    "tournament-plurality/n=300/interval=3n": (
        "57defca800d3302ccb5079dc52adeaf9"
        "016d6887a11728a2ea39c1c4ad2d4d96"
    ),
}
PINNED_ROUND_TRIPS = {
    "circles/n=16/interval=1": (
        "d4e3f08074955451c535c1ba3732bcec"
        "efd43e8191ac39e7c7885cfa178ebfa4"
    ),
    "circles/n=16/interval=7": (
        "78ba9820602455202a2ed00040cb3482"
        "629ebca70f29f10957a5a0b5d6d7729c"
    ),
    "circles/n=16/interval=n-1": (
        "c3dd98a8d7130e62d7ba8df27fe63b81"
        "d33a15812ff101de8293533bede5c70a"
    ),
    "circles/n=16/interval=n": (
        "bba5625b7c1e947c414d734a7a2a3ef0"
        "744c627372f44906edc54f47326bcf7d"
    ),
    "circles/n=16/interval=n+1": (
        "e9b03800e75be3eee886ce6ae3125aff"
        "63b7eb731a5adb2e9f7d5e20bdd01585"
    ),
    "circles/n=16/interval=3n": (
        "cb15f3d7e831986b44589703d92756dd"
        "ec2a010ba008c237b28535b4b086239a"
    ),
    "circles/n=64/interval=1": (
        "d8c6efe938ecd50dc6698eab5aa97d72"
        "b669375a60548ee8783d79835846b419"
    ),
    "circles/n=64/interval=7": (
        "c4f54d6a7d79c1018375f27a04b64636"
        "b965b3bed10ae4f873d56c59cb2a3ddd"
    ),
    "circles/n=64/interval=n-1": (
        "b57b57e9e299284dd7435874c436eb15"
        "f9769c0b7daf217699bcf055f3996932"
    ),
    "circles/n=64/interval=n": (
        "4ca0fc7241f5ccea605b4f977686a98c"
        "2824bbed89abbcd822d3ffd89922976d"
    ),
    "circles/n=64/interval=n+1": (
        "dd3e974e6254758d152e6a52cc8762c9"
        "3d5a1e55d8b43e4e8ab319025508e138"
    ),
    "circles/n=64/interval=3n": (
        "3fc56690d4cf829fe966996819b04668"
        "194b5d5ae07ecdf7749f33763ee5c501"
    ),
    "tournament-plurality/n=16/interval=1": (
        "b81f890251a289fd90ea77383de2414c"
        "148479ac865548bce45b836b4ebd0a38"
    ),
    "tournament-plurality/n=16/interval=7": (
        "753686f8f0622f3b0f9e6c100b9311f7"
        "b979f2d86c82055d9dae218a74d711f3"
    ),
    "tournament-plurality/n=16/interval=n-1": (
        "0ad4142201af884ac383182f19f5e82d"
        "ccd4208a7b74b1cedb1f03d531fccc49"
    ),
    "tournament-plurality/n=16/interval=n": (
        "85a173e262e2c9097e061370ae923490"
        "fb8f11eda77f81e053292987c7cca546"
    ),
    "tournament-plurality/n=16/interval=n+1": (
        "b469b94acf50165cf8f5e7ebc57915e0"
        "6e9fcf88f6f70e53c72882999bbbed10"
    ),
    "tournament-plurality/n=16/interval=3n": (
        "470269918802daec307f39e3adf6335b"
        "654ed2c6090c55e03b623d537f417645"
    ),
    "tournament-plurality/n=64/interval=1": (
        "c5b90a1dc62f17d64a342d423eb23300"
        "b033396e3da9ac84a6e1b457b4d67a1a"
    ),
    "tournament-plurality/n=64/interval=7": (
        "3d05ea50dfd6dc7e444f5aa425fc497e"
        "6fac3a543b49df23c2b36702a3870864"
    ),
    "tournament-plurality/n=64/interval=n-1": (
        "8af242e28a9a444360413adcf49367b2"
        "e642cb22f39a198e741dceaf63a81b34"
    ),
    "tournament-plurality/n=64/interval=n": (
        "6c36a51019a167f35b0215b035296c50"
        "05d532e1f8d35c8dcdcd55f7e55faf50"
    ),
    "tournament-plurality/n=64/interval=n+1": (
        "7d6d35ca474750933247c342ec304475"
        "66e42a8693725bd96ed28cc5037b9452"
    ),
    "tournament-plurality/n=64/interval=3n": (
        "bee9024ab8c61b99675a8aeb3b6c1a65"
        "964da3b3caf09726eb056fe7689f25bb"
    ),
}


@pytest.mark.parametrize("interval_name", list(INTERVALS))
@pytest.mark.parametrize("n", POPULATIONS)
@pytest.mark.parametrize("protocol_name", list(PROTOCOLS))
def test_trajectory_is_pinned(protocol_name, n, interval_name):
    key = f"{protocol_name}/n={n}/interval={interval_name}"
    assert trajectory(protocol_name, n, interval_name) == PINNED[key]


@pytest.mark.parametrize("interval_name", list(INTERVALS))
@pytest.mark.parametrize("n", POPULATIONS[:2])
@pytest.mark.parametrize("protocol_name", list(PROTOCOLS))
def test_forced_round_trip_is_pinned(monkeypatch, protocol_name, n, interval_name):
    def force(enter: float, leave: float) -> None:
        monkeypatch.setattr(batch_engine, "SPARSE_ENTER_LOAD", enter)
        monkeypatch.setattr(batch_engine, "SPARSE_LEAVE_LOAD", leave)

    key = f"{protocol_name}/n={n}/interval={interval_name}"
    assert trajectory(protocol_name, n, interval_name, force) == PINNED_ROUND_TRIPS[key]
