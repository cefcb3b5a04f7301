"""Pinned trajectories of the batch engine's pool regimes below the kernel gate.

The dense and sparse regimes, their regime decisions and the run loop's
handling of event-free sparse windows are bookkeeping around one fixed RNG
stream: none of them may move a draw, a regime switch, a check boundary or a
record.  Each case runs one seeded engine through three ``run`` calls:

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
end.  The digests were computed on the engine that drew every sparse window
through ``_run_sparse`` and re-summed the active mass at every regime
decision.
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
        "31ed1c0481d743da46c3b8594b0c7334"
        "5b5344aee03602e49de4ce467bbe4d9f"
    ),
    "circles/n=16/interval=7": (
        "f09255801fdd87efd8e6b4aae9a1bfd8"
        "d6b023c211628f6ec9910a5d2b3d8741"
    ),
    "circles/n=16/interval=n-1": (
        "06fa6fa0ccbce53330735c73240d56b6"
        "cb5baa05d8268571b7da73e3a66443c0"
    ),
    "circles/n=16/interval=n": (
        "113281d18dd244d193b0d6348e198632"
        "f4d3cbd97d52efe3739a3ac93d95bc96"
    ),
    "circles/n=16/interval=n+1": (
        "685ca5f652d073da684701a7db453a7e"
        "cf1bfe2d32f16e3d6b47afdda1a71ab7"
    ),
    "circles/n=16/interval=3n": (
        "e1bdbc0d7b93a232df460bf1a2be9a8c"
        "303bb703965adb262077cb55897ce5e3"
    ),
    "circles/n=64/interval=1": (
        "cfd6cecc668d1428f9c94e10a5768c82"
        "c2d3347760e62043083e618715f2b9bf"
    ),
    "circles/n=64/interval=7": (
        "259bfad21f7462d75e914707f889f31c"
        "bad1a2b680487ced4b4ec246948a23e4"
    ),
    "circles/n=64/interval=n-1": (
        "7cb8be143df1530b53f98a382468b56b"
        "2cd3048e64337802de204e2f2edfd06a"
    ),
    "circles/n=64/interval=n": (
        "deac1ccb64a46ca350b94a443c47695c"
        "579b3afa38bea4fe5fba925cd48f6743"
    ),
    "circles/n=64/interval=n+1": (
        "660e422c5741e2d00ff4c49af3fe3dec"
        "fb9aede6d0cae8b57ba44ea240aacc6f"
    ),
    "circles/n=64/interval=3n": (
        "b5c7ff32c4eef567bc5d669392d003b3"
        "af2ba8c44d90c06e83c1cbc95decc26b"
    ),
    "circles/n=300/interval=1": (
        "51534170dbdd7345c42e9d58f3311092"
        "62d1abb461346987227a8721d609cccb"
    ),
    "circles/n=300/interval=7": (
        "f79ba4964542b0850f08c0be1a96ec1f"
        "0944b8eed0896402badf1adfc46956cb"
    ),
    "circles/n=300/interval=n-1": (
        "b643918dc14aba7c1593e0426a337af7"
        "34136b61099aefa787e5cb3a1fdd492c"
    ),
    "circles/n=300/interval=n": (
        "bf99729e8c175ffb86dbfcc8a37f0a0d"
        "b9f981e4d8721b013da55ae52142ce5c"
    ),
    "circles/n=300/interval=n+1": (
        "d4b525b6e6df1cfff2c957a0a68ec120"
        "e9c8189d10498a1ffaf2fec2e9a02f48"
    ),
    "circles/n=300/interval=3n": (
        "8b09d38478323ff87e8fe1a784ecd5fc"
        "801aae1f728a2375adc585cc0d321dcd"
    ),
    "tournament-plurality/n=16/interval=1": (
        "58307ba05dc6f1d1dfb3e6860bcf43e8"
        "f1006264eae1cc680d09e4e5ece479c9"
    ),
    "tournament-plurality/n=16/interval=7": (
        "ed0881325c29e85d3347d4dd29a7c2e0"
        "da69f5667635f53e8ed238d489acada3"
    ),
    "tournament-plurality/n=16/interval=n-1": (
        "2c5b31b7b22a57baa5674012abf99fc7"
        "d383e97edaa2c0e3a542251cc3089b1c"
    ),
    "tournament-plurality/n=16/interval=n": (
        "d8ae8784c7956e05250079ec9c8d5eb7"
        "6d9897f87df0231c4ec45039c97d577b"
    ),
    "tournament-plurality/n=16/interval=n+1": (
        "5dac510b0a3278894af6ca373b41c0a9"
        "d62d1aed31a66618c4e249c7df06df57"
    ),
    "tournament-plurality/n=16/interval=3n": (
        "c7e6cf8f8e67344360875bab3948f83a"
        "b1648c922ac080a95013fa20f1b6b729"
    ),
    "tournament-plurality/n=64/interval=1": (
        "2d87a0382adf54034b05ca591f16cff2"
        "854fe4f39e9c7911bf3b7c618cfa90be"
    ),
    "tournament-plurality/n=64/interval=7": (
        "805ed72ae79220449eb73969d709a8b0"
        "bf26949ac25974919efd6adc22e793a2"
    ),
    "tournament-plurality/n=64/interval=n-1": (
        "88721c9090252cd36632a1fb19a0074e"
        "f37b0024e0e6b3ad503b3721bc6fb454"
    ),
    "tournament-plurality/n=64/interval=n": (
        "cd23323d3a39eccad3365e550ae6899a"
        "581a10a29db25b55f8292f3e6bed9095"
    ),
    "tournament-plurality/n=64/interval=n+1": (
        "4150e4a94fb9743d77877d53e7a1326c"
        "986d16264f3f6fc45236cb2b612ce916"
    ),
    "tournament-plurality/n=64/interval=3n": (
        "4a42a1691f46a1dd74521aa623d9021a"
        "40cfd54e21df6e54173d9c7f0e4b75b2"
    ),
    "tournament-plurality/n=300/interval=1": (
        "5f9316e970c86a48d4d75e49ec1fdce8"
        "ed777f8700844a55872ac6f650f4785a"
    ),
    "tournament-plurality/n=300/interval=7": (
        "c2c7a9f35ee24266f0368860b2a8aa06"
        "5244e08ec520f5f8d84b8653693f3895"
    ),
    "tournament-plurality/n=300/interval=n-1": (
        "49656586009db01755972ec893f98ed4"
        "1459187dc5af9fca402ef848a7e6f02f"
    ),
    "tournament-plurality/n=300/interval=n": (
        "44aa2882b13e8e5118546de57999f250"
        "ba58ce635777f077afebfc7015d6c686"
    ),
    "tournament-plurality/n=300/interval=n+1": (
        "ca0b9e3555cf6755931343e1f0677f8a"
        "660cb5a9c3882e79a8cae03fa327a84b"
    ),
    "tournament-plurality/n=300/interval=3n": (
        "2989f443859a69d56374188574945baa"
        "1b2f53eb032bcbe7a1a3fed5e89e121a"
    ),
}
PINNED_ROUND_TRIPS = {
    "circles/n=16/interval=1": (
        "1ac8cac9067647cd9708b1f34393894a"
        "8a77a8aa82be204c68af07f98e48a0d4"
    ),
    "circles/n=16/interval=7": (
        "3ed84714cd1ea2e1bc86758ad589f55f"
        "99a78d36c2899514f3d8a8d287b445f2"
    ),
    "circles/n=16/interval=n-1": (
        "9958132e9d2ccbd21fd9ce4c6a599c7b"
        "1570b8c3f43c29c4c34b0cf2ddf0c699"
    ),
    "circles/n=16/interval=n": (
        "c5d4cce0e25f3388f3148d1d5df51076"
        "7bcc84e7d99722614a602b28d18b32f1"
    ),
    "circles/n=16/interval=n+1": (
        "c9f4f471eeb3229bbc939b3d80a67b76"
        "892c377379842c3dda97146e172e4941"
    ),
    "circles/n=16/interval=3n": (
        "29edde80789e982c47272ce53b056273"
        "622a237c3ec50abf6834560349f3d5c5"
    ),
    "circles/n=64/interval=1": (
        "ce97acb85056c011909fa006100f9216"
        "9af3c61a899748e87b82c34258437254"
    ),
    "circles/n=64/interval=7": (
        "ce04be58118b0c230df734e7a32eabe5"
        "70dd86227c00349f4190bb5277321e0d"
    ),
    "circles/n=64/interval=n-1": (
        "d9fe3d1c6619cde55b5cac0afcce97a4"
        "05b43957262e506d8f17e9af31a9b2c6"
    ),
    "circles/n=64/interval=n": (
        "8c6862a0dc530fd2c97cd84bf199cb9a"
        "c10627407fb02c74c49ba888f82bf711"
    ),
    "circles/n=64/interval=n+1": (
        "2d776ec08874b5c00f5ef438f415a92a"
        "530578b10b757ba11ffeb33ddd4a13e7"
    ),
    "circles/n=64/interval=3n": (
        "55874ced77db89588f717c11d1231f54"
        "ba19fa807900ae80c2253e109a23422c"
    ),
    "tournament-plurality/n=16/interval=1": (
        "89bd9c5d72b4c6ca58cefbca1832a062"
        "2c4effc2c30f17d2e6992bf5a6c240a9"
    ),
    "tournament-plurality/n=16/interval=7": (
        "8f938d722d573d5b75a111d55c58612f"
        "970c4514df13fcd973ebc00818fa4c98"
    ),
    "tournament-plurality/n=16/interval=n-1": (
        "5592aee4663dca6f1aa013ab70aa7938"
        "a294f268b267322bbd80c32e1a133a47"
    ),
    "tournament-plurality/n=16/interval=n": (
        "71c32c2a5fa5dfa8dbf96d6ac67d0eb9"
        "d950426bcad5897f551a3e60e626890b"
    ),
    "tournament-plurality/n=16/interval=n+1": (
        "39fe88edb3a06b166f5b090bc1d828c0"
        "daeeede88ce27cf77a8ab12e6e3f2ca1"
    ),
    "tournament-plurality/n=16/interval=3n": (
        "83bb50004261c3070c63e8009bf381dc"
        "2daa1cff18d6b4d2aea852ce6a3da86d"
    ),
    "tournament-plurality/n=64/interval=1": (
        "eaf144c37596c8d832048eacd6231425"
        "f1ab06f8b5fac36748acc458fe7f3526"
    ),
    "tournament-plurality/n=64/interval=7": (
        "a1b377c640642c0bf95299b9b29e7019"
        "4e73163081723fc598fb0a692feffc7e"
    ),
    "tournament-plurality/n=64/interval=n-1": (
        "8d68cf3942280d1cb03917feaef529f2"
        "c45c67926f7965603c1dc9c37d425ea6"
    ),
    "tournament-plurality/n=64/interval=n": (
        "08535b4ba00b9e99ee08fb79532ef2ac"
        "4164383127049058b76aa6a714b59ef2"
    ),
    "tournament-plurality/n=64/interval=n+1": (
        "8026ea319e2290c60e74840da442f7f2"
        "f31838c8ef11f2337afdc34367eb5593"
    ),
    "tournament-plurality/n=64/interval=3n": (
        "d2bf9b1430cf6d4479aacc76e13ec39a"
        "acfbf28dc472f7eaafbb9b0da8f97108"
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
