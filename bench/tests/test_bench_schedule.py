"""Seeded schedules: same seed, same inputs; another seed, another order."""

import itertools
import random
from collections import Counter
from types import SimpleNamespace

from bench import workloads
from bench.workloads import (
    ColdPipeline, PaperSweep, ServeAdvisory, ServeWhatIf, _rng)


def _rounds(workload, seed, n=3):
    return list(itertools.islice(workload.rounds(seed), n))


def test_offline_rounds_repeat_per_seed_and_reorder_across_seeds():
    for workload in (ColdPipeline(), PaperSweep()):
        first = _rounds(workload, 1)
        assert first == _rounds(workload, 1)
        other = _rounds(workload, 2)
        assert first != other
        catalogue = Counter(workload.operations())
        for rnd in first + other:
            # every round runs the whole catalogue once
            assert Counter(item[:len(next(iter(catalogue)))]
                           for item in rnd) == catalogue


def test_cold_pipeline_tracer_seeds_come_from_the_catalogue():
    seeds = {item[2] for rnd in _rounds(ColdPipeline(), 5, 10) for item in rnd}
    assert seeds <= set(ColdPipeline.TRACER_SEEDS)
    assert len(seeds) > 1


def test_paper_sweep_seed_comes_from_the_catalogue():
    picked = {PaperSweep().sweep_seed(s) for s in range(40)}
    assert picked <= set(PaperSweep.SWEEP_SEEDS) and len(picked) > 1


def _service_state(workload):
    hwm = {app: 1 << 30 for app in workloads.APPS}
    state = SimpleNamespace(hwm=hwm)
    if isinstance(workload, ServeAdvisory):
        state.catalogue = workload.catalogue()
    else:
        state.cands = {(app, system): [{"s": "dram"}] * workload.CANDIDATES
                       for app in workload.apps()
                       for system in workload.SYSTEMS}
    return state


def workload_card(workload, key):
    """The deck stratum a drawn request came from."""
    if isinstance(workload, ServeAdvisory):
        return key[:2]
    return key[0], key[1]


def _draws(workload, seed, n=200):
    state = _service_state(workload)
    rng = _rng(workload.name, seed)
    return [key for key, _ in workload.schedule(state, rng, n)]


def test_service_draws_repeat_per_seed_and_stay_in_the_catalogue():
    for workload in (ServeAdvisory(), ServeWhatIf()):
        first = _draws(workload, 1)
        assert first == _draws(workload, 1)
        assert first != _draws(workload, 2)
        deck = workload.deck()
        # whole decks: every stratum as often as every other
        assert len(first) % len(deck) == 0
        strata = Counter(workload_card(workload, key) for key in first)
        decks = len(first) // len(deck)
        assert strata == Counter({card: n * decks
                                  for card, n in Counter(deck).items()})
        if isinstance(workload, ServeAdvisory):
            assert set(first) <= set(workload.catalogue())
        else:
            kinds = Counter(key[0] for key in first)
            assert kinds["whatif"] / len(first) == 0.6
            for key in first:
                assert key[1] in workloads.APPS and key[2] in workload.SYSTEMS
                if key[0] == "whatif":
                    assert len(set(key[3:])) == workload.K
                    assert all(0 <= i < workload.CANDIDATES for i in key[3:])


def test_whatif_candidates_do_not_depend_on_the_seed():
    wl = SimpleNamespace(name="toy", objects=[
        SimpleNamespace(site=SimpleNamespace(name=f"s{i}")) for i in range(6)])
    random.seed(123)
    a = ServeWhatIf().candidates(wl, "pmem6")
    random.seed(456)
    assert a == ServeWhatIf().candidates(wl, "pmem6")
    assert len(a) == ServeWhatIf.CANDIDATES
    assert a != ServeWhatIf().candidates(wl, "pmem2")
