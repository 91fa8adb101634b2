"""The workload content fingerprint (repro.apps.workload).

It keys the profile cache (``ProfileKey``), the on-disk profile
artifacts and the engine's workload plans, so the registered apps' values
are pinned: a change to the hash would silently orphan every stored
profile.
"""

from repro.apps import get_workload, list_workloads, workload_fingerprint
from repro.profiling import cache

#: the registered apps' fingerprints, as profile artifacts store them
PINNED = {
    "cloverleaf3d": "95aca33aeb647f81",
    "hpcg": "09ecedcf9a3e1da1",
    "lammps": "a5e45b6e1886f834",
    "lulesh": "9f5d228ad3ae6e67",
    "minife": "7df48acb1952c151",
    "minimd": "175cec1bcff36d22",
    "openfoam": "fc0d7c660d423736",
}


def test_registered_apps_keep_their_fingerprints():
    assert sorted(list_workloads()) == sorted(PINNED)
    for app, fingerprint in PINNED.items():
        assert workload_fingerprint(get_workload(app)) == fingerprint, app


def test_profile_cache_reexports_the_same_function():
    assert cache.workload_fingerprint is workload_fingerprint
