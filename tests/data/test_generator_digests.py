"""Golden digests of every registered dataset generator.

Each row pins ``fingerprint_dataset(build_dataset(name, seed, **kwargs))``
(values, series names and ground truth) at one small fixed spec.  A
generator edit that changes the data it produces fails here instead of
silently moving every downstream result and cached score.  A deliberate
change to a generator's output means updating its rows here, in the same
change, and saying why.

The lorenz96 rows also cover the non-default specs of the integrator:
the smallest and a wide ring, explicit float and integer forcing,
observation noise, and non-default step size and subsampling.
"""

import pytest

from repro.service.jobs import fingerprint_dataset
from repro.service.registry import build_dataset, dataset_names

GOLDEN = [
    ("diamond", 0, {"length": 120}, "17b767d6159e48b074f261dab8a061b87ee0a628f54dc4ec249a90d8e17882ef"),
    ("mediator", 1, {"length": 120}, "bcda8b2d34dd1cc96b0361373aae2ec32abdabb76f44cc09e2f812fd12a1754f"),
    ("v_structure", 2, {"length": 120}, "393ca02b09ef20cb3b7dba00ad87c8e48d74ad990a393af2262d43198f0b9384"),
    ("fork", 3, {"length": 120}, "a06ba69c68d13612383a27172fe5b63d1ba0cb4b12dae143d6f92815eea99d71"),
    ("fork", 4, {"length": 200, "nonlinearity": "sin", "noise_std": 0.5},
     "4b7cd85282ff1ef70e64bee75906cd98fc835f54d53c057cd0381fa2d23a65cd"),
    ("lorenz96", 0, {"length": 120}, "5f3a0baa917dd1c850c48818161394d83c7c9fadc836b7a7b8f40e669848009e"),
    ("lorenz96", 7, {"length": 200}, "58e96aaa6bfc435721a6854afa1669cf3ab7c0a5327b48029a224219aee03a73"),
    ("lorenz96", 1, {"n_series": 4, "length": 60},
     "f089b51f9e56457acdc5f073a6f67515dc1c13d08986433d76b8743e1ae87445"),
    ("lorenz96", 2, {"n_series": 20, "length": 80},
     "f17bd1d937884a4247e7a37c343575a756dd4116b801b7714c2d449625b22887"),
    ("lorenz96", 3, {"length": 60, "forcing": 32.5},
     "1c51f7d3aa95f48d1a8541cb9567a995224cb3fee0251d0d5d8cdb0cc5bd8efd"),
    ("lorenz96", 4, {"length": 60, "forcing": 35},
     "115f4dde4f0e617a0a80f59d534303673496c1f72742c70314deafa834e4b4f4"),
    ("lorenz96", 5, {"length": 60, "noise_std": 0.3},
     "c5a67908c0fe70f78e3e3b68ce2dbe0886f643c8b17dc027d614d1457363d27c"),
    ("lorenz96", 6, {"length": 60, "dt": 0.005, "subsample": 3},
     "e3468a359cf9072babb55d5404b871baa47122f1d1421df37151a9e93925e19e"),
    ("lorenz96", 8, {"length": 50, "forcing": 8, "dt": 0.02, "subsample": 1,
                     "include_self_loops": False},
     "9dd36943d92e60e5636b5cd1364333ad16a05bc02de9293a90fe98e702612bbc"),
    ("fmri", 0, {"length": 120}, "f0a0ebf16a34d01ef296dfbc118e08476ead6f3cb7684633dc4a03e4fbf30c2f"),
    ("fmri", 1, {"n_nodes": 7, "length": 100, "network_id": 3},
     "2868c4497f421c761ae173afcc3d6cfa1944a461b889935638a3e0f2323bf163"),
    ("sst", 0, {}, "95dbe1d4680ad93cd9395aa03e16a9e4f5beef8b9eb70618054d98be1502348f"),
    ("sst", 5, {}, "998efb5c12090f6755ee9ba95a428b2b2b73bb2df364f7b5293b67663d5a5766"),
]


def test_every_registered_generator_is_pinned():
    assert {name for name, _, _, _ in GOLDEN} == set(dataset_names())


@pytest.mark.parametrize(
    "name, seed, kwargs, digest", GOLDEN,
    ids=[f"{name}-seed{seed}-{'-'.join(f'{k}={v}' for k, v in kwargs.items()) or 'default'}"
         for name, seed, kwargs, _ in GOLDEN],
)
def test_generator_digest(name, seed, kwargs, digest):
    assert fingerprint_dataset(build_dataset(name, seed, **kwargs)) == digest
