"""Golden digests of every registered experiment's result table.

Each value is the sha256 of ``ExperimentResult.to_table()`` at
``tiny_experiments`` scale (see ``tests/conftest.py``), captured on the
tree that still carried the reference paths (legacy binary SIR resolver,
per-listener sync events, per-point sweep dispatch, scalar hop fills).
The digests are identical on the object kernel and the SoA engine and at
any job count, so one table pins every configuration.
"""

from __future__ import annotations

import hashlib

#: Statistical channel (the default).
EXPERIMENT_TABLE_DIGESTS = {
    "ablation_correlator":
        "bc8c390fb4bb64d2e15457809eb3a2cd5d3cdfae3665d7f26cb2af69ea415977",
    "ablation_rf_delay":
        "c30a9956cce51a2f2def9e3e4844f3b2b06015f3d46abf234ce5043f112df5af",
    "ablation_trains":
        "3999b7dda97f7905eb9500818aca75424922ab8fd6251cb03f4f80964c49aace",
    "ext_afh":
        "f104194d193a722771e81bd6f5f4e81896bedb37197b32ac84df22836e8c0b2d",
    "ext_interference":
        "c36cd3f91349cb9892e1b52e8f26469b4df7037a26e2cedb8efb09645c8d88ad",
    "ext_interference_spatial":
        "b99f60a256cdbd664672f189b0ed15307ebf0714dcd3aae415e81cbd3995a6cf",
    "ext_power":
        "eaaa47db2740f4f6b3c36febf0b1de8564f7e713485c852c87b19850ab5c3595",
    "ext_throughput":
        "dbdc5f53b04a4a5f3f9c1f9faae8830f85f5917ccb9ee5bea028d9cd8aef85b4",
    "fig05":
        "7141c384897d3ccdf9f0e77a9f174218118178ddea6dcfe9882173f9a782c0dc",
    "fig06":
        "07ac4d548a30f7efea30d0a386b402fd708dd2b30de8d92f9f402bf177ea1d2e",
    "fig07":
        "f330272d0e4f50af6f5a5e5fc66b8858ad07f2b6adf2282a038adf326beee6fa",
    "fig08":
        "71d45f55a351d555e0ff8fb25a62856e253c959c8e90d4e3f5b2895bda62c490",
    "fig09":
        "04e78a62391e95c445ea4b7da42521ad74de1a5a7438cf441795e3a9b8668944",
    "fig10":
        "0322ea0b1dcf22efb9073cc6efcfa1820b8a9b226210d614206852e0b8e5cf10",
    "fig11":
        "844802414f3a103b6da0ca4dcf83ac62f4c3d42091c95c553c2c3dc915e8ffba",
    "fig12":
        "967d601d1991e0839056ec7c74a995a8bdb9296503b9546ec7898efbe500ba47",
}

#: Bit-accurate channel (``REPRO_BIT_ACCURATE=1``): full air-frame
#: encode/decode with per-bit noise, the codec's end-to-end workload.
#: fig05 and fig09 run at BER 0, so their tables equal the statistical
#: ones; they are here because their master packets reach two or three
#: listening slaves at once, each decoded from its own frame.
BIT_ACCURATE_TABLE_DIGESTS = {
    "fig05":
        "7141c384897d3ccdf9f0e77a9f174218118178ddea6dcfe9882173f9a782c0dc",
    "fig06":
        "6574929498e68d9c2b732f06b4b9db6a51ab36a98c293b0372b1a9637a27de5f",
    "fig07":
        "8365887637273dfe5e5f8362f60c8114a1163592bb806e48c7f4e9b55c9e9e67",
    "fig09":
        "04e78a62391e95c445ea4b7da42521ad74de1a5a7438cf441795e3a9b8668944",
}


def table_digest(result) -> str:
    """sha256 hex digest of an ``ExperimentResult``'s rendered table."""
    return hashlib.sha256(result.to_table().encode("utf-8")).hexdigest()
