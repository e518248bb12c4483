"""Golden digests: output that a behaviour-preserving change must not move.

A change that alters results on purpose updates these digests and says
so in CHANGES.md. The manifests are built from their JSON form, so the
digests also pin the manifest schema and the config hash.
"""

import hashlib

from driftpool.cli import cmd_run
from driftpool.data import default_stream_spec
from driftpool.manifest import CONFIG_TYPES, RunManifest


def default_stream_manifest():
    spec = default_stream_spec(seed=0)
    return RunManifest.from_dict({
        "data": {
            "kind": "synthetic",
            "concepts": [vars(c) for c in spec.concepts],
            "schedule": [list(s) for s in spec.schedule],
            "seed": 0,
        },
        "lookback": 60, "horizon": 30, "forecaster": "linear", "lr_raw": 0.025,
        "seed": 0, "normalize": "warm_segment",
    })


def c11_manifest():
    """The manifest of test_acceptance.test_c11_determinism."""
    return RunManifest.from_dict({
        "data": {
            "kind": "synthetic",
            "concepts": [
                {"level": 0.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
                {"level": 6.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
            ],
            "schedule": [[0, 500], [1, 500], [0, 500], [1, 500]],
            "seed": 11,
        },
        "lookback": 20, "horizon": 10, "forecaster": "mlp", "hidden": 8, "lr_raw": 1e-3,
        "warm_epochs": 2, "seed": 7,
    })


def results_sha256(manifest, out_dir):
    cmd_run(manifest, out_dir=out_dir)
    return hashlib.sha256((out_dir / "results.json").read_bytes()).hexdigest()


def test_default_stream_linear_digest(tmp_path, capsys):
    manifest = default_stream_manifest()
    assert manifest.config_hash() == (
        "b060f671a3f0cdcd965055984c4d1a63057c8aa956e41eeac3ea7df40954eae7"
    )
    assert results_sha256(manifest, tmp_path) == (
        "3eb53be39b45d14f19df7967b273bff012d38ec395865cc0b2abf5d02611faa1"
    )


def test_c11_mlp_digest(tmp_path, capsys):
    manifest = c11_manifest()
    assert manifest.config_hash() == (
        "cb92ba1b7b0061c979ca3d9c5238a79486a13a62ba8562e127567ae3da79c305"
    )
    assert results_sha256(manifest, tmp_path) == (
        "c39e662c80e4e2092bba52088cfcbe0e3be2466d9505f498a9edaa3dd3ba3277"
    )


def test_config_file_keys():
    assert set(CONFIG_TYPES) == {
        "tau_mu", "tau_gene", "tau_l", "tau_safe", "tau_e", "tau_lr", "t_lr", "scope_s",
        "retrieval_score", "evolution", "elimination", "gradient_abandonment",
        "optimizer_adjustment", "use_local_gene", "use_global_gene", "max_pool_size",
        "lookback", "horizon", "forecaster", "hidden", "lr_raw", "warm_epochs", "seed",
        "normalize", "data", "column", "has_header",
    }
    optional = {k for k, (_, accepts_none) in CONFIG_TYPES.items() if accepts_none}
    assert optional == {"scope_s", "max_pool_size", "lr_raw"}
