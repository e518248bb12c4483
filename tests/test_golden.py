"""Golden digests: output that a behaviour-preserving change must not move.

Each pinned run writes a whole bundle: results.json, the instances and
trajectories extracts, labels.csv and the echoed manifest.json, and every
file's sha256 is pinned. So are the values.csv and labels.csv that
`driftpool generate` writes for the default stream. A change that alters
output on purpose updates these digests and says so in CHANGES.md. The
manifests are built from their JSON form, so the digests also pin the
manifest schema and the config hash.

Print the digests of the current tree, laid out as `PINS` below, with

    PYTHONPATH=src python tests/test_golden.py

and paste the printed `PINS = {...}` over the one here.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from driftpool.cli import cmd_generate, cmd_run
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


def narrowed_scope_manifest():
    """A signature tail (scope_s 7) shorter than the ground truth (horizon 10),
    scored by likelihood in a capped pool: splits, abandonments, evictions."""
    return RunManifest.from_dict({
        "data": {
            "kind": "synthetic",
            "concepts": [
                {"level": 0.0, "amplitude": 1.0, "period": 12, "noise_sigma": 0.3},
                {"level": 5.0, "amplitude": 0.5, "period": 24, "noise_sigma": 0.2},
                {"level": -4.0, "amplitude": 2.0, "period": 8, "noise_sigma": 0.5},
                {"level": 9.0, "amplitude": 0.0, "period": 24, "noise_sigma": 1.0},
            ],
            "schedule": [[0, 400], [1, 300], [2, 300], [0, 300], [3, 300], [1, 300],
                         [2, 300], [3, 300], [0, 300]],
            "seed": 5,
        },
        "lookback": 20, "horizon": 10, "forecaster": "linear", "lr_raw": 0.005,
        "warm_epochs": 2, "seed": 3,
        "cep": {"scope_s": 7, "retrieval_score": "mle", "max_pool_size": 3},
    })


def pinned_run(make_manifest, log_forecasts=False):
    """Writes a run's bundle into a directory and returns its config hash."""
    def write(out_dir):
        manifest = make_manifest()
        cmd_run(manifest, out_dir=out_dir, log_forecasts=log_forecasts)
        return {"config_hash": manifest.config_hash()}
    return write


def generate_default_stream(out_dir):
    cmd_generate(default_stream_spec(seed=0), out_dir)
    return {}


# name: writes the pinned files into a directory, returns any digest besides theirs
RUNS = {
    "default_stream_linear": pinned_run(default_stream_manifest),
    "c11_mlp": pinned_run(c11_manifest),
    "narrowed_scope_mle": pinned_run(narrowed_scope_manifest),
    "narrowed_scope_mle_forecasts": pinned_run(narrowed_scope_manifest, log_forecasts=True),
    "generate_default_stream": generate_default_stream,
}

PINS = {
    "default_stream_linear": {
        "config_hash":
            "b060f671a3f0cdcd965055984c4d1a63057c8aa956e41eeac3ea7df40954eae7",
        "instances.csv":
            "dcac5e3ab3ec1a2c5d755762d5eef03ea769e32ca580f42c51d63856c8d6a773",
        "labels.csv":
            "69a96c25df41f4db9f9b0796b4e182bf3fe684e7ad9f60aabe9a03b9f5b05ecf",
        "manifest.json":
            "a4fc4a135ba5c42020f174cf2477b822098d80c94a14c8ca1d8e14c68f208e18",
        "results.json":
            "3eb53be39b45d14f19df7967b273bff012d38ec395865cc0b2abf5d02611faa1",
        "trajectories.csv":
            "99b7a76c08681fb748ea8b142e29c895af93f303452d8ace5114cc54fe7d79fa",
    },
    "c11_mlp": {
        "config_hash":
            "cb92ba1b7b0061c979ca3d9c5238a79486a13a62ba8562e127567ae3da79c305",
        "instances.csv":
            "b7d289067ffb099f62adc6de44a6e8f05f91c9fa295413609d27e66fc2a7d22f",
        "labels.csv":
            "b164d7e5890df6518db29c4d082909dc6be5d891a9bcb669725dffc00c01f67b",
        "manifest.json":
            "3ae5544b70f972f9b39f57388a13b88bbdfcc9ad2550385314851da7f0a076d8",
        "results.json":
            "c39e662c80e4e2092bba52088cfcbe0e3be2466d9505f498a9edaa3dd3ba3277",
        "trajectories.csv":
            "f672e47c4c18b66ff76e0d0c7ef9d51fcdd81203536f95be816db5a445528b7a",
    },
    "narrowed_scope_mle": {
        "config_hash":
            "03fca36191fcb45742924b0a25343b18d376856934dd50f2cf6c8a96c12b7828",
        "instances.csv":
            "fe1cd9fb0a8f05b26c17a1abc685c4b253e4a6e00d1502d96ce094920c7a9618",
        "labels.csv":
            "86233f20b4a9b1fc530c6412b798f2f6359024dce00ec32ae6ab6e838e8e29b6",
        "manifest.json":
            "9f42104cc72683313cabe29048b6afd5f1c373f72a0f43da035eac707e6addc1",
        "results.json":
            "74aec5012e0042847255cf670f85f10a94ed0c75d4619cac593b2f2f58c135cf",
        "trajectories.csv":
            "01a7e5fd1d65bd12535cbc1ff214d976348c1330a17340117bc64ceb562a27dd",
    },
    "narrowed_scope_mle_forecasts": {
        "config_hash":
            "03fca36191fcb45742924b0a25343b18d376856934dd50f2cf6c8a96c12b7828",
        "instances.csv":
            "fe1cd9fb0a8f05b26c17a1abc685c4b253e4a6e00d1502d96ce094920c7a9618",
        "labels.csv":
            "86233f20b4a9b1fc530c6412b798f2f6359024dce00ec32ae6ab6e838e8e29b6",
        "manifest.json":
            "9f42104cc72683313cabe29048b6afd5f1c373f72a0f43da035eac707e6addc1",
        "results.json":
            "fedfa4813416a175569553c8c29d617cbe00357f44541f23eb7ed1a23f87003a",
        "trajectories.csv":
            "01a7e5fd1d65bd12535cbc1ff214d976348c1330a17340117bc64ceb562a27dd",
    },
    "generate_default_stream": {
        "labels.csv":
            "69a96c25df41f4db9f9b0796b4e182bf3fe684e7ad9f60aabe9a03b9f5b05ecf",
        "values.csv":
            "4f1cbe6e729843f1a0da6f19af32e703330021b575f3bb14442316470ad1bc90",
    },
}


def run_digests(name, out_dir):
    """The config hash of a pinned run, if any, and the sha256 of every file it writes."""
    extra = RUNS[name](out_dir)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(Path(out_dir).iterdir())}
    return {**extra, **files}


def test_default_stream_linear_digest(tmp_path, capsys):
    assert run_digests("default_stream_linear", tmp_path) == PINS["default_stream_linear"]


def test_c11_mlp_digest(tmp_path, capsys):
    assert run_digests("c11_mlp", tmp_path) == PINS["c11_mlp"]


def test_narrowed_scope_mle_digest(tmp_path, capsys):
    assert run_digests("narrowed_scope_mle", tmp_path) == PINS["narrowed_scope_mle"]


def test_logged_forecasts_digest(tmp_path, capsys):
    """Records with a "forecast" list are written only under --log-forecasts."""
    assert (run_digests("narrowed_scope_mle_forecasts", tmp_path)
            == PINS["narrowed_scope_mle_forecasts"])


def test_generate_digest(tmp_path, capsys):
    assert run_digests("generate_default_stream", tmp_path) == PINS["generate_default_stream"]


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


def main():
    """Print PINS as the current tree produces it, in the layout of this file."""
    lines = ["PINS = {"]
    for name in RUNS:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            digests = run_digests(name, out)
        lines.append(f'    "{name}": {{')
        lines += [f'        "{key}":\n            "{value}",' for key, value in digests.items()]
        lines.append("    },")
    print("\n".join(lines + ["}"]))


if __name__ == "__main__":
    main()
