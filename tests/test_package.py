"""The package's top-level names: the README's Library list plus the CLI."""

import tumornet

LIBRARY = [
    "Graph", "generate_er", "generate_er_skip", "connectivity_threshold", "is_connected",
    "RngStream", "step", "run",
    "ModelConfig", "ControlFactors", "init_model",
    "volume_ratio", "tci_classify",
    "SweepSpec", "run_sweep", "fig4_spec",
]


def test_all_is_the_library_list():
    assert sorted(tumornet.__all__) == sorted(LIBRARY + ["ConfigError", "SweepError", "main"])
    for name in tumornet.__all__:
        assert getattr(tumornet, name) is not None
