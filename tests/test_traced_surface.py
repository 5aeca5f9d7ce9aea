"""The formloc surface that `perfbench/layers.py` reads in traced runs.

`time_control_laws` times the public control laws on the estimates of
`init_world(config).filters`.  It reports a law whose call fails as absent
instead of failing, so a change to that surface would only show as a zero
in the benchmark's per-layer numbers; this test makes it fail here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_times_the_control_laws():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    values, absent = layers.time_control_laws(ROOT / "src", [("nominal", {}), ("issue3", {})])
    assert values["controller.ideal_control.us"] > 0
    assert values["controller.estimated_control.us"] > 0
    # layers.py still passes mismatch_control an ownership argument the law
    # no longer takes; every other law must be timed
    assert [name.split(" ", 1)[0] for name in absent] == ["controller.mismatch_control"]
