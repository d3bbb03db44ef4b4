"""Property tests: scenario loading either accepts a runnable scenario or
rejects it with ConfigError, whatever the float values."""

import math

from hypothesis import example, given, settings, strategies as st

from cachesec.cli import DBW_LIMIT, ConfigError, parse_scenario_text

FLOAT_KEYS = ("r_s1_o", "r_s", "r_b_s1", "alpha", "Ps_dBw", "Pm_dBw",
              "lambda_e", "epsilon", "beta_t", "beta_e", "tau")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS),
                       st.floats(allow_nan=True, allow_infinity=True),
                       max_size=4))
@example({"r_s": 8.98846567431158e+307})  # k * r_s overflows in the layout
def test_loaded_scenarios_are_finite_and_in_range(values):
    text = "".join(f"{k} = {v!r}\n" for k, v in values.items())
    try:
        scn = parse_scenario_text(text)
    except ConfigError:
        return
    for key in FLOAT_KEYS:
        assert math.isfinite(getattr(scn, key))
    assert scn.alpha > 2.0 and 0.0 < scn.epsilon < 1.0
    assert scn.lambda_e >= 0.0 and scn.tau > 0.0
    assert abs(scn.Ps_dBw) <= DBW_LIMIT and abs(scn.Pm_dBw) <= DBW_LIMIT
    # what every command builds from the scenario must then construct
    scn.layout()
    scn.params()
