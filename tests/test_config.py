"""Configuration parsing, defaults, provenance and round-trip."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oxpix.config import RunSetup, dump_config, parse_config, parse_quantity
from oxpix.errors import ConfigError
from oxpix.pixel import Topology
from oxpix.solver import SolverOptions


def test_empty_config_gives_documented_defaults():
    setup = parse_config("")
    pd = setup.pixel.pd
    assert setup.pixel.topology is Topology.BARE_3T
    assert pd.vrst == 1.42
    assert pd.c_pd == pytest.approx(10e-15)
    assert pd.texp == pytest.approx(9.5e-6)
    assert pd.trst == pytest.approx(0.5e-6)
    assert setup.provenance["photodiode.vrst"] == "default"


def test_case_ii_elevated_reset_accepted():
    setup = parse_config("""
[pixel]
topology = case_ii
[photodiode]
vrst = 2.2V
""")
    assert setup.pixel.pd.vrst == 2.2
    assert setup.provenance["photodiode.vrst"] == "file"


def test_case_ii_default_reset_is_elevated():
    setup = parse_config("[pixel]\ntopology = case_ii\n")
    assert setup.pixel.pd.vrst == 2.2


def test_vrst_accepted_under_pixel_section():
    setup = parse_config("[pixel]\ntopology = case_ii\nvrst = 2.2V\n")
    assert setup.pixel.pd.vrst == 2.2
    with pytest.raises(ConfigError):
        parse_config("[pixel]\nvrst = 2.2V\n[photodiode]\nvrst = 1.42V\n")


def test_bad_unit_suffix_names_line_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[photodiode]\nc_pd = 10banana\n")
    msg = str(err.value)
    assert "line 2" in msg and "c_pd" in msg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[photodiode]\nwhatever = 1\n")
    assert "unknown key" in str(err.value)


def test_unknown_topology_rejected_naming_the_valid_ones():
    with pytest.raises(ConfigError) as err:
        parse_config("[pixel]\ntopology = case_iv\n")
    msg = str(err.value)
    assert "'case_iv'" in msg
    assert "['bare3t', 'case_i', 'case_ii', 'case_iii']" in msg


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\na = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[photodiode]\nc_pd = 10fF\nc_pd = 11fF\n")


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("[photodiode]\nc_pd = 0F\n")


def test_suffixes_are_case_sensitive():
    assert parse_quantity("10fF") == pytest.approx(10e-15)
    assert parse_quantity("1.25Mohm") == pytest.approx(1.25e6)
    assert parse_quantity("60Gohm") == pytest.approx(60e9)
    assert parse_quantity("510ns") == pytest.approx(510e-9)
    assert parse_quantity("2.2V") == 2.2
    assert parse_quantity("86.4mV") == pytest.approx(0.0864)
    assert parse_quantity("62500") == 62500.0
    with pytest.raises(ConfigError):
        parse_quantity("10FF")
    with pytest.raises(ConfigError):
        parse_quantity("1.25mohm")


def test_round_trip_is_value_identical():
    # 1.25 MOhm is the case (i) default; 2 MOhm is not, so its initial gap
    # only survives the round trip if the dump keeps the resistance.
    for init_resistance in ("1.25Mohm", "2Mohm"):
        text = f"""
[pixel]
topology = case_i
init_resistance = {init_resistance}
[photodiode]
texp = 9.5us
[sweep]
i_min = 100fA
i_max = 10nA
[solver]
rel_tol = 2e-6
[window]
max_swing = 0.85V
"""
        first = parse_config(text)
        second = parse_config(dump_config(first))
        assert second.pixel == first.pixel
        assert second.solver == first.solver
        assert second.window == first.window
        assert second.anchors == first.anchors
        assert (second.sweep_i_min, second.sweep_i_max,
                second.points_per_decade) \
            == (first.sweep_i_min, first.sweep_i_max, first.points_per_decade)


def test_dumped_default_config_is_unchanged():
    # An empty config gives no init_resistance, so the dump writes none.
    assert "init_resistance" not in dump_config(parse_config(""))
    assert "init_resistance" not in dump_config(
        parse_config("[pixel]\ntopology = case_i\n"))


def test_gate_waveform_keys():
    setup = parse_config("""
[pixel]
topology = case_i
vg_level = 0.52V
vg_prog_level = 3.3V
vg_prog_until = 0.5us
""")
    segs = setup.pixel.vg_waveform.segments
    assert len(segs) == 2
    assert segs[0][2] == 3.3 and segs[1][2] == pytest.approx(0.52)
    with pytest.raises(ConfigError):
        parse_config("[pixel]\ntopology = case_i\nvg_prog_level = 3.3V\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("c_pd = 10fF\n")


def test_nonzero_parasitic_capacitance_accepted():
    setup = parse_config("""
[pixel]
topology = case_i
[oxram]
c_pox = 2fF
""")
    assert setup.pixel.oxram.c_pox == pytest.approx(2e-15)


def test_solver_defaults_come_from_solver_options():
    text = dump_config(parse_config(""))
    assert "max_step = 1e-05" in text.splitlines()
    assert parse_config(text).solver == SolverOptions()


@pytest.mark.parametrize("word,value", [
    ("1", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("false", False), ("NO", False),
])
def test_boolean_words_accepted_in_any_case(word, value):
    setup = parse_config(f"[solver]\nreset_noise = {word}\n")
    assert setup.solver.reset_noise is value


def test_non_boolean_word_rejected_with_line():
    with pytest.raises(ConfigError, match="line 3: reset_noise"):
        parse_config("[solver]\nrel_tol = 1e-6\nreset_noise = maybe\n")


@pytest.mark.parametrize("section,key", [
    ("sweep", "points_per_decade"), ("solver", "noise_seed"),
])
def test_non_integral_integer_key_rejected_with_line(section, key):
    with pytest.raises(ConfigError, match=f"line 2: {key} = '1.5' is not an"):
        parse_config(f"[{section}]\n{key} = 1.5\n")


def test_integral_float_text_accepted_for_integer_key():
    assert parse_config("[sweep]\npoints_per_decade = 12.0\n") \
        .points_per_decade == 12


@pytest.mark.parametrize("key", ["seed", "restarts"])
def test_fit_search_keys_are_unknown(key):
    # The fit has no random starts, so [calibration] takes no seed or
    # restart count.
    with pytest.raises(ConfigError,
                       match=f"line 2: unknown key '{key}' in \\[calibration"):
        parse_config(f"[calibration]\n{key} = 1\n")


@pytest.mark.parametrize("key", ["abs_tol_v", "abs_tol_gap",
                                 "max_trace_points"])
def test_removed_solver_keys_are_unknown(key):
    # Both absolute tolerances follow from rel_tol, and the output grid's
    # spacing from the schedule.
    with pytest.raises(ConfigError,
                       match=f"line 2: unknown key '{key}' in \\[solver"):
        parse_config(f"[solver]\n{key} = 1e-9\n")


@pytest.mark.parametrize("section,key", [("solver", "noise_seed")])
def test_negative_seed_rejected_with_line(section, key):
    with pytest.raises(ConfigError, match=f"line 2: {key} .* must be >= 0"):
        parse_config(f"[{section}]\n{key} = -1\n")


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e300Gohm"])
def test_non_finite_quantity_rejected_with_line(text):
    with pytest.raises(ConfigError, match=f"line 2: c_pd = '{text}' is not"):
        parse_config(f"[photodiode]\nc_pd = {text}\n")


def test_first_faulty_line_is_reported():
    # Sections are parsed in file order, whatever their order in the schema.
    with pytest.raises(ConfigError, match="line 2: r_set"):
        parse_config("[calibration]\nr_set = 0\n"
                     "[photodiode]\nc_pd = 10banana\n")


# Every key a config accepts, as (section, key).
_KEYS = [tuple(name.split(".")) for name in sorted(parse_config("").provenance)]
_VALUES = st.one_of(
    st.builds("{}{}".format,
              st.one_of(st.floats(), st.integers(-3, 10 ** 20)),
              st.sampled_from(["", "fA", "nA", "fF", "ns", "us", "mV", "V",
                               "kohm", "Mohm", "Gohm", "nm", "Hz"])),
    st.sampled_from(["", "true", "no", "bare3t", "case_i", "case_ii",
                     "case_iii", "1e999", "nan", "0x10"]),
    st.text(max_size=8))
_LINES = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=8).map(
    lambda lines: "".join(f"[{section}]\n{key} = {value}\n"
                          for (section, key), value in lines).encode())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=120), _LINES))
def test_any_config_file_parses_or_raises_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        assert isinstance(parse_config(str(path), is_path=True), RunSetup)
    except ConfigError:
        pass
