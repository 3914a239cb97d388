"""Fuzzed inputs at the CLI's file boundary and the text parsers: every
input gives a result or a documented exit code (a ``ChainsenseError`` from
a parser), never a Python traceback."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsense import cli, pauli
from chainsense.errors import ChainsenseError
from chainsense.symca.poly import PolyRing, parse

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# pieces that reach every branch of the config reader, mixed with noise
CONFIG_LINES = st.one_of(
    st.sampled_from([
        "[scheme]", "[truth]", "[sampling]", "[output]", "[DEFAULT]",
        "[other]", "[scheme", "[]", "n_chain = 2", "sensor_qubits = 1",
        "measurement = ZaYb", "initial = xa", "count = 40", "dt = 0.1",
        "noise_sigma = 0.0", "seed = 3", "record = r.csv", "ha = 1.0",
        "  continued", "= 4", "key", "key:", "#comment", ";comment", "",
    ]),
    st.builds(
        "{} = {}".format,
        st.sampled_from(["n_chain", "count", "dt", "seed", "ha", "h1",
                         "report", "unknown"]),
        st.text(max_size=12),
    ),
    st.text(max_size=24),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(lines=st.lists(CONFIG_LINES, max_size=12))
def test_config_reader_returns_or_refuses(workdir, lines):
    path = workdir / "run.cfg"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    try:
        cli.read_config_file(str(path))
    except ChainsenseError:
        pass


CUBE_FLAGS = ["--measurement", "YaZb", "--n-chain", "1",
              "--set", "ha=1.0", "--set", "hb=0.8"]
LADDER_FLAGS = ["--measurement", "ZaYb", "--n-chain", "2",
                "--set", "ha=1.0", "--set", "hb=0.8", "--set", "h1=0.6"]
SCHEMES = {"cube": CUBE_FLAGS, "ladder": LADDER_FLAGS}
# a NUL byte, a field over csv's 131072-character limit, a quoted field and
# a sixth column besides the out-of-range and unparsable values
VALUES = ["nan", "inf", "-inf", "-1", "1e100", "1e308", "", "x", "0",
          "\x00", "1" * 200_000, '"0.5"', "0,junk"]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def records(workdir):
    rows = {}
    for name, flags in SCHEMES.items():
        path = workdir / f"{name}.csv"
        assert quiet_main(["simulate", *flags, "--count", "40",
                           "--record", str(path)]) == 0
        lines = path.read_text().splitlines()
        rows[name] = (lines[0], [line.split(",") for line in lines[1:]])
    return rows


@FUZZ
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    edits=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 4),
                  st.sampled_from(VALUES)),
        min_size=1, max_size=6,
    ),
    keep=st.integers(0, 40),
)
def test_mutated_record_exits_with_a_documented_code(workdir, records,
                                                     scheme, edits, keep):
    header, rows = records[scheme]
    body = [row[:] for row in rows]
    for row, column, value in edits:
        body[row][column] = value
    path = workdir / "mutated.csv"
    path.write_text("\n".join([header, *map(",".join, body[:keep])]) + "\n")
    code = quiet_main(["estimate", *SCHEMES[scheme], "--record", str(path)])
    assert code in (0, 2, 3, 4)


# Pauli tokens: a letter and a site label, glued from valid and invalid parts
PAULI_TOKENS = st.one_of(
    st.sampled_from(["-", "i", "-i", "I"]),
    st.builds("{}{}".format, st.sampled_from(list("XYZIQx")),
              st.sampled_from(["a", "b", "0", "1", "2", "9", "10", "b1", "q",
                               "-1", "+1", "01", "", "1" * 40])),
    st.text(max_size=6),
)


@FUZZ
@given(tokens=st.lists(PAULI_TOKENS, max_size=5),
       n_qubits=st.integers(0, 6), sensor_qubits=st.integers(0, 3))
def test_pauli_parser_returns_or_refuses(tokens, n_qubits, sensor_qubits):
    try:
        pauli.parse_string(" ".join(tokens), n_qubits, sensor_qubits)
    except ChainsenseError:
        pass


POLY_PIECES = st.one_of(
    st.sampled_from(["x", "y", "z", "^", "*", "+", "-", "/", " ", "0", "1",
                     "2", "3/4", "x^2", "1/0", "0/0", "9" * 5000]),
    st.text(max_size=4),
)
POLY_RING = PolyRing(("x", "y"), "lex")


@FUZZ
@given(pieces=st.lists(POLY_PIECES, max_size=8))
def test_polynomial_parser_returns_or_refuses(pieces):
    try:
        parse("".join(pieces), POLY_RING)
    except ChainsenseError:
        pass
