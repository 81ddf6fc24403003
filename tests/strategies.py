"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from kelly_memory import model


@st.composite
def valid_games(draw, max_depth=6):
    """(params, history): depth 1 to ``max_depth``, anywhere in the hyperdiamond."""
    m = draw(st.integers(1, max_depth))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = draw(st.lists(coord, min_size=m + 1, max_size=m + 1))
    radius = draw(st.floats(0.0, 0.5 - 1e-6))
    size = sum(abs(v) for v in raw)
    scale = radius / size if size > 0 else 0.0
    omega = [0.5 + scale * raw[0]] + [scale * v for v in raw[1:]]
    history = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    return model.validate_params(omega), model.History(tuple(history))


PADS = st.sampled_from(("", " ", "\t"))
LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r"))
SIGNED = st.sampled_from(("1", "-1", "+1", "-1.0"))
BINARY = st.sampled_from(("0", "1", "0.0"))
OUTCOME_NOISE = st.sampled_from(("", " ", "2", "nan", "inf", "x", "1_0", "0x1", "1e400"))
PRICES = st.sampled_from(("100", "101", "99.5", "100.0", "1e2", "1e-320"))
# float() reads 1_000 and numpy's reader does not; both read Infinity and
# reject 0x1p3.
PRICE_NOISE = st.sampled_from(
    ("", " ", "0", "-3", "nan", "inf", "-inf", "x", "1e400", "1_000", "Infinity", "0x1p3")
)
# A quoted cell may span lines; after a space a quote is a plain character,
# so ' "a, b"' is two cells.
OTHER_CELLS = st.sampled_from(
    ("7", "x", "", '"a, b"', '"say ""hi"""', '"two\nlines"', '"two\r\nlines"', ' "a, b"')
)


@st.composite
def cells(draw, good, noise=None):
    """A value token from ``good`` (or, if given, ``noise``), padded with spaces or tabs."""
    token = draw(good if noise is None else st.one_of(good, noise))
    return draw(PADS) + token + draw(PADS)


def _join(draw, lines):
    end = draw(LINE_ENDS)
    return end.join(lines) + draw(st.sampled_from(("", end)))


@st.composite
def outcome_lines(draw):
    """Text of a one-value-per-line outcome file, coded +1/-1 or 0/1.

    Half the files also hold blank lines and tokens that are not
    outcomes or not numbers.
    """
    good = draw(st.sampled_from((SIGNED, BINARY)))
    noise = OUTCOME_NOISE if draw(st.booleans()) else None
    return _join(draw, [draw(cells(good, noise)) for _ in range(draw(st.integers(0, 30)))])


# What moves_files may do to a file as ingest writes it.
MOVE_FILE_CHANGES = (
    "none", "byte", "crlf", "blank", "binary", "no final newline", "bom", "non-ascii", "spaces"
)
# Bytes that are not ASCII: UTF-8 text (one a line separator, one a space
# to str.strip) and bytes that do not decode.
NON_ASCII = st.sampled_from(
    ("\u00e9".encode(), "\u2028".encode(), "\u00a0".encode(), b"\xff", b"\x80\x80")
)


@st.composite
def moves_files(draw):
    """(bytes, change): 1 to 50 lines of "+1" and "-1" as ingest writes them,
    then one change from MOVE_FILE_CHANGES ("none" leaves the file as is)."""
    moves = draw(st.lists(st.sampled_from((b"+1", b"-1")), min_size=1, max_size=50))
    change = draw(st.sampled_from(MOVE_FILE_CHANGES))
    end = b"\r\n" if change == "crlf" else b"\n"
    if change == "binary":
        moves = [b"1" if line == b"+1" else b"0" for line in moves]
    if change == "spaces":
        i = draw(st.integers(0, len(moves) - 1))
        moves[i] = draw(st.sampled_from((b" ", b"\t", b""))) + moves[i] + draw(
            st.sampled_from((b" ", b"  ", b"\t"))
        )
    data = bytearray(end.join(moves) + end)
    if change == "byte":
        i = draw(st.integers(0, len(data) - 1))
        data[i] = draw(st.integers(0, 255).filter(lambda b: b != data[i]))
    elif change == "blank":
        i = 3 * draw(st.integers(0, len(moves)))
        data[i:i] = draw(st.sampled_from((b"\n", b" \n", b"\n\n")))
    elif change == "no final newline":
        del data[-1]
    elif change == "bom":
        data[:0] = b"\xef\xbb\xbf"
    elif change == "non-ascii":
        i = draw(st.integers(0, len(data)))
        data[i:i] = draw(NON_ASCII)
    return bytes(data), change


@st.composite
def csv_files(draw, names, good, noise, missing):
    """Text of a CSV file whose header holds one of ``names`` among other columns.

    Rows are full, blank or carry an extra field, and other cells (and
    header names) hold quoted commas, quotes and line breaks, or a quote
    after a space; the value cell is sometimes quoted. Half the
    files also hold rows cut short before the value column and values
    drawn from ``noise``, and now and then name the column ``missing``.
    """
    noisy = draw(st.booleans())
    noise = noise if noisy else None
    extra_names = ("date", "volume", '"note, quoted"', '"two\nline note"')
    extras = draw(st.lists(st.sampled_from(extra_names), max_size=2))
    at = draw(st.integers(0, len(extras)))
    name = missing if noisy and draw(st.integers(0, 4)) == 0 else draw(names)
    header = extras[:at] + [name] + extras[at:]
    lines = [",".join(header)]
    kinds = ("full", "full", "blank", "long") + ("short",) * noisy
    for _ in range(draw(st.integers(0, 30))):
        value = draw(cells(good, noise))
        if draw(st.booleans()) and '"' not in value:
            value = f'"{value}"'
        row = [value if i == at else draw(OTHER_CELLS) for i in range(len(header))]
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            row = []
        elif kind == "short":
            row = row[: draw(st.integers(0, at))]
        elif kind == "long":
            row.append("extra")
        lines.append(",".join(row))
    return _join(draw, lines)


def price_files():
    """Price CSV text; the header names the price column in any case."""
    names = st.sampled_from(("price", " Price", "PRICE"))
    return csv_files(names, PRICES, PRICE_NOISE, missing="close")


@st.composite
def outcome_files(draw):
    """(text, column): a plain outcome file (column None) or a CSV read by --column move."""
    if draw(st.booleans()):
        return draw(outcome_lines()), None
    good = draw(st.sampled_from((SIGNED, BINARY)))
    return draw(csv_files(st.just("move"), good, OUTCOME_NOISE, missing="moves")), "move"
