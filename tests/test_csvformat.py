"""The vectorised CSV formatter against Python's '%.15g', value for value."""

from fractions import Fraction

import numpy as np
import pytest

from squeezebath import csvformat
from squeezebath.csvformat import format_rows


def _reference(block: np.ndarray) -> bytes:
    return "".join(
        ",".join("%.15g" % v for v in row) + "\n" for row in block.tolist()
    ).encode()


def _powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    below, above = powers.copy(), powers.copy()
    out = [powers]
    for _ in range(3):
        below = np.nextafter(below, 0.0)
        above = np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def _ties(rng, count: int) -> np.ndarray:
    # u / 2^k with u odd has k decimals ending in 5; with u 5^k of 16 digits
    # it is an exact tie at the 15th significant digit
    out = []
    for k in range(0, 23):
        low, high = -(-10**15 // 5**k), 10**16 // 5**k
        u = rng.integers(low, high, count, dtype=np.int64) | 1
        u = u[(u >= low) & (u < high) & (u < 2**53)]
        out.append(u.astype(np.float64) / 2.0**k)
    return np.concatenate(out)


def _switch_points() -> np.ndarray:
    # where %g changes notation (1e-5 / 1e-4 and 1e15 / 1e16) and values
    # that round up across them or across a power of ten
    seeds = np.array([
        1e-5, 1e-4, 1e15, 1e16, 9.999999999999995e14, 999999999999999.4,
        9.9999999999999995e-5, 9.999999999999995e-5, 9.9999999999999995e-6,
        99999.99999999995, 0.99999999999999995, 9.999999999999999e15,
        123456789012345.5, 123456789012344.5,
    ])
    out = [seeds]
    for direction in (0.0, np.inf):
        step = seeds
        for _ in range(8):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def _specials() -> np.ndarray:
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    subnormals = tiny * np.arange(1, 2000, 7, dtype=np.float64)
    return np.concatenate((
        [0.0, -0.0, tiny, big, np.inf, -np.inf, np.nan, -np.nan,
         np.finfo(np.float64).smallest_normal, 2.2250738585072e-308],
        subnormals, np.nextafter(subnormals, np.inf),
    ))


def _values(seed: int, scale: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 400 * scale, dtype=np.uint64).view(np.float64)
    normals = rng.standard_normal(400 * scale) * 10.0 ** rng.uniform(-300, 300, 400 * scale)
    # short decimals, the bulk of real tables, at every fixed-notation exponent
    places = 10.0 ** rng.integers(0, 16, 200 * scale)
    short = np.rint(rng.uniform(-1, 1, 200 * scale) * places) / places
    short *= 10.0 ** rng.integers(-6, 17, 200 * scale)
    fixed = [_powers_of_ten_and_neighbours(), _ties(rng, 4 * scale), _switch_points(), _specials()]
    values = np.concatenate([bits, normals, short] + fixed)
    # flip signs by bit, so that no signalling nan is operated on
    values.view(np.uint64)[rng.random(len(values)) < 0.5] ^= np.uint64(1 << 63)
    return values


def _rows(values: np.ndarray, cols: int) -> np.ndarray:
    return values[: len(values) // cols * cols].reshape(-1, cols)


@pytest.mark.parametrize("cols, scale", [(16, 1000), (5, 50), (1, 50)])
def test_format_rows_is_percent_15g_byte_for_byte(cols, scale):
    values = _rows(_values(cols, scale), cols)
    assert values.size >= 1000 * scale
    for start in range(0, len(values), 4096):
        block = values[start : start + 4096]
        assert bytes(format_rows(block)) == _reference(block)


def test_the_fallback_alone_writes_the_same_bytes(monkeypatch):
    # a margin of 0.5 or more sends every value to Python's %
    monkeypatch.setattr(csvformat, "_MARGIN_EPS", 1e4)
    assert csvformat._margin() >= 0.5
    values = _rows(_values(7, 20), 16)
    assert bytes(format_rows(values)) == _reference(values)


def test_most_values_of_a_table_take_the_vectorised_path(monkeypatch):
    calls = []
    real = csvformat._fallback_text
    monkeypatch.setattr(csvformat, "_fallback_text", lambda v: calls.append(len(v)) or real(v))
    rng = np.random.default_rng(3)
    block = rng.standard_normal((512, 16)) * 10.0 ** rng.integers(-20, 20, (512, 16))
    assert bytes(format_rows(block)) == _reference(block)
    assert sum(calls) <= 0.01 * block.size


def test_power_table_is_within_one_eps_of_ten_to_the_k():
    # the margin (4 eps) covers this table's error and the product's 0.5
    powers = csvformat._tables()[0]
    eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    worst = Fraction(0)
    for k, power in zip(range(14 - csvformat._E_MAX, 15 - csvformat._E_MIN), powers):
        exact = Fraction(10) ** k
        worst = max(worst, abs(Fraction(*power.as_integer_ratio()) - exact) / exact)
    assert worst <= eps, float(worst / eps)


def _layout_cases() -> np.ndarray:
    # every fixed-notation exponent with 1 to 15 significant digits, zeros
    # inside or not; scientific notation with 1 and 15 digits at 2- and
    # 3-digit exponents of either sign; the longest texts, 22 bytes
    texts = []
    for e in range(-4, 15):
        for k in range(1, 16):
            for digits in ("9" + "0" * (k - 2) + "1", "123456789012345"[: k - 1] + "7"):
                digits = digits[-k:]
                texts.append("%s.%se%d" % (digits[0], digits[1:], e))
    for e in (-5, -10, -99, -100, -307, 15, 16, 99, 100, 307):
        texts += ["7e%d" % e, "1.23456789012345e%d" % e, "1.00000000000009e%d" % e]
    values = np.array([float(t) for t in texts] + [0.0])
    return np.concatenate((values, -values))


@pytest.mark.parametrize("cols", [1, 5, 16])
def test_every_layout_case_is_percent_15g(monkeypatch, cols):
    cases = _layout_cases()
    assert max(len("%.15g" % v) for v in cases) == 22
    # every case is laid out by the kernel, none by the fallback
    monkeypatch.setattr(csvformat, "_fallback_text", lambda v: pytest.fail("fallback %r" % v))
    block = np.resize(cases, -(-len(cases) // cols) * cols).reshape(-1, cols)
    assert bytes(format_rows(block)) == _reference(block)


def test_the_digit_step_is_percent_08d():
    rng = np.random.default_rng(11)
    v = np.concatenate((np.arange(10**6), np.arange(10**8 - 10**6, 10**8),
                        rng.integers(0, 10**8, 10**6))).astype(np.uint64)
    text = csvformat._digit_bytes(v) + np.uint64(0x3030_3030_3030_3030)
    assert text.tobytes() == "".join(["%08d" % k for k in v.tolist()]).encode()
