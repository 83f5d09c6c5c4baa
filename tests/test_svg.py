import numpy as np
import pytest

from ve2d import svg


def test_log_axes_drop_nan_and_non_positive_points(tmp_path):
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, -1.0, 6.0])
    ys = np.array([1.0, 0.5, np.nan, 0.2, -0.1, 3.0, 0.05])
    keep = np.array([False, True, False, True, False, False, True])
    kwargs = dict(label="good_sup", title="decay", xlabel="t", ylabel="sup",
                  logx=True, logy=True)
    svg.line_plot(tmp_path / "raw.svg", xs, ys, **kwargs)
    svg.line_plot(tmp_path / "kept.svg", xs[keep], ys[keep], **kwargs)
    raw = (tmp_path / "raw.svg").read_text(encoding="utf-8")
    assert raw == (tmp_path / "kept.svg").read_text(encoding="utf-8")
    polyline = next(line for line in raw.splitlines()
                    if line.startswith("<polyline"))
    assert polyline.split('"')[1].count(",") == 3


def test_linear_axes_keep_non_positive_points(tmp_path):
    xs = np.arange(4.0)
    svg.line_plot(tmp_path / "lin.svg", xs, np.array([-1.0, 0.0, 1.0, 2.0]))
    text = (tmp_path / "lin.svg").read_text(encoding="utf-8")
    polyline = next(line for line in text.splitlines()
                    if line.startswith("<polyline"))
    assert polyline.split('"')[1].count(",") == 4


@pytest.mark.parametrize("ys, logy", [
    ([np.nan, np.inf, np.nan], False),
    ([0.0, -1.0, np.nan], True),
], ids=["non_finite", "non_positive_on_log"])
def test_nothing_left_to_plot_raises(tmp_path, ys, logy):
    path = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="nothing plottable"):
        svg.line_plot(path, [1.0, 2.0, 3.0], ys, logy=logy)
    assert not path.exists()
