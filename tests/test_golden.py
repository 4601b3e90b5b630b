"""Golden-file regression: the sha256 of every file the default figure
commands emit is pinned, so a refactor of the emission path must reproduce
the frozen CSV/SVG surface byte for byte, not merely be deterministic.

The PHI sweep pin holds 330 death windows (6 of them touching the grid
edge), so it also freezes every refined window endpoint to 15 digits.  The
two ``path = ORACLE`` pins freeze the propagated route: the oracle C and
signed_C columns of PSI, and oracle C with 96 death windows for PHI.  The
PSI sweep pin is the benchmark's SVG workload at fixed inputs.

``line_chart`` is also compared string for string with the scalar renderer
it replaced (two closure calls and one f-string per point), kept below as
the reference, and the byte kernel that writes its coordinates is compared
with "%.2f" value by value."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tcm_entangle import analytic, cli, numtext, svgplot

_FIG2_CURVES = {
    "fig2_alpha0p261799387799149_eps0.csv": "f182d56be2d99c991cccfadfcec159c8a950f5a6d7344ab1f0b9b89cc15adb22",
    "fig2_alpha0p261799387799149_eps2.csv": "eda587877b00db51d5aa22c54050ba7ac6d95bab97abcf8d013a26f845897353",
    "fig2_alpha0p392699081698724_eps0.csv": "c5972ffe68bbc653e4689dc2965d858e7851f1ce4093fda05ce45805bd3998d3",
    "fig2_alpha0p392699081698724_eps2.csv": "4b791ad12b8541deba994285d3b3b1c0d8445b02f8f70d1c44533ac98b8aa491",
    "fig2_alpha0p785398163397448_eps0.csv": "fb0d5e31e0857edcac840f4a62c68ff2d147505b7b6604129832609f360c0553",
    "fig2_alpha0p785398163397448_eps2.csv": "415c04864441353983349bff8d6adfb8d5762c62a395aef86206437a48a4d6a5",
    "intervals.csv": "1e51be7fa89c09a619066648b9e102101c01a19103f88648ac596710e618e546",
}

GOLDEN = {
    "fig1": (["fig1", "--svg"], {
        "fig1_alpha0p261799387799149_eps0.csv": "b0ef673eeecf19202bb4a67d4bf67d6cbd69530e44397fd9a92e6d1da942e087",
        "fig1_alpha0p261799387799149_eps2.csv": "e1cf5a7e97ba4bd303327ad4329b49582239f5025b41f43d82e0d9bed9cdcd4a",
        "fig1_alpha0p392699081698724_eps0.csv": "06070523ae919e25cc9b225dda2166acc0563a04b73d88d2cd68187aafcd187e",
        "fig1_alpha0p392699081698724_eps2.csv": "9c8753f72815868fe356e3a8c95662e5ea971b132639b1aab713a49d68d469d3",
        "fig1_alpha0p785398163397448_eps0.csv": "e6a4442acd362fe0f93c723f4195b7334dc370f1b351fe8497738ff62caeb12e",
        "fig1_alpha0p785398163397448_eps2.csv": "7fba93ff3f7dac6c9609ceb329e466e1bb0e4f55f2d23698750814f3a6e2d896",
        "fig1_eps0.svg": "3a29445aa9ad410f23c9e42c0c8f98a736fd67db73b3e813d2f383c70e2e0711",
        "fig1_eps2.svg": "e8440b544b603e3128780a36d2f688664d1f5f77b6ee980b01b4d8302877c317",
        "run_metadata.txt": "cff12b14d533ce38338c70cda85730ee7179b8008d8138872d9d16c687104f1a",
    }),
    "fig2": (["fig2", "--svg"], {
        **_FIG2_CURVES,
        "fig2_eps0.svg": "312b7e4a5ed3e8692afb420b6c2246951eab4bce4ec32d5530ea6ef2309ec99b",
        "fig2_eps2.svg": "de140ebf612bd88d1fa793313859f7d2c32d9c33ed2bb6b45b2a21fda9beed32",
        "run_metadata.txt": "7d0f58bd0cc6fffdcc74700499b90b581211664eff4dd2c9b73be5922c73d714",
    }),
    "fig2_both": (["fig2", "--config", "{config}"], {
        **_FIG2_CURVES,
        "run_metadata.txt": "c21344cc778b01c2c4b323b87c596c0bfe76764bb6dc755e8ef119e92e936dd1",
    }),
    "sweep_phi_windows": (["sweep", "--family", "PHI",
                           "--alpha", "pi/24,pi/12,pi/8,pi/6,5*pi/24",
                           "--epsilon", "0,0.5,1.5,2.5", "--tmax", "40", "--points", "4000"], {
        "fig2_alpha0p130899693899575_eps0.csv": "28b680bef6a63cb70ba1ff023222d44e9e0a17c0d7cc858565358d1a0a709aba",
        "fig2_alpha0p130899693899575_eps0p5.csv": "bd5876c95f9c1c1e15209d4932d9dc8ece857327853f3439787332c5de112603",
        "fig2_alpha0p130899693899575_eps1p5.csv": "19957f0be0d618a05a54dea45ed1fc44a092ab60c110a47f5c77b654bcae3796",
        "fig2_alpha0p130899693899575_eps2p5.csv": "4e63521fa0b05cc04081fc2fcf140c8772d07f33977ea7cd6b053edadb1f53f7",
        "fig2_alpha0p261799387799149_eps0.csv": "02c913985bb03a052c84b7b22ed1be65d9b95fc28cabc237e104ff2456111b4f",
        "fig2_alpha0p261799387799149_eps0p5.csv": "b44cefee14a1e3589403702a7db7064ad71f5de9c8489414105f98ef245f7855",
        "fig2_alpha0p261799387799149_eps1p5.csv": "4bc82a73a1797a18e34eabd45087374e8ec7a8177fbb994da66a74eb69430bc2",
        "fig2_alpha0p261799387799149_eps2p5.csv": "964b8c02be3d507929c7a5b16f179aa875bf0f7d713f1390779b1678e95968fa",
        "fig2_alpha0p392699081698724_eps0.csv": "2e5f04e1354dffa7144637747966beb6649704073d752d97ba1dbe8c10c5b79b",
        "fig2_alpha0p392699081698724_eps0p5.csv": "a207e37021221d5092b1ebc4268fdc5efcaa0b0997ff194cc516be00cc06882f",
        "fig2_alpha0p392699081698724_eps1p5.csv": "0032c447a5066fdba91334932b40cc2a6a5eb5858c322377f6fb90c2ce1d2f87",
        "fig2_alpha0p392699081698724_eps2p5.csv": "e4812c995bf549694ed53b8bb3234168b8473dea6e324f22b3bf2fc26b261195",
        "fig2_alpha0p523598775598299_eps0.csv": "056032c505ff5ff29f10d37cd774d66f44deb3fb4ea606b4bd70e2ebfd60a77c",
        "fig2_alpha0p523598775598299_eps0p5.csv": "dad793de49f7b958689ed9705e9d732aa136de05c0cc6404d234d3c72983b99e",
        "fig2_alpha0p523598775598299_eps1p5.csv": "643a15978e60c1da29daa6ca2422dc6406692c98d751415191f7258b880d3986",
        "fig2_alpha0p523598775598299_eps2p5.csv": "e3ca5792899ed0b2de7bc73cd6a916ee680055db94761d17c54c8adeaad54882",
        "fig2_alpha0p654498469497874_eps0.csv": "4619a7f2407672b532df18d2ef9392b96a39ec5351fa7066896da8119e1439af",
        "fig2_alpha0p654498469497874_eps0p5.csv": "1642b762f63232e67376cb5ff560c1bc970dc65651d2f6544fa1bcc77647b6c6",
        "fig2_alpha0p654498469497874_eps1p5.csv": "63737c75b7c2d938111dba3102fe64a252c88155f668addb3895f94ff3544d4d",
        "fig2_alpha0p654498469497874_eps2p5.csv": "b7572c97f710c21d126ab55d82907e61d09707a8084e0ab8c02e480fffdaef0e",
        "intervals.csv": "f069d4cefd40a6680e8fdcb4731885445d6acb86962096c76b43409002e1ed1d",
        "run_metadata.txt": "c0629f5f1f6c049b1cc45b1799e29c8a9c32f40c9b550f87aa75bee7bce3d9b9",
    }),
    "sweep_psi_svg": (["sweep", "--family", "PSI", "--alpha", "pi/12,pi/6,pi/3,5*pi/12",
                       "--epsilon", "0.5,1.5,2.5", "--tmax", "40", "--points", "4000", "--svg"], {
        "fig1_alpha0p261799387799149_eps0p5.csv": "eed509f84d6b022bdef5625567b9f598df5647d9ced56f4b3c95616b4378e549",
        "fig1_alpha0p261799387799149_eps1p5.csv": "723479a7546b15eec73809fa4589b85986359889198dcc6b157211c13d9545f4",
        "fig1_alpha0p261799387799149_eps2p5.csv": "669109e9c286f0c1fb81f07fe7798d0fddefbfd3d410618643a175606953520f",
        "fig1_alpha0p523598775598299_eps0p5.csv": "f80dcb642d1df2936a86379fe15f692bb20b434b8d4cc63ee93a6c645e9f024e",
        "fig1_alpha0p523598775598299_eps1p5.csv": "d33e7112994b856be9995cdc29982b77e4b6bcdedde72ef187e0a1388216a7fc",
        "fig1_alpha0p523598775598299_eps2p5.csv": "3ee9ab2e79703ba7601414bb09eb01df0565e9c7570f5aa6a1ca2fcafb3240d5",
        "fig1_alpha1p0471975511966_eps0p5.csv": "2a63536e95fd68d7b940f5220bda21bda44e610928512181f468e3b1454d98ff",
        "fig1_alpha1p0471975511966_eps1p5.csv": "3dfe3958f4070eff15312438c439ffd109bafe23bba8929ce160d3c0bf507a63",
        "fig1_alpha1p0471975511966_eps2p5.csv": "7443f30007852fc5f16fed7c91f536fc24071edf661b8726d73e983fff719456",
        "fig1_alpha1p30899693899575_eps0p5.csv": "ac5371072ef539c762e917f0edf6e6deebe016192d1ab8cdfa1655cc2c72804e",
        "fig1_alpha1p30899693899575_eps1p5.csv": "f6d6a6d25e2524c3a9daea0330f4425685d0f8aab25346f188e7c88ed8475b47",
        "fig1_alpha1p30899693899575_eps2p5.csv": "fbc0859c1c365903e681481f47b2bca718591d7726d8ee81566e98e88dff495a",
        "fig1_eps0p5.svg": "8431239efdfd69d30ad45a7e36e711402f0174ba77ae0db2f169a82181a5347e",
        "fig1_eps1p5.svg": "7b72fe1314949f8374e962b6987cbad14ed2d810f80f6a8d154223bf1bd534d1",
        "fig1_eps2p5.svg": "564017910db6472b4cfc2eb3a43619cbb8dc76c2efbc502a874ca9abc38930c3",
        "run_metadata.txt": "51f9d1e414e63231681e158e722ce30c95e0cd5960483440ef2d5ce3580c59ab",
    }),
    "fig1_oracle": (["fig1", "--config", "{config}"], {
        "fig1_alpha0p261799387799149_eps0.csv": "deebc4fa82ae7f59b48a4f1e5f3e05222e05a198d287c9e339d62210b7e82076",
        "fig1_alpha0p261799387799149_eps2.csv": "ea125ed3f836eb359ec4e84a5676430fa57c2f7ca4af9eb0d1d07eed08a69842",
        "fig1_alpha0p392699081698724_eps0.csv": "a5d30d78a2bd20e1822972eea1f646278088a6becdc20de6ed78c50acb8e5804",
        "fig1_alpha0p392699081698724_eps2.csv": "8fcd3c1cb986383d3ad52cc0a81f5cf5f7937f204912faf219956bd5f71e8b91",
        "fig1_alpha0p785398163397448_eps0.csv": "9f9d6e4a645742d16432159e9067b80db3b9b387ea286510e0b305fc209eebc6",
        "fig1_alpha0p785398163397448_eps2.csv": "9737eca05c0a8d1932e25f4175fe38b39f25323c92866ef2aa91b636c897d161",
        "run_metadata.txt": "04932e8279f4eb056bfebcaed7e66ccf35a3bab74e071948e7f6c0d81be5dd88",
    }),
    "fig2_oracle": (["fig2", "--config", "{config}"], {
        "fig2_alpha0p130899693899575_eps0.csv": "e3c972b0482c5da1232f0ee19a5280e5e8b2e35d4f5ce812eb991d983c9b9a4b",
        "fig2_alpha0p130899693899575_eps1p5.csv": "2e30e682fd93b4ef2db9d22405c74c1d02a6457e7123ca7a82cb638894e2eee2",
        "fig2_alpha0p392699081698724_eps0.csv": "c14d56912a82673ae5226c9b666addd1527a6549fb55befe1f2d2c6fe6b87705",
        "fig2_alpha0p392699081698724_eps1p5.csv": "9d4611950a3930550b88d8062f15f6f716b8b09715959c16706633e2a16d24c6",
        "fig2_alpha0p523598775598299_eps0.csv": "6f0e3dd518f7f465b34897c61118a9775b019a54be01620e5252b75e0da63225",
        "fig2_alpha0p523598775598299_eps1p5.csv": "45d6bbba531681c835267067723dfed8e9d393c38a648ae740af49147ec7c9c1",
        "intervals.csv": "e576dadc6b6b11cd85f114d1e5a961c15a7b8ebffda30c45ce15a371468379bc",
        "run_metadata.txt": "3c6c2b7392d00c6a762ad619d7c5ed33b9e433dc50db4dfe7f2027fae12025c5",
    }),
}

#: config text of each ``--config`` run; fig2_both is the default figure
#: grid, cross-checked on both trace paths
CONFIGS = {
    "fig2_both": "family = PHI\nalpha = pi/12, pi/8, pi/4\nepsilon = 0, 2\npath = BOTH\n",
    "fig1_oracle": "family = PSI\nalpha = pi/12, pi/8, pi/4\nepsilon = 0, 2\npath = ORACLE\n",
    "fig2_oracle": ("family = PHI\nalpha = pi/24, pi/8, pi/6\nepsilon = 0, 1.5\n"
                    "T_max = 40\nn_points = 3000\npath = ORACLE\n"),
}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_emitted_bytes_match_pinned_digests(run, tmp_path):
    argv, expected = GOLDEN[run]
    config = tmp_path / "config.txt"
    config.write_text(CONFIGS.get(run, ""), encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == expected


def test_both_pin_without_whole_basis_closed_form_states(tmp_path, monkeypatch):
    # path BOTH certifies on the used columns only: the closed-form block is
    # built from the amplitudes, never as (points x basis.size) states
    def refuse(*args, **kwargs):
        raise AssertionError("closed_form_states called on the BOTH path")

    monkeypatch.setattr(analytic, "closed_form_states", refuse)
    test_emitted_bytes_match_pinned_digests("fig2_both", tmp_path)


def _scalar_line_chart(curves, title="", xlabel="", ylabel=""):
    """Reference renderer: the per-point scalar ``line_chart``."""
    W, H = svgplot.WIDTH, svgplot.HEIGHT
    ML, MR, MT, MB = svgplot.MARGIN_L, svgplot.MARGIN_R, svgplot.MARGIN_T, svgplot.MARGIN_B
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(0.0, min(ys_all)), max(1.0, max(ys_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = W - ML - MR
    plot_h = H - MT - MB

    def px(x):
        return ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    parts.append(f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>')
    parts.append(f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>')
    for t in svgplot._nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{H - MB}" x2="{x:.2f}" '
                     f'y2="{H - MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{H - MB + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
    for t in svgplot._nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ML - 5}" y1="{y:.2f}" x2="{ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ML - 9}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
    parts.append(f'<text x="{ML + plot_w / 2:.1f}" y="{H - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MT + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 18 {MT + plot_h / 2:.1f})">{ylabel}</text>')

    for k, (label, xs, ys) in enumerate(curves):
        color = svgplot._PALETTE[k % len(svgplot._PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = MT + 16 + 18 * k
        lx = W - MR - 180
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@st.composite
def _curve(draw):
    """One (label, xs, ys) curve on its own grid: 2-5000 points, a grid that
    may start away from 0 (or be a single repeated x), y values that may dip
    below 0 and rise above 1, and sometimes an irregular grid."""
    n = draw(st.integers(2, 5000))
    start = draw(st.floats(-50.0, 50.0))
    span = draw(st.sampled_from([0.0, 1e-3, 1.0, 40.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = start + span * (np.sort(rng.random(n)) if draw(st.booleans())
                         else np.linspace(0.0, 1.0, n))
    y_lo = draw(st.floats(-2.0, 0.5))
    y_hi = draw(st.floats(0.5, 3.0))
    ys = y_lo + (y_hi - y_lo) * rng.random(n)
    return (f"alpha = {draw(st.floats(0.0, 1.6)):.4f}", xs, ys)


class TestLineChartMatchesScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(curves=st.lists(_curve(), min_size=1, max_size=7))
    def test_identical_svg(self, curves):
        kwargs = dict(title="Atom-atom concurrence, eps = 1.5", xlabel="T = g t", ylabel="C")
        assert svgplot.line_chart(curves, **kwargs) == _scalar_line_chart(curves, **kwargs)

    def test_figure_curves(self):
        grid = np.linspace(0.0, 40.0, 4000)
        curves = [(f"alpha = {a:.4f}", grid, np.abs(np.sin(2 * a) * np.cos(grid)))
                  for a in (0.2, 0.5, 1.1)]
        assert svgplot.line_chart(curves) == _scalar_line_chart(curves)


def _coordinate_text(values, end):
    """Each value as `svgplot` writes a polyline coordinate, ``end`` after each."""
    values = np.asarray(values, dtype=float)
    pieces = numtext.table_text(values.size,
                                lambda rows: [svgplot._coordinate_column(values[rows], end)])
    return b"".join(pieces).decode("ascii").split(end)[:-1]


def _neighbours(values):
    """``values`` or an adjacent double."""
    return st.builds(lambda v, to: float(np.nextafter(v, to * np.inf)) if to else v,
                     values, st.sampled_from([-1, 0, 1]))


# the values where "%.2f" is hardest to match: exact binary ties of the third
# decimal (k/8, k/64), decimals ending in 5 there with their neighbouring
# doubles, 999.995 and its neighbours, which carry into a fourth whole
# digit, and the values the kernel hands to "%.2f": signed zeros,
# negatives, NaN, infinities and values of 1000 and up
_COORDINATE = st.one_of(
    st.integers(0, 8 * 1000 - 1).map(lambda k: k / 8),
    st.integers(0, 64 * 1000 - 1).map(lambda k: k / 64),
    _neighbours(st.integers(0, 99_999).map(lambda k: float(f"{k // 100}.{k % 100:02d}5"))),
    _neighbours(st.sampled_from([999.995, 999.985, 99.995, 9.995, 0.995, 0.005])),
    st.floats(0.0, 1000.0, exclude_max=True),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1000.0, 1e300, 5e-324]),
    st.floats(-1000.0, 0.0) | st.floats(1000.0, 1e20),
)


class TestCoordinateText:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_COORDINATE, min_size=1, max_size=50),
           end=st.sampled_from([",", " "]))
    @example(values=[12.125, 0.125, 0.375, 999.995, float(np.nextafter(999.995, 0.0)),
                     999.994999, -0.0, 0.0, -0.001, np.nan, np.inf, -np.inf], end=" ")
    def test_matches_percent_2f(self, values, end):
        assert _coordinate_text(values, end) == ["%.2f" % v for v in values]

    def test_long_curve_crosses_blocks(self):
        # a polyline is written numtext.BLOCK_ROWS points at a time
        grid = np.linspace(0.0, 40.0, 2 * numtext.BLOCK_ROWS + 3)
        curves = [("alpha = 0.3000", grid, np.abs(np.sin(grid)))]
        assert svgplot.line_chart(curves) == _scalar_line_chart(curves)
