"""Golden-file regression: the sha256 of every file the default figure
commands emit is pinned, so a refactor of the emission path must reproduce
the frozen CSV/SVG surface byte for byte, not merely be deterministic."""

import hashlib

import pytest

from tcm_entangle import cli

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
}

#: the default figure grid, cross-checked on both trace paths
BOTH_CONFIG = "family = PHI\nalpha = pi/12, pi/8, pi/4\nepsilon = 0, 2\npath = BOTH\n"


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_emitted_bytes_match_pinned_digests(run, tmp_path):
    argv, expected = GOLDEN[run]
    config = tmp_path / "both.txt"
    config.write_text(BOTH_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == expected
