"""Golden-file regression: the sha256 of every file the default figure
commands emit is pinned, so a refactor of the emission path must reproduce
the frozen CSV/SVG surface byte for byte, not merely be deterministic.

The PHI sweep pin holds 330 death windows (6 of them touching the grid
edge), so it also freezes every refined window endpoint to 15 digits.  The
two ``path = ORACLE`` pins freeze the propagated route: the oracle C and
signed_C columns of PSI, and oracle C with 96 death windows for PHI."""

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
