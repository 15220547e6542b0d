"""Bitwise regression guard for the peak search and the CLI.

Where each pinned value comes from:

* the (2,41), (3,41) and (4,101) peaks and the `transfer --ns 2 --nw 41`
  hash: commit 473b880 (before the paired-level phases and the
  look-ahead golden polish);
* the (4,81) and (2,102) peaks: commit 81c35d1; the other eleven fixed
  `peak_sweep` chains: commit b63765f;
* the non-PP `transfer --ns 3 --nw 40` hash: commit da5c416 (before the
  array-valued Fock oracle);
* the `spectrum --h 0.9` hash: commit fcfb0d1 (before the eigensolver
  took a coupling profile); its bytes stayed when `spectrum` moved to
  the mirror sectors;
* the `battery` hash: re-pinned when the battery took its spectrum from
  the two mirror sectors (one LAPACK `eigh` each, not the QL);
* the `validate`, `validate --asymmetry`, `oracle-check` and `spectrum
  --ns 4 --nw 101` hashes: re-pinned when every chain off the peak path
  took its spectrum from the mirror sectors (the peak search, `transfer`
  and `scaling` keep the QL's bits).

All with Python 3.11, numpy 2.4 and OpenBLAS on x86-64, and the same with
1 or 2 OpenBLAS threads.  A change that claims to leave outputs unchanged
must keep these exact bits: peaks as `float.hex` of (t_fermion,
p_fermion, t_boson, p_boson), CLI runs as the sha256 of stdout.  A change
that moves outputs on purpose re-pins the values here and lists each one
it moved.
"""

import contextlib
import hashlib
import io

import pytest

from ppxfer import ChainSpec, find_transfer_peak
from ppxfer.cli import EXIT_FAIL, EXIT_OK, main

PEAKS = {
    (2, 41): ("0x1.a0564539354fcp+11", "0x1.ff53eb23aca9fp-1",
              "0x1.a040d3e3201b0p+11", "0x1.ff537d824c757p-1"),
    (3, 41): ("0x1.5720851ceed86p+17", "0x1.fed19d9f8dfb3p-1",
              "0x1.5724b1d75daf8p+17", "0x1.fead4578a1633p-1"),
    (4, 101): ("0x1.71a34fc0b6ccap+18", "0x1.faf2e367be2f7p-1",
               "0x1.719c087150d7bp+18", "0x1.fa592a92ca2d1p-1"),
    # two chains whose search settles on a lower local maximum (ROADMAP
    # aim 3): a last-bit change of a block can send them to another one
    (4, 81): ("0x1.7240791aca0f0p+18", "0x1.fb546bb2c2738p-1",
              "0x1.7248d5a3efb28p+18", "0x1.fb056689d1fcbp-1"),
    (2, 102): ("0x1.e31ae95fde40bp+15", "0x1.fccae56430397p-1",
               "0x1.e317eba6fdf36p+15", "0x1.fcca6bda8a565p-1"),
    # the rest of the fixed part of the benchmark's `peak_sweep` round
    # (n_s 2-4 x n_w = 20l+1), added at commit b63765f
    (2, 21): ("0x1.f0e0c491eb716p+15", "0x1.ff0c92b2398fdp-1",
              "0x1.f0e315421ea71p+15", "0x1.ff0af5ed7ba6cp-1"),
    (2, 61): ("0x1.ddb46ade41debp+15", "0x1.fd0f1943d9b28p-1",
              "0x1.ddb1d1d2e35bfp+15", "0x1.fd0ea7a5c4e69p-1"),
    (2, 81): ("0x1.ebc5fa0bfc3f0p+15", "0x1.fd93aef8f8368p-1",
              "0x1.ebc82bbb079a6p+15", "0x1.fd92d152c7d59p-1"),
    (2, 101): ("0x1.431e34d023eebp+12", "0x1.fe4f012ddcb7bp-1",
               "0x1.432f744305413p+12", "0x1.fe4ecd6db3bfap-1"),
    (3, 21): ("0x1.5a014ca74d0f1p+17", "0x1.ff7122b3f8cb2p-1",
              "0x1.59ff8a1a7bfbep+17", "0x1.ff6bdf0232577p-1"),
    (3, 61): ("0x1.5c8bf37bcce8cp+17", "0x1.fe90952be0c5ap-1",
              "0x1.5c8ca2c898d5fp+17", "0x1.fe8e74e0374b5p-1"),
    (3, 81): ("0x1.61a91eebecf81p+17", "0x1.fdc6852b15e4cp-1",
              "0x1.61a49b11a1035p+17", "0x1.fdbb9f3e44438p-1"),
    (3, 101): ("0x1.55c2e54abbb0fp+17", "0x1.fb82e5f4f8b16p-1",
               "0x1.55c37d9120866p+17", "0x1.fb8221292a4a7p-1"),
    (4, 21): ("0x1.6df8bdce2e58ap+18", "0x1.fc4f0dad62f3dp-1",
              "0x1.6df88cf515e15p+18", "0x1.fb68647fae1eap-1"),
    (4, 41): ("0x1.6f213363c9058p+18", "0x1.fc9255d69f1afp-1",
              "0x1.6f2ad56b01d48p+18", "0x1.fa795795cb6cbp-1"),
    (4, 61): ("0x1.702353d40dfe0p+18", "0x1.fc94f5a03796cp-1",
              "0x1.7027b9ba2c888p+18", "0x1.f9e8894a1bcbfp-1"),
}

STDOUT_SHA256 = {
    "transfer --ns 2 --nw 41 --j0 0.01":
        "563216b7ec05929529a2eaa5cb0fc5b555529df2f514bd777d23d39b7465bcc1",
    # the mirror-sector spectrum moved the default grid's times by at most
    # 1.6e-10 relative and added one sample (135 -> 136, t = 662266.795);
    # at matched samples E_B moved by at most 3.1e-8 and P_s by 5.1e-14,
    # E_bar by -7.6e-9, tau_bar by +4.6e-5 and tau_tilde by +4.0e-5; E_hop
    # and delta_E_sw_max stay exact zeros
    "battery --nb 4 --nw 32 --j0 0.01":
        "49ad49b57615ceb12259fd980cc44664cf66bf51d254db3c260d917da72b934d",
    # the mirror-sector spectrum moved 88 of the 109 levels by at most
    # 8.5e-16; every parity stayed
    "spectrum --ns 4 --nw 101 --j0 0.01":
        "db3630526fb49070e05b646c30681e1b6a27ace2f0ed60d8aac345018423da6c",
    "transfer --ns 3 --nw 40 --j0 0.01":
        "026e4cdfaf392c716effc504ccd08e5d6885ab6cadadacc62cc9e136a496bf43",
    # with the mirror-sector spectrum: unitarity 1.11e-15 -> 1.44e-15, parity
    # reality 2.12e-15 -> 1.15e-15, oracle deviation 1.621e-14 -> 4.441e-15,
    # statistics independence 1.55e-15 -> 2.44e-15, magnetization identity
    # 3.85e-17 -> 5.86e-17; the same moves in `validate --asymmetry`
    "validate":
        "d5a0f7e39363d1da4c66cccf1e2e2750aad1716ad2e25732a86f08fbf005bdf7",
    # the oracle deviation moved 1.621e-14 -> 4.441e-15
    "oracle-check":
        "6f2bbc8b94a6cda843b5d72c63e75832e5999050dcdac5dac73ff91a7385ca17",
    # a uniform on-site energy peeled off before the eigensolve
    "spectrum --ns 2 --nw 5 --j0 0.03 --h 0.9":
        "6e305ed9d9de6f6cd4160f4bae82ace13367f488b75d6f9d37c897e44fc59422",
    # a chain with no mirror symmetry and a nonzero diagonal; its
    # zero-energy check fails on purpose
    "validate --asymmetry 0.01":
        "8d4d3b06f42cc12b626eb44a2fa06b936af9a65143f79ddda3f370a9431f1a88",
}

EXIT_CODES = {"validate --asymmetry 0.01": EXIT_FAIL}  # every other run exits EXIT_OK


@pytest.mark.parametrize("chain", sorted(PEAKS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_peak_reports_keep_their_bits(chain):
    n_s, n_w = chain
    report = find_transfer_peak(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01))
    got = tuple(float(x).hex() for x in (report.t_fermion, report.p_fermion,
                                          report.t_boson, report.p_boson))
    assert got == PEAKS[chain]


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_cli_stdout_keeps_its_bytes(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == EXIT_CODES.get(command, EXIT_OK)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[command]
