"""Bitwise regression guard for the peak search and the CLI.

Every pinned value was produced by commit 473b880 (before the paired-level
phases and the look-ahead golden polish), except the `validate`,
`oracle-check` and non-PP `transfer --ns 3 --nw 40` hashes, which come
from commit da5c416 (before the array-valued Fock oracle), and the
`spectrum --h 0.9` and `validate --asymmetry` hashes, which come from
commit fcfb0d1 (before the eigensolver took a coupling profile), and the
`battery` hash, re-pinned when the receiver-block weight moved onto the
angle-addition lattice (its default grid is not uniform, so each time is
its own anchor and takes numpy's cos and sin of its own angles, summed
row by row), the (4,81) and (2,102) peaks,
added at commit 81c35d1, and the other eleven fixed `peak_sweep` chains,
added at commit b63765f; all with
Python 3.11, numpy 2.4 and OpenBLAS on x86-64, and the same with 1 or 2
OpenBLAS threads.  A change that claims to leave outputs unchanged must
keep these exact bits: peaks as `float.hex` of (t_fermion, p_fermion,
t_boson, p_boson), CLI runs as the sha256 of stdout.  A change that moves
outputs on purpose re-pins the values here and lists each one it moved.
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
    # the lattice's span 1 moved E_B and E_onsite by at most 3.6e-15 in 75
    # of 135 rows and P_s by at most 1.2e-20 in 74, and E_bar, P_bar and
    # P_tilde in the last digits; t, E_hop (exact zeros), tau_bar,
    # tau_tilde and delta_E_sw_max kept their bytes
    "battery --nb 4 --nw 32 --j0 0.01":
        "d30b85fd2de2967c19eb60550a81664f963324b54dc2deddebad66e0f72a7b93",
    "spectrum --ns 4 --nw 101 --j0 0.01":
        "c84986e888ade8c67372254d4228b67e4e61bce6609491509c6d37b0367cc29f",
    "transfer --ns 3 --nw 40 --j0 0.01":
        "026e4cdfaf392c716effc504ccd08e5d6885ab6cadadacc62cc9e136a496bf43",
    "validate":
        "39dfe435333da8958d23ed36b03fa80fe46486107c317aaf5a2a5e5562a9f8fd",
    "oracle-check":
        "90a64ddb69890cc1e4246941bd9a39b70758123e4458ffc777ede61678de40c8",
    # a uniform on-site energy peeled off before the eigensolve
    "spectrum --ns 2 --nw 5 --j0 0.03 --h 0.9":
        "6e305ed9d9de6f6cd4160f4bae82ace13367f488b75d6f9d37c897e44fc59422",
    # a chain with no mirror symmetry and a nonzero diagonal; its
    # zero-energy check fails on purpose
    "validate --asymmetry 0.01":
        "802dbab88a6e52f923ca595b0c5ba2c81116f4b07fff260c8088d3abf54a8e9e",
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
