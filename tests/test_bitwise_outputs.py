"""Bitwise regression guard for the peak search and the CLI.

Every pinned value was produced by commit 473b880 (before the paired-level
phases and the look-ahead golden polish), except the `validate`,
`oracle-check` and non-PP `transfer --ns 3 --nw 40` hashes, which come
from commit da5c416 (before the array-valued Fock oracle), and the
`spectrum --h 0.9` and `validate --asymmetry` hashes, which come from
commit fcfb0d1 (before the eigensolver took a coupling profile), and the
`battery` hash, re-pinned when `battery_metrics` began to report its
sublattice-protected E_hop and delta_E_sw as exact zeros; all with
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
}

STDOUT_SHA256 = {
    "transfer --ns 2 --nw 41 --j0 0.01":
        "563216b7ec05929529a2eaa5cb0fc5b555529df2f514bd777d23d39b7465bcc1",
    # E_hop and delta_E_sw_max are exact zeros; E_B and P_s moved by at
    # most 4.4e-16 and 3.4e-21 where E_hop had been nonzero
    "battery --nb 4 --nw 32 --j0 0.01":
        "25bbc9000b66ef0ed44d077a1dcac31a1928a24ea0e36d01c1519e6c6a3a7bfe",
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
