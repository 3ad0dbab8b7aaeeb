"""The golden table: every pinned output of the command line, one row per command.

``test_golden.py`` runs each row as ``python -m phasecode.cli`` in a fresh
interpreter, in an empty directory that ``{out}`` in its command stands for,
and checks it against the row:

- ``lines`` maps each file the command writes, or ``stdout``, to lines it
  must hold exactly (as ``grep -Fx`` reads them);
- ``sha256`` maps each file to the digest of its ``deterministic_bytes``:
  a ``result.txt`` without its run-block lines, a ``log.csv`` without its
  ``elapsed_seconds`` column, any other file as written;
- the files the command writes are exactly those the row names.

A ``one_cpu`` row runs on one CPU, as under ``taskset -c 0``, where every
scoring map runs in-process. The empirical SIR and the optimal filter's
taps go through BLAS/LAPACK and may differ between machines, so
``simulate``'s record and ``eval``'s filter are not pinned.

A new pin is recorded from the parent commit, before any source change.
"""

import csv
import os
from dataclasses import dataclass, field
from pathlib import Path

import phasecode
from phasecode import cli

# The keys of the lines every result record ends with (timings, RSS, CPUs,
# creation time and versions).
RUN_BLOCK_KEYS = tuple(cli._run_block(0.0))


def log_bytes_without_elapsed(path) -> str:
    """Log body with the wall-clock column masked (it is the one
    legitimately nondeterministic column)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.RUN_LOG_HEADER
    return "\n".join(",".join(row[:-1]) for row in rows)


def result_without_run_block(path) -> str:
    """A result record without its run-block lines."""
    lines = Path(path).read_bytes().decode().splitlines(keepends=True)
    return "".join(line for line in lines if line.split(" = ", 1)[0] not in RUN_BLOCK_KEYS)


def deterministic_bytes(path: Path) -> bytes:
    if path.name.endswith(".result.txt"):
        return result_without_run_block(path).encode()
    if path.name.endswith(".log.csv"):
        return log_bytes_without_elapsed(path).encode()
    return path.read_bytes()


def child_env() -> dict:
    """This environment with the imported ``phasecode``'s source directory
    first on ``PYTHONPATH``, for a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(phasecode.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class Row:
    id: str
    command: str
    lines: dict[str, tuple[str, ...]] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)
    one_cpu: bool = False


# The benchmark's search shapes (bench/README.md) and a small search.
SHAPE = "--P 10000 --E 2000 --M 5 --p_muta 0.3 --p_conv 0.3"
SMALL = "--N_G 5 --P 400 --E 80"

ROWS = [
    # The N=16 optimum, which the benchmark oracle's own enumeration also
    # finds.
    Row(
        "bruteforce-16",
        "bruteforce 16 --out {out}",
        lines={
            "bruteforce_N16.result.txt": (
                "gamma = 21.6972900361401",
                "code = -1,-1,-1,-1,-1,-1,+1,+1,-1,-1,+1,+1,-1,+1,-1,+1",
            ),
        },
        sha256={
            "bruteforce_N16.result.txt": "81ff9a275b93fafddb6c0a19511dc67e7d25d8081896b4c5ea5505101cf60e1c",
        },
    ),
    # The N=20 optimum, the benchmark's brute-force length, recorded before
    # the enumeration was cut to 2^(N-2) indices. Its 16 index blocks run on
    # forked workers, one per CPU, or all in-process on one CPU.
    Row(
        "bruteforce-20",
        "bruteforce 20 --out {out}",
        lines={
            "bruteforce_N20.result.txt": (
                "gamma = 20.900605805123988",
                "code = -1,-1,-1,-1,-1,-1,-1,+1,+1,+1,-1,-1,-1,+1,-1,+1,+1,-1,+1,-1",
            ),
        },
        sha256={
            "bruteforce_N20.result.txt": "8823a9309b63b1a2edd6d38db84b18d17eaae292035ed33a377eeebef63c07fd",
        },
    ),
    Row(
        "bruteforce-20-one-cpu",
        "bruteforce 20 --out {out}",
        lines={
            "bruteforce_N20.result.txt": (
                "cpus = 1",
                "gamma = 20.900605805123988",
                "code = -1,-1,-1,-1,-1,-1,-1,+1,+1,+1,-1,-1,-1,+1,-1,+1,+1,-1,+1,-1",
            ),
        },
        sha256={
            "bruteforce_N20.result.txt": "8823a9309b63b1a2edd6d38db84b18d17eaae292035ed33a377eeebef63c07fd",
        },
        one_cpu=True,
    ),
    # The N=24 optimum (about 2 s on two CPUs), recorded by the ROADMAP re-
    # anchor that measured exact optima up to N=28.
    Row(
        "bruteforce-24",
        "bruteforce 24 --out {out}",
        lines={
            "bruteforce_N24.result.txt": (
                "gamma = 27.003204133402274",
                "code = -1,-1,-1,-1,-1,-1,-1,-1,-1,+1,+1,+1,-1,-1,+1,-1,-1,+1,-1,+1,-1,+1,-1,+1",
            ),
        },
        sha256={
            "bruteforce_N24.result.txt": "1ed5c41a2d96ef36a4720196cb52bdd6bf55fcef79625a26e14d53be911cab8b",
        },
    ),
    # A small search at the default seed.
    Row(
        "search-n12",
        "search --N 12 --N_G 2 --P 60 --E 12 --out {out}",
        sha256={
            "search_N12_seed0.log.csv": "d6c73cac004e21c4cc35fd23242d26494b79507e4405f91f27b2ceb6e2b0e6f5",
            "search_N12_seed0.plot.csv": "54d4f454db048c182269beeab1836fd36286139d6b3323447f181f0c16572e23",
            "search_N12_seed0.result.txt": "a933c1a89a14c519e5eeffde6173a17f090ea6bf1791935402545c3445ecc55b",
        },
    ),
    # A search's visited states are the size of its score cache; recorded
    # before the cache moved from a dict to sorted arrays.
    Row(
        "search-n16-cache",
        "search --N 16 --N_G 20 --P 2000 --E 400 --seed 1 --out {out}",
        lines={
            "search_N16_seed1.result.txt": (
                "gamma = 21.6972900361401",
                "visited_states = 21225",
            ),
        },
        sha256={
            "search_N16_seed1.log.csv": "e013b90b3fac254f747016d159e18eaa67669c035150139e4e02974bfee89090",
            "search_N16_seed1.plot.csv": "2acf5a3c7457d452b67b62d921b5b55ae1d38da31bf5ac3afcb66cff75d70a0c",
            "search_N16_seed1.result.txt": "9a1b2413a248b9ba83f808f67f65a387b4cf61d8b5d069cf0104d0162b543cce",
        },
    ),
    # sweep.csv and the study's plot files, recorded before search, sweep
    # and study moved onto one run driver.
    Row(
        "sweep-10-11",
        "sweep 10 11 --N_G 2 --P 60 --E 12 --out {out}",
        sha256={
            "search_N10_seed614480483733483466.log.csv": "7ee35f9ffb6dc3020e40d19c093120ad13d3c88e8941142283162ed048909f0d",
            "search_N10_seed614480483733483466.plot.csv": "d06e9aecbdd30e4371896e64438428ce5a99c2dfbb8fdb60f40faa6f1236b710",
            "search_N10_seed614480483733483466.result.txt": "3fed7d301128c77823ad5fd9e1e3fb46a4d3938a6c7dd9cf50636dd0728058fa",
            "search_N11_seed5833679380957638813.log.csv": "52d57a1dba7018f5172ea9585b74f097e6f982bc4539c90d29e60e2faf2aee3d",
            "search_N11_seed5833679380957638813.plot.csv": "4a0d29b0f8b9976b4e4057bb289d6118190be241b7811c79311fc2f037c686e2",
            "search_N11_seed5833679380957638813.result.txt": "79f147de6a83428e82fa17f0e303ded4080f55a4c47f285a40230ad279313769",
            "sweep.csv": "3da61d4801bcb2b73890b09b299b526dae3ad74cc3a9461ddab32e4da6154b5c",
        },
    ),
    Row(
        "study-p-conv",
        "study --variable p_conv --values 0.3 0.7 --N 12 --N_G 2 --P 60 --E 12 --out {out}",
        sha256={
            "study_p_conv_0.3_seed0.log.csv": "eaaa6497acfc9b0ed4c753a1bc27d5dbdfbf8e5fbf6790304288a078a0108d41",
            "study_p_conv_0.3_seed0.plot.csv": "54d4f454db048c182269beeab1836fd36286139d6b3323447f181f0c16572e23",
            "study_p_conv_0.3_seed0.result.txt": "8579cf184958fb90d94e4dfdaa7bcfc99e04fbcd5df3a6d22991a00dd61ef2c3",
            "study_p_conv_0.7_seed0.log.csv": "e10b0a90b5ed1594b4925fbabbd6e9ba908e60f9389b8766a998779c84f8abd2",
            "study_p_conv_0.7_seed0.plot.csv": "252e71074b078b3bc1673dc50685dbb5b31de81d6ff33b651d1e1cebf65531bc",
            "study_p_conv_0.7_seed0.result.txt": "0879d0520951feeff403502661c5056a51250200b5430a922c7ff9b047c5235c",
        },
    ),
    # The published prior codes lead generation 0; recorded from the
    # `--seed-known` run and the `init_seeding` study that `init` replaced.
    Row(
        "search-n59-known",
        "search --N 59 --N_G 5 --P 600 --E 120 --seed 1 --init known --out {out}",
        lines={
            "search_N59_seed1.result.txt": (
                "gamma = 45.158571008163634",
                "visited_states = 2957",
                "init = known",
            ),
        },
        sha256={
            "search_N59_seed1.log.csv": "81cb546993ae657a504b880fd83a24412eb4871d417382a3dd7b69b9bb13c077",
            "search_N59_seed1.plot.csv": "c881418f9337ce85f43996096be9bdf38ff3c9ecb983979c76a025dd4ea1edf9",
            "search_N59_seed1.result.txt": "4c86651ad1e626e2d6cb834a2dffa015bd371a928a24fc1404bb37a4c84dfdbe",
        },
    ),
    Row(
        "study-init",
        "study --variable init --values random known --N 59 --N_G 5 --P 600 --E 120 --seed 1 --out {out}",
        lines={
            "study_init_random_seed1.result.txt": (
                "visited_states = 2967",
            ),
            "study_init_known_seed1.result.txt": (
                "visited_states = 2957",
            ),
        },
        sha256={
            "study_init_known_seed1.log.csv": "48bec2d367833406def5ce75dec25940260cb3fb6b52db7c5117583912ef46b5",
            "study_init_known_seed1.plot.csv": "c881418f9337ce85f43996096be9bdf38ff3c9ecb983979c76a025dd4ea1edf9",
            "study_init_known_seed1.result.txt": "b6843d76e5c5df6d423409c5163833f1eb18f3859357bac85df56dfac3ff11bd",
            "study_init_random_seed1.log.csv": "27f0d4469e5003d60512bd60ddfaa44dac520e842a913bbfe7c6933a08a4bd63",
            "study_init_random_seed1.plot.csv": "c6199d48e364bcda8240d0854a50d8fe43aed4863949c947cf67a53fd4d78535",
            "study_init_random_seed1.result.txt": "3f44f9565fc73912ce9e21660775b4ab83daeb03d44ff1ad042239704f4a1ad5",
        },
    ),
    # Tournaments past 2 sqrt(P) (M^2 = 2500 > 4P = 1600), each drawn as one
    # `Generator.choice` ordered sample; recorded when that sampler replaced
    # the blocked row permutations.
    Row(
        "search-n16-large-m",
        "search --N 16 " + SMALL + " --M 50 --seed 1 --out {out}",
        lines={
            "search_N16_seed1.result.txt": (
                "gamma = 17.394416838863535",
                "visited_states = 1682",
            ),
        },
        sha256={
            "search_N16_seed1.log.csv": "6824cbdb5c0919691fe6dc96fc4fa31711af2b19ecb50c34fe09281e32b94049",
            "search_N16_seed1.plot.csv": "d71cf69c45f7c9674b978d5f832b03ef6ed69bf3cb35fe31a2f97fe0857528cd",
            "search_N16_seed1.result.txt": "8682aea005c1e2a4ae9ac6216cd4cc2243685658286dbf1a933c2a9fe7a4c85f",
        },
    ),
    # The packed-code layout boundary: N=64 is the last length whose code
    # packs into one 64-bit word and N=65 the first that needs two. The N=63
    # and N=64 values were recorded before the population moved onto packed
    # words, the N=65 values before the stop bit after each code was
    # dropped.
    Row(
        "search-n63",
        "search --N 63 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N63_seed1.result.txt": (
                "gamma = 7.5223940310794788",
                "visited_states = 1976",
            ),
        },
        sha256={
            "search_N63_seed1.log.csv": "70dd436f9f283a11e996a660665a0835d8d2249e9e7d4495d8549dd47794d2e5",
            "search_N63_seed1.plot.csv": "b020d0dfef883099f952dd1c60993e52ae1078d646e4d3f35c4f721f8f99b392",
            "search_N63_seed1.result.txt": "d11c4bc944a508059eddcd9260175a6b4d2c0baf15e946bf6f4abeb003eede9c",
        },
    ),
    Row(
        "search-n64",
        "search --N 64 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N64_seed1.result.txt": (
                "gamma = 8.2433395772661129",
                "visited_states = 1969",
            ),
        },
        sha256={
            "search_N64_seed1.log.csv": "5716e596fb30c1219e9e0da15f6bd29cbdf8695fcade2aa377978e0ebcfa2051",
            "search_N64_seed1.plot.csv": "5df990ee05195bc3392cf73a752549487b727dbbdce1d3408cd9ec9b868da839",
            "search_N64_seed1.result.txt": "b5f836fbaa0e676af5a36c0d6b72113d3b49ef26c7c48b0b552b11846609befe",
        },
    ),
    Row(
        "search-n65",
        "search --N 65 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N65_seed1.result.txt": (
                "gamma = 7.2536765686691478",
                "visited_states = 1969",
            ),
        },
        sha256={
            "search_N65_seed1.log.csv": "e63219ece7427a25a7157cf78729049cc71a02fa320ae00f038433e1b55deeea",
            "search_N65_seed1.plot.csv": "c41ef6ae22d1b704d2e87b50bcead22f1c257b6d748f270cdf2f4f53f2a87122",
            "search_N65_seed1.result.txt": "e4b6cce14afb3a5ae16f39ed8f0cbef56c893070a9ef2ab6c970db4c54d6b030",
        },
    ),
    # The benchmark's search-n16 and search-n59 shapes, recorded before the
    # elite, tournament, crossover and dedupe steps were rewritten. On one
    # CPU every batch is scored in-process; on more, large batches go to
    # forked workers, one per CPU.
    Row(
        "shape-n16-seed1",
        "search --N 16 --N_G 60 " + SHAPE + " --seed 1 --out {out}",
        lines={
            "search_N16_seed1.result.txt": (
                "gamma = 21.6972900361401",
                "visited_states = 64536",
            ),
        },
        sha256={
            "search_N16_seed1.log.csv": "31b02bfcab9beabc01c805ee08d27396c651691dc5f37dc4eec8497d1c7b04b3",
            "search_N16_seed1.plot.csv": "1c13816b530b2cbedd026b9e0b29fb40dbd89aa7849d72a9b6ba649652d50e53",
            "search_N16_seed1.result.txt": "e1e322de70a93ea61f1c96f87bb0751a3d88342f57bd8f2dab1edbb3ac41420c",
        },
    ),
    Row(
        "shape-n59-seed1",
        "search --N 59 --N_G 4 " + SHAPE + " --seed 1 --out {out}",
        lines={
            "search_N59_seed1.result.txt": (
                "gamma = 8.1827837060718576",
                "visited_states = 41619",
            ),
        },
        sha256={
            "search_N59_seed1.log.csv": "1fee053995a025397f01fa59c6bbf3d58cf74d5550c439e7ec00ffa2bd023887",
            "search_N59_seed1.plot.csv": "9180adcc3f306aca400aa6aebb7b973db5c6ebe0cc3db9f0d3fceed809aafbf2",
            "search_N59_seed1.result.txt": "2a3f37abff9ee5266e40a06f71c936d92e5ea658df3224841626eb366eb9d10b",
        },
    ),
    Row(
        "shape-n59-seed1-one-cpu",
        "search --N 59 --N_G 4 " + SHAPE + " --seed 1 --out {out}",
        lines={
            "search_N59_seed1.result.txt": (
                "cpus = 1",
                "gamma = 8.1827837060718576",
                "visited_states = 41619",
            ),
        },
        sha256={
            "search_N59_seed1.log.csv": "1fee053995a025397f01fa59c6bbf3d58cf74d5550c439e7ec00ffa2bd023887",
            "search_N59_seed1.plot.csv": "9180adcc3f306aca400aa6aebb7b973db5c6ebe0cc3db9f0d3fceed809aafbf2",
            "search_N59_seed1.result.txt": "2a3f37abff9ee5266e40a06f71c936d92e5ea658df3224841626eb366eb9d10b",
        },
        one_cpu=True,
    ),
    # The benchmark's search-n100 shape, for one generation, on every CPU
    # and on one; recorded before the scoring pool moved from
    # `concurrent.futures` to forked workers fed through pipes.
    Row(
        "shape-n100-seed1",
        "search --N 100 --N_G 1 " + SHAPE + " --seed 1 --out {out}",
        lines={
            "search_N100_seed1.result.txt": (
                "gamma = 6.2103662012352858",
                "visited_states = 17949",
            ),
        },
        sha256={
            "search_N100_seed1.log.csv": "ccf397f8c1ce7ab5ea22801cbbebec7664171df9c1beca5d110e748049283fea",
            "search_N100_seed1.plot.csv": "b7352e72807ada8a863e1666eca46844de5865ae1909fefd82f7f08e5112a677",
            "search_N100_seed1.result.txt": "9afc53db26512e2993153cc1a15878245164ba76fb94f37138cb8343c8762040",
        },
    ),
    Row(
        "shape-n100-seed1-one-cpu",
        "search --N 100 --N_G 1 " + SHAPE + " --seed 1 --out {out}",
        lines={
            "search_N100_seed1.result.txt": (
                "cpus = 1",
                "gamma = 6.2103662012352858",
                "visited_states = 17949",
            ),
        },
        sha256={
            "search_N100_seed1.log.csv": "ccf397f8c1ce7ab5ea22801cbbebec7664171df9c1beca5d110e748049283fea",
            "search_N100_seed1.plot.csv": "b7352e72807ada8a863e1666eca46844de5865ae1909fefd82f7f08e5112a677",
            "search_N100_seed1.result.txt": "9afc53db26512e2993153cc1a15878245164ba76fb94f37138cb8343c8762040",
        },
        one_cpu=True,
    ),
    # The published GA code's SCR at its optimal filter, as `eval` prints
    # it, and its first and middle squared lag responses; recorded before
    # the lag responses moved into `codes.lag_responses`.
    Row(
        "eval-ga",
        "eval ga",
        lines={
            "stdout": (
                "gamma (optimal mismatched filter) = 50.842761",
                "  lag -58: 3.353073e-02",
                "  lag +1: 2.844366e-04",
            ),
        },
    ),
    # Visited states are the size of the score cache: distinct codes among
    # 2000 draws.
    Row(
        "randomsearch-12",
        "randomsearch 12 2000 --seed 1 --out {out}",
        lines={
            "randomsearch_N12_seed1.result.txt": (
                "visited_states = 1590",
            ),
        },
        sha256={
            "randomsearch_N12_seed1.log.csv": "73699cfae00be30e34db35557e79ba1f781eb1bf5ebd249cb843bb1e03a0cb71",
            "randomsearch_N12_seed1.result.txt": "407d94837003b4dfc25e33471ef38fe413c6addad818f2a70cffd75d3f0febde",
        },
    ),
    # The Monte-Carlo check of the published GA code. Only the analytic
    # gamma and the record's echo are pinned: the empirical SIR goes through
    # a BLAS matrix product.
    Row(
        "simulate-ga-10k",
        "simulate ga --trials 10000 --seed 1 --out {out}",
        lines={
            "stdout": (
                "analytic gamma = 50.842761",
            ),
            "simulate_N59_seed1.result.txt": (
                "mode = simulate",
                "N = 59",
                "seed = 1",
                "trials = 10000",
            ),
        },
    ),
    # Recorded together when this table was made: the benchmark shapes at
    # seed 2, lengths of two, three and four words, a random search at N=70,
    # a sweep across N=128 and the default simulation.
    Row(
        "shape-n16-seed2",
        "search --N 16 --N_G 60 " + SHAPE + " --seed 2 --out {out}",
        lines={
            "search_N16_seed2.result.txt": (
                "gamma = 21.6972900361401",
                "visited_states = 64566",
            ),
        },
        sha256={
            "search_N16_seed2.log.csv": "c82e76bf13ea61b1f606679d68629611f68262d74f25e901078189caf74c822c",
            "search_N16_seed2.plot.csv": "d6f3021da419fc5b3ee763e139b347516dccd01a519d45a2b87d3881b89779b1",
            "search_N16_seed2.result.txt": "0798a24d5fb10bbbed40431910626d925bf60bf054f95e2dfa53479e85fffe7e",
        },
    ),
    Row(
        "shape-n59-seed2",
        "search --N 59 --N_G 4 " + SHAPE + " --seed 2 --out {out}",
        lines={
            "search_N59_seed2.result.txt": (
                "gamma = 9.155564237595744",
                "visited_states = 41615",
            ),
        },
        sha256={
            "search_N59_seed2.log.csv": "97539da06710331cf37fa9497654fd5249bbd1ca972c79c455931e43f29a3242",
            "search_N59_seed2.plot.csv": "6c91cd9ac68fe0dc8165d57f0f1911d2f7862926414bc6ece5feb8cbcbf16673",
            "search_N59_seed2.result.txt": "a183621b8358e95190cf94f8f51db21013572cad01d80b26e3557b83c2319fd6",
        },
    ),
    Row(
        "shape-n100-seed2",
        "search --N 100 --N_G 1 " + SHAPE + " --seed 2 --out {out}",
        lines={
            "search_N100_seed2.result.txt": (
                "gamma = 6.3916984193521422",
                "visited_states = 17950",
            ),
        },
        sha256={
            "search_N100_seed2.log.csv": "588fb4cf64486a3d4ed46450083e53c0caee1002ed54c0cf5d206d5eb3a9a228",
            "search_N100_seed2.plot.csv": "2a5b26b8ecb5a7cc1472cdfb65ed2235170337998f83c036732e5803d905a58e",
            "search_N100_seed2.result.txt": "b3ef928ca12f0bfbe6b8985d84d95338b0f96c022784ab2d4c224281f2699e34",
        },
    ),
    Row(
        "search-n128",
        "search --N 128 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N128_seed1.result.txt": (
                "gamma = 5.4908536661416409",
                "visited_states = 1973",
            ),
        },
        sha256={
            "search_N128_seed1.log.csv": "c1e635031a7b1c4cc05c4da751f3b086b44f7699efb05335eb393b1f26f5da8d",
            "search_N128_seed1.plot.csv": "171c2aab54ec2f3f6b442b9f93a0e099ae56b69ccfadc08217a7f5f92ce877c4",
            "search_N128_seed1.result.txt": "88aaa918070c4d56b0a282a46c813ad4cd3b43459fbd840519e45022d9a3416b",
        },
    ),
    Row(
        "search-n192",
        "search --N 192 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N192_seed1.result.txt": (
                "gamma = 4.9809261017749433",
                "visited_states = 1981",
            ),
        },
        sha256={
            "search_N192_seed1.log.csv": "a2e1ca5a732fb00ca0b680cf2a25e7623c4580b641dd52bed7280b23dbac65ae",
            "search_N192_seed1.plot.csv": "249c7c232ab849a111d304a5ff9d2785e9ef86a3c996221321db7b0556e6d908",
            "search_N192_seed1.result.txt": "b7a02783e7ff1b495ca74cde1c573006cddc8691264ac4581e034c12229a5f5e",
        },
    ),
    Row(
        "search-n256",
        "search --N 256 " + SMALL + " --seed 1 --out {out}",
        lines={
            "search_N256_seed1.result.txt": (
                "gamma = 4.5004377511331164",
                "visited_states = 1990",
            ),
        },
        sha256={
            "search_N256_seed1.log.csv": "371bd41ec83d1c42bffe3bf912d46b1000024d43447b719fcbdddf873f0767b9",
            "search_N256_seed1.plot.csv": "cefecff51b22c0176d62178c779a7a0f68e220510df3f8250b8ff8e21649f3f5",
            "search_N256_seed1.result.txt": "ee65bcdceec1eef56e627206830a57a746540b3708fa6d11ce32e7a0688c8912",
        },
    ),
    Row(
        "randomsearch-70",
        "randomsearch 70 5000 --out {out}",
        lines={
            "randomsearch_N70_seed0.result.txt": (
                "gamma = 6.2076763790111631",
                "visited_states = 5000",
            ),
        },
        sha256={
            "randomsearch_N70_seed0.log.csv": "cb7639d6fb52f8d0f948f040afcbd42631c77c8bfe40d6879fdc9bc2a7373cec",
            "randomsearch_N70_seed0.result.txt": "3b872a5a83e739df3d09b46aea2881e2ef6ebaed92615b6bf25b5cdaea684f55",
        },
    ),
    Row(
        "sweep-126-130",
        "sweep 126 130 " + SMALL + " --out {out}",
        sha256={
            "search_N126_seed3755176798124146547.log.csv": "29e3a6ac88837b05ce011cd7b31f3c8f8c49069fb1b3869cd58b0233984dd38f",
            "search_N126_seed3755176798124146547.plot.csv": "c0f21cc525eb56d3aa9b68a5417b37de41ecf7cf8631a0ed42c197b11e1b3fcb",
            "search_N126_seed3755176798124146547.result.txt": "af2405159f1deff6b7211cb819947aa2ff0054140afcef1c9368c475776edc9c",
            "search_N127_seed4588524522137214616.log.csv": "83c17d0004657520fb6e38d2764f4c17499f812ea6ad7780953c3db571046c2b",
            "search_N127_seed4588524522137214616.plot.csv": "6db9a746d50238bf78ac26971c95464242004ab52985d61c39f1e7832d713955",
            "search_N127_seed4588524522137214616.result.txt": "df453ba300380877d60b14634424cdea6ca8a1e62546456f303f1f1b5524fb6d",
            "search_N128_seed3167203493938195902.log.csv": "099a5ac5f9c227d553d8d4cc67b59ec7316a2cd9a65491ed52188348101db378",
            "search_N128_seed3167203493938195902.plot.csv": "cc4baba2c72934fd5249149a1a4062c6d9e26dfdf3f69bf3ff3da51385007689",
            "search_N128_seed3167203493938195902.result.txt": "cf4b71459b9e592d96f0197f6dcd97f12ceb0a80f5e8a990a6f710d63d7fc9f5",
            "search_N129_seed1603350262181515285.log.csv": "bc1c20e828dc9b0874429967c1de22e7fd73a4a07aadf39a5e243fce29689a17",
            "search_N129_seed1603350262181515285.plot.csv": "aa78afcfbf8b83c605cdc15b4dc3b85454e378fdb3decc8fb89b73b550a61545",
            "search_N129_seed1603350262181515285.result.txt": "fac708799de1a9e9cc745e248c536977271600006f2369b2e53384ba8677b45c",
            "search_N130_seed8361847590266283331.log.csv": "0873e92765de4544435401e96760fe87790e1fc98587e09356d9a2ca262f323e",
            "search_N130_seed8361847590266283331.plot.csv": "a5f05e64003dfdffe8b0912100a859fbf20884551a32d1ce67cc36cbf62a842e",
            "search_N130_seed8361847590266283331.result.txt": "720dae50d68df1c5d4936310584b11a729290d335789ff4c7d3e06a58a2963c8",
            "sweep.csv": "50717b3dbafb2408abca28bcda78ad6c415bdd12df890c42b132f70e13e54934",
        },
    ),
    Row(
        "simulate-ga",
        "simulate ga",
        lines={
            "stdout": (
                "N = 59",
                "filter = optimal",
                "trials = 100000",
                "analytic gamma = 50.842761",
            ),
        },
    ),
]
