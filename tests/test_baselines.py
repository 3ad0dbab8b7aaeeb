"""Known-code registry, random-search baseline, and the exhaustive oracle."""

import importlib

import numpy as np
import pytest

import phasecode.baselines as baselines
from phasecode.baselines import (
    brute_force_best,
    known_code,
    known_codes,
)
from phasecode.fitness import fitness, fitness_batch
from phasecode.ga import random_search
from reference import N12_OPTIMAL_CODE, N12_OPTIMAL_GAMMA, random_code, symmetry_orbit

fitness_module = importlib.import_module("phasecode.fitness")


class TestKnownCodes:
    def test_exactly_four_entries(self):
        names = [k.name for k in known_codes()]
        assert names == ["legendre", "alphaseq", "hpgan", "ga"]

    def test_all_length_59(self):
        assert all(len(k.code) == 59 for k in known_codes())

    def test_published_gammas(self):
        expected = {"legendre": 2.69, "alphaseq": 33.45, "hpgan": 45.16, "ga": 50.84}
        for k in known_codes():
            assert k.published_gamma == expected[k.name]

    def test_registry_self_check_recomputes_fitness(self):
        for k in known_codes():
            assert fitness(k.code) == pytest.approx(
                k.published_gamma, abs=baselines.GAMMA_TOLERANCE
            )

    def test_digest_guard_trips_on_tampering(self, monkeypatch):
        monkeypatch.setattr(baselines, "REGISTRY_SHA256", "0" * 64)
        with pytest.raises(RuntimeError):
            known_codes()

    def test_gamma_guard_trips_on_wrong_published_value(self, monkeypatch):
        rows = list(baselines._REGISTRY_ROWS)
        name, text, _ = rows[0]
        rows[0] = (name, text, 99.0)
        monkeypatch.setattr(baselines, "_REGISTRY_ROWS", tuple(rows))
        with pytest.raises(RuntimeError):
            known_codes()

    def test_gamma_guard_trips_on_undefined_score(self, monkeypatch):
        monkeypatch.setattr(baselines, "fitness", lambda code: float("nan"))
        with pytest.raises(RuntimeError, match="recomputed nan"):
            known_codes()

    def test_lookup_by_name(self):
        assert known_code("ga").published_gamma == 50.84
        with pytest.raises(KeyError):
            known_code("nonesuch")


class TestRandomSearch:
    def test_single_draw(self):
        res = random_search(12, 1, np.random.default_rng(0))
        assert res.total_visited_states == 1
        assert res.best_gamma == pytest.approx(fitness(res.best_code))

    def test_trajectory_non_decreasing(self):
        res = random_search(16, 5000, np.random.default_rng(1))
        bests = [st.best_gamma for st in res.history]
        assert bests == sorted(bests)

    def test_checkpoints_at_powers_of_ten_and_final(self):
        res = random_search(16, 5000, np.random.default_rng(2))
        assert [st.k for st in res.history] == [1, 10, 100, 1000, 5000]

    def test_visited_counts_distinct_draws_only(self):
        # N=4 has 16 codes; a big budget must revisit
        res = random_search(4, 2000, np.random.default_rng(3))
        assert res.total_visited_states <= 16
        assert res.total_evaluations == 2000

    def test_best_matches_recomputed_fitness(self):
        res = random_search(20, 3000, np.random.default_rng(4))
        assert res.best_gamma == pytest.approx(fitness(res.best_code), rel=1e-9)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            random_search(10, 0, np.random.default_rng(0))


def all_codes(n):
    """All 2^n codes of length n, in lexicographic order with -1 first."""
    ks = np.arange(1 << n, dtype=np.int64)
    bits = (ks[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def full_enumeration_oracle(n):
    """Independent exhaustive argmax over all 2^n codes (no symmetry folding).

    Gammas within 1e-12 relative of the top count as ties: rounding splits
    the exact ties of symmetric codes by a few ulps.
    """
    codes = all_codes(n)
    gammas = fitness_batch(codes)
    top = float(np.nanmax(gammas))
    ties = [codes[i] for i in np.nonzero(gammas >= top * (1 - 1e-12))[0]]
    best = min(ties, key=lambda c: tuple(int(v) for v in c))
    return best, top


class TestBruteForce:
    def test_n2_all_codes_tie_at_two(self):
        code, gamma = brute_force_best(2)
        assert gamma == pytest.approx(2.0)
        # lexicographically smallest of the four optima
        assert code.tolist() == [-1, -1]

    def test_n12_regression_pin(self):
        code, gamma = brute_force_best(12)
        assert gamma == pytest.approx(N12_OPTIMAL_GAMMA, abs=1e-12)
        assert code.tolist() == N12_OPTIMAL_CODE

    def test_n22_regression_pin(self):
        # Recorded at the ROADMAP re-anchor that measured N = 20..28.
        code, gamma = brute_force_best(22)
        assert gamma == 25.436003782367518
        assert "".join("+" if v > 0 else "-" for v in code) == "--------++++--+--+-+-+"

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_many_small_blocks_match_one_block(self, monkeypatch, block):
        # Each block keeps the codes within the tie tolerance of its own best,
        # which is no larger than the overall best, so no near-tie is lost.
        whole_code, whole_gamma = brute_force_best(12)  # one block of 2^10 indices
        monkeypatch.setattr(fitness_module, "scoring_cpus", lambda: 1)
        monkeypatch.setattr(baselines, "_BRUTE_FORCE_BLOCK", block)
        code, gamma = brute_force_best(12)
        assert code.tobytes() == whole_code.tobytes()
        assert np.float64(gamma).tobytes() == np.float64(whole_gamma).tobytes()

    def test_matches_full_enumeration_for_small_n(self):
        for n in range(2, 15):
            folded_code, folded_gamma = brute_force_best(n)
            oracle_code, oracle_gamma = full_enumeration_oracle(n)
            assert folded_gamma == oracle_gamma
            assert np.array_equal(folded_code, oracle_code)

    def test_result_is_lex_minimum_of_its_symmetry_orbit(self):
        # Negation, reversal and alternation s[n] -> (-1)^n s[n] all keep
        # gamma exactly, so the tie rule must pick the smallest of the orbit.
        for n in range(2, 15):
            code, _ = brute_force_best(n)
            alt = (-1) ** np.arange(n)
            orbit = [
                (sign * flip(code) * a).tolist()
                for sign in (1, -1)
                for flip in (lambda c: c, lambda c: c[::-1])
                for a in (np.ones(n, dtype=int), alt)
            ]
            assert code.tolist() == min(orbit), n

    def test_orbit_minimum_filter_matches_symmetry_orbit(self):
        for n in range(2, 13):
            ks = np.arange(1 << n, dtype=np.int64)
            images = baselines._orbit_images(n, ks)
            keep = ks <= np.min(images, axis=0)
            codes = all_codes(n)  # codes[k] is the code of index k
            for k, code in enumerate(codes):
                orbit = symmetry_orbit(code).tolist()
                assert sorted(codes[image[k]].tolist() for image in images) == sorted(orbit)
                assert keep[k] == (code.tolist() == min(orbit)), (n, k)
            # Every orbit minimum has symbols 0 and 1 at -1, so brute force
            # enumerates only the indices below 2^(n-2).
            assert not keep[1 << (n - 2) :].any(), n

    def test_scores_one_code_per_orbit(self, monkeypatch):
        for n in range(2, 15):
            scored = []

            def recording_batch(codes):
                scored.append(codes.copy())
                return fitness_batch(codes)

            monkeypatch.setattr(baselines, "fitness_batch", recording_batch)
            brute_force_best(n)
            # The last call re-scores the orbits of the near-tied codes.
            enumerated = np.concatenate(scored[:-1]).tolist()
            orbits = {
                tuple(min(symmetry_orbit(code).tolist()))
                for code in all_codes(n)
            }
            if n == 12:
                assert len(orbits) == 528
            assert len(enumerated) == len(orbits), n
            assert set(map(tuple, enumerated)) == orbits, n

    def test_dominates_random_codes(self):
        _, gamma = brute_force_best(10)
        rng = np.random.default_rng(6)
        codes = np.stack([random_code(10, rng) for _ in range(10_000)])
        assert float(np.nanmax(fitness_batch(codes))) <= gamma + 1e-12

    def test_length_caps(self):
        with pytest.raises(ValueError):
            brute_force_best(1)
        with pytest.raises(ValueError):
            brute_force_best(29)
