/**
 * @file
 * Deterministic pseudo-random number generation. All stochastic behaviour
 * in the simulator (workload data, mixed-system sampling, attack fuzzing)
 * flows from explicitly seeded generators so every run is reproducible.
 */

#ifndef CAPCHECK_BASE_RANDOM_HH
#define CAPCHECK_BASE_RANDOM_HH

#include <array>
#include <cstdint>

namespace capcheck
{

/**
 * SplitMix64: tiny generator used to seed Xoshiro and for cheap hashing.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** 1.0 (Blackman & Vigna). High-quality, fast, deterministic.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform value in [0, bound) without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p = 0.5);

    /** The generator's state: equal states draw equal sequences. */
    const std::array<std::uint64_t, 4> &state() const { return s; }

    bool operator==(const Rng &) const = default;

  private:
    std::uint64_t rotl(std::uint64_t x, int k) const;

    std::array<std::uint64_t, 4> s;
};

} // namespace capcheck

#endif // CAPCHECK_BASE_RANDOM_HH
